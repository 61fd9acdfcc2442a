#include "oclc/parser.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "oclc/lexer.h"

namespace haocl::oclc {
namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Expected<std::unique_ptr<TranslationUnit>> Run() {
    auto unit = std::make_unique<TranslationUnit>();
    while (!At(TokenKind::kEnd)) {
      auto fn = ParseFunction();
      if (!fn.ok()) return fn.status();
      unit->functions.push_back(*std::move(fn));
    }
    return unit;
  }

 private:
  // ---------------------------------------------------------------- Helpers

  [[nodiscard]] const Token& Peek(std::size_t ahead = 0) const {
    std::size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  [[nodiscard]] bool At(TokenKind kind) const { return Peek().kind == kind; }
  [[nodiscard]] bool AtKeyword(std::string_view kw) const {
    return Peek().kind == TokenKind::kKeyword && Peek().text == kw;
  }
  const Token& Advance() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }
  bool Match(TokenKind kind) {
    if (At(kind)) {
      Advance();
      return true;
    }
    return false;
  }
  bool MatchKeyword(std::string_view kw) {
    if (AtKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }

  Status Error(const std::string& what) const {
    const Token& tok = Peek();
    return Status(ErrorCode::kBuildProgramFailure,
                  "parse error at line " + std::to_string(tok.loc.line) + ":" +
                      std::to_string(tok.loc.column) + ": " + what);
  }

  Status Expect(TokenKind kind) {
    if (Match(kind)) return Status::Ok();
    return Error(std::string("expected ") + TokenKindName(kind) + ", found " +
                 TokenKindName(Peek().kind) +
                 (Peek().text.empty() ? "" : " '" + Peek().text + "'"));
  }

  // ---------------------------------------------------------------- Nesting

  Status TooDeep() const {
    return Error("nesting deeper than the limit of " +
                 std::to_string(kMaxNestingDepth) + " levels");
  }

  // Runs `parse` one nesting level deeper.
  template <class T>
  Expected<T> Nested(Expected<T> (Parser::*parse)()) {
    if (depth_ >= kMaxNestingDepth) return TooDeep();
    ++depth_;
    Expected<T> result = (this->*parse)();
    --depth_;
    return result;
  }

  // Every operator node passes through here: its height is one more than
  // its tallest operand's, and it may not reach past the nesting limit
  // below the levels open around it.
  Expected<ExprPtr> Finish(std::unique_ptr<Expr> expr) {
    for (const ExprPtr& child : expr->children) {
      expr->height = std::max(expr->height, child->height + 1);
    }
    if (depth_ + expr->height > kMaxNestingDepth) return TooDeep();
    return ExprPtr(std::move(expr));
  }

  // ------------------------------------------------------------------ Types

  // True if the current token could begin a type (a scalar type keyword or
  // an address-space / const qualifier).
  [[nodiscard]] bool AtTypeStart() const {
    if (Peek().kind != TokenKind::kKeyword) return false;
    const std::string& t = Peek().text;
    return ScalarKeyword(t).has_value() || IsSpaceQualifier(t) ||
           t == "const" || t == "restrict" || t == "volatile";
  }

  static std::optional<ScalarType> ScalarKeyword(std::string_view t) {
    if (t == "void") return ScalarType::kVoid;
    if (t == "bool") return ScalarType::kBool;
    if (t == "char") return ScalarType::kI8;
    if (t == "uchar") return ScalarType::kU8;
    if (t == "short") return ScalarType::kI16;
    if (t == "ushort") return ScalarType::kU16;
    if (t == "int") return ScalarType::kI32;
    if (t == "uint") return ScalarType::kU32;
    if (t == "long") return ScalarType::kI64;
    if (t == "ulong") return ScalarType::kU64;
    if (t == "float") return ScalarType::kF32;
    if (t == "double") return ScalarType::kF64;
    if (t == "size_t") return ScalarType::kU64;
    return std::nullopt;
  }

  static bool IsSpaceQualifier(std::string_view t) {
    return t == "__global" || t == "global" || t == "__local" ||
           t == "local" || t == "__constant" || t == "constant" ||
           t == "__private" || t == "private";
  }

  static AddressSpace SpaceFromKeyword(std::string_view t) {
    if (t == "__global" || t == "global") return AddressSpace::kGlobal;
    if (t == "__local" || t == "local") return AddressSpace::kLocal;
    if (t == "__constant" || t == "constant") return AddressSpace::kConstant;
    return AddressSpace::kPrivate;
  }

  struct ParsedType {
    Type type;
    AddressSpace declared_space = AddressSpace::kPrivate;
    bool space_explicit = false;
    bool is_const = false;  // `const` appeared before the '*' (pointee).
  };

  // Parses: [qualifiers] scalar ['*']. Qualifiers may appear in any order
  // before the scalar keyword, as OpenCL allows.
  Expected<ParsedType> ParseType() {
    ParsedType out;
    std::optional<ScalarType> scalar;
    while (Peek().kind == TokenKind::kKeyword) {
      const std::string& t = Peek().text;
      if (IsSpaceQualifier(t)) {
        out.declared_space = SpaceFromKeyword(t);
        out.space_explicit = true;
        Advance();
        continue;
      }
      if (t == "const" || t == "restrict" || t == "volatile") {
        if (t == "const") out.is_const = true;
        Advance();
        continue;
      }
      if (auto s = ScalarKeyword(t)) {
        scalar = s;
        Advance();
        break;
      }
      break;
    }
    if (!scalar.has_value()) return Error("expected a type name");
    // Trailing qualifiers between scalar and '*' (e.g. `float const *`).
    while (true) {
      if (MatchKeyword("const")) {
        out.is_const = true;
        continue;
      }
      if (MatchKeyword("restrict") || MatchKeyword("volatile")) continue;
      break;
    }
    if (Match(TokenKind::kStar)) {
      out.type = Type::Pointer(*scalar, out.declared_space);
      while (MatchKeyword("const") || MatchKeyword("restrict") ||
             MatchKeyword("volatile")) {
      }
    } else {
      out.type = Type::Scalar(*scalar);
    }
    return out;
  }

  // -------------------------------------------------------------- Functions

  Expected<std::unique_ptr<FunctionDecl>> ParseFunction() {
    auto fn = std::make_unique<FunctionDecl>();
    fn->loc = Peek().loc;
    if (MatchKeyword("__kernel") || MatchKeyword("kernel")) {
      fn->is_kernel = true;
    }
    auto ret = ParseType();
    if (!ret.ok()) return ret.status();
    fn->return_type = ret->type;

    if (!At(TokenKind::kIdentifier)) return Error("expected function name");
    fn->name = Advance().text;

    HAOCL_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    if (!At(TokenKind::kRParen)) {
      do {
        if (MatchKeyword("void") && At(TokenKind::kRParen)) break;
        auto pt = ParseType();
        if (!pt.ok()) return pt.status();
        ParamDecl param;
        param.loc = Peek().loc;
        param.type = pt->type;
        param.pointee_const = pt->is_const;
        if (!At(TokenKind::kIdentifier)) return Error("expected parameter name");
        param.name = Advance().text;
        fn->params.push_back(std::move(param));
      } while (Match(TokenKind::kComma));
    }
    HAOCL_RETURN_IF_ERROR(Expect(TokenKind::kRParen));

    auto body = ParseBlock();
    if (!body.ok()) return body.status();
    fn->body = *std::move(body);
    return fn;
  }

  // ------------------------------------------------------------- Statements

  Expected<StmtPtr> ParseBlock() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kBlock;
    stmt->loc = Peek().loc;
    HAOCL_RETURN_IF_ERROR(Expect(TokenKind::kLBrace));
    while (!At(TokenKind::kRBrace)) {
      if (At(TokenKind::kEnd)) return Error("unterminated block");
      auto child = Nested(&Parser::ParseStatement);
      if (!child.ok()) return child.status();
      stmt->body.push_back(*std::move(child));
    }
    HAOCL_RETURN_IF_ERROR(Expect(TokenKind::kRBrace));
    return stmt;
  }

  Expected<StmtPtr> ParseStatement() {
    if (At(TokenKind::kLBrace)) return ParseBlock();
    if (AtKeyword("if")) return ParseIf();
    if (AtKeyword("for")) return ParseFor();
    if (AtKeyword("while")) return ParseWhile();
    if (AtKeyword("do")) return ParseDoWhile();
    if (AtKeyword("return")) return ParseReturn();
    if (AtKeyword("break") || AtKeyword("continue")) {
      auto stmt = std::make_unique<Stmt>();
      stmt->loc = Peek().loc;
      stmt->kind = AtKeyword("break") ? StmtKind::kBreak : StmtKind::kContinue;
      Advance();
      HAOCL_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon));
      return stmt;
    }
    if (Match(TokenKind::kSemicolon)) {
      auto stmt = std::make_unique<Stmt>();
      stmt->kind = StmtKind::kEmpty;
      return stmt;
    }
    if (AtTypeStart()) return ParseDeclStatement();
    return ParseExprStatement();
  }

  Expected<StmtPtr> ParseDeclStatement() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kDecl;
    stmt->loc = Peek().loc;
    auto pt = ParseType();
    if (!pt.ok()) return pt.status();
    stmt->decl_type = pt->type;
    stmt->decl_space = pt->declared_space;
    do {
      Declarator decl;
      decl.loc = Peek().loc;
      if (!At(TokenKind::kIdentifier)) return Error("expected variable name");
      decl.name = Advance().text;
      if (Match(TokenKind::kLBracket)) {
        auto size = ParseExpression();
        if (!size.ok()) return size.status();
        decl.array_size = *std::move(size);
        HAOCL_RETURN_IF_ERROR(Expect(TokenKind::kRBracket));
      }
      if (Match(TokenKind::kAssign)) {
        auto init = ParseAssignment();
        if (!init.ok()) return init.status();
        decl.init = *std::move(init);
      }
      stmt->declarators.push_back(std::move(decl));
    } while (Match(TokenKind::kComma));
    HAOCL_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon));
    return stmt;
  }

  Expected<StmtPtr> ParseExprStatement() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kExpr;
    stmt->loc = Peek().loc;
    auto expr = ParseExpression();
    if (!expr.ok()) return expr.status();
    stmt->expr = *std::move(expr);
    HAOCL_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon));
    return stmt;
  }

  Expected<StmtPtr> ParseIf() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kIf;
    stmt->loc = Peek().loc;
    Advance();  // if
    HAOCL_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    auto cond = ParseExpression();
    if (!cond.ok()) return cond.status();
    stmt->cond = *std::move(cond);
    HAOCL_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    auto then_branch = Nested(&Parser::ParseStatement);
    if (!then_branch.ok()) return then_branch.status();
    stmt->body.push_back(*std::move(then_branch));
    if (MatchKeyword("else")) {
      auto else_branch = Nested(&Parser::ParseStatement);
      if (!else_branch.ok()) return else_branch.status();
      stmt->body.push_back(*std::move(else_branch));
    }
    return stmt;
  }

  Expected<StmtPtr> ParseFor() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kFor;
    stmt->loc = Peek().loc;
    Advance();  // for
    HAOCL_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    // Init clause: declaration, expression, or empty.
    if (Match(TokenKind::kSemicolon)) {
      stmt->body.push_back(nullptr);
    } else if (AtTypeStart()) {
      auto init = ParseDeclStatement();  // Consumes the ';'.
      if (!init.ok()) return init.status();
      stmt->body.push_back(*std::move(init));
    } else {
      auto init = ParseExprStatement();  // Consumes the ';'.
      if (!init.ok()) return init.status();
      stmt->body.push_back(*std::move(init));
    }
    // Condition.
    if (!At(TokenKind::kSemicolon)) {
      auto cond = ParseExpression();
      if (!cond.ok()) return cond.status();
      stmt->cond = *std::move(cond);
    }
    HAOCL_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon));
    // Step.
    if (!At(TokenKind::kRParen)) {
      auto step = ParseExpression();
      if (!step.ok()) return step.status();
      stmt->step = *std::move(step);
    }
    HAOCL_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    auto body = Nested(&Parser::ParseStatement);
    if (!body.ok()) return body.status();
    stmt->body.push_back(*std::move(body));
    return stmt;
  }

  Expected<StmtPtr> ParseWhile() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kWhile;
    stmt->loc = Peek().loc;
    Advance();  // while
    HAOCL_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    auto cond = ParseExpression();
    if (!cond.ok()) return cond.status();
    stmt->cond = *std::move(cond);
    HAOCL_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    auto body = Nested(&Parser::ParseStatement);
    if (!body.ok()) return body.status();
    stmt->body.push_back(*std::move(body));
    return stmt;
  }

  Expected<StmtPtr> ParseDoWhile() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kDoWhile;
    stmt->loc = Peek().loc;
    Advance();  // do
    auto body = Nested(&Parser::ParseStatement);
    if (!body.ok()) return body.status();
    stmt->body.push_back(*std::move(body));
    if (!MatchKeyword("while")) return Error("expected 'while' after do-body");
    HAOCL_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
    auto cond = ParseExpression();
    if (!cond.ok()) return cond.status();
    stmt->cond = *std::move(cond);
    HAOCL_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    HAOCL_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon));
    return stmt;
  }

  Expected<StmtPtr> ParseReturn() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kReturn;
    stmt->loc = Peek().loc;
    Advance();  // return
    if (!At(TokenKind::kSemicolon)) {
      auto value = ParseExpression();
      if (!value.ok()) return value.status();
      stmt->expr = *std::move(value);
    }
    HAOCL_RETURN_IF_ERROR(Expect(TokenKind::kSemicolon));
    return stmt;
  }

  // ------------------------------------------------------------ Expressions

  Expected<ExprPtr> ParseExpression() { return ParseAssignment(); }

  Expected<ExprPtr> ParseAssignment() {
    auto lhs = ParseTernary();
    if (!lhs.ok()) return lhs;

    struct AssignOp {
      TokenKind token;
      bool compound;  // op= rather than plain =.
      BinaryOp op;
    };
    static constexpr AssignOp kAssignOps[] = {
        {TokenKind::kAssign, false, BinaryOp::kAdd},
        {TokenKind::kPlusAssign, true, BinaryOp::kAdd},
        {TokenKind::kMinusAssign, true, BinaryOp::kSub},
        {TokenKind::kStarAssign, true, BinaryOp::kMul},
        {TokenKind::kSlashAssign, true, BinaryOp::kDiv},
        {TokenKind::kPercentAssign, true, BinaryOp::kMod},
        {TokenKind::kAmpAssign, true, BinaryOp::kBitAnd},
        {TokenKind::kPipeAssign, true, BinaryOp::kBitOr},
        {TokenKind::kCaretAssign, true, BinaryOp::kBitXor},
        {TokenKind::kShlAssign, true, BinaryOp::kShl},
        {TokenKind::kShrAssign, true, BinaryOp::kShr},
    };
    const AssignOp* assign =
        std::find_if(std::begin(kAssignOps), std::end(kAssignOps),
                     [&](const AssignOp& a) { return At(a.token); });
    if (assign == std::end(kAssignOps)) return lhs;
    auto expr = std::make_unique<Expr>();
    expr->kind = ExprKind::kAssign;
    expr->loc = Advance().loc;
    expr->compound = assign->compound;
    expr->binary_op = assign->op;
    auto rhs = Nested(&Parser::ParseAssignment);
    if (!rhs.ok()) return rhs;
    expr->children.push_back(*std::move(lhs));
    expr->children.push_back(*std::move(rhs));
    return Finish(std::move(expr));
  }

  Expected<ExprPtr> ParseTernary() {
    auto cond = ParseBinary(0);
    if (!cond.ok()) return cond;
    if (!Match(TokenKind::kQuestion)) return cond;
    auto then_expr = Nested(&Parser::ParseExpression);
    if (!then_expr.ok()) return then_expr;
    HAOCL_RETURN_IF_ERROR(Expect(TokenKind::kColon));
    auto else_expr = Nested(&Parser::ParseTernary);
    if (!else_expr.ok()) return else_expr;
    auto expr = std::make_unique<Expr>();
    expr->kind = ExprKind::kTernary;
    expr->loc = (*cond)->loc;
    expr->children.push_back(*std::move(cond));
    expr->children.push_back(*std::move(then_expr));
    expr->children.push_back(*std::move(else_expr));
    return Finish(std::move(expr));
  }

  struct OpInfo {
    TokenKind token;
    BinaryOp op;
    int precedence;
  };

  static const OpInfo* LookupBinaryOp(TokenKind kind) {
    static constexpr OpInfo kOps[] = {
        {TokenKind::kPipePipe, BinaryOp::kLogicalOr, 1},
        {TokenKind::kAmpAmp, BinaryOp::kLogicalAnd, 2},
        {TokenKind::kPipe, BinaryOp::kBitOr, 3},
        {TokenKind::kCaret, BinaryOp::kBitXor, 4},
        {TokenKind::kAmp, BinaryOp::kBitAnd, 5},
        {TokenKind::kEq, BinaryOp::kEq, 6},
        {TokenKind::kNe, BinaryOp::kNe, 6},
        {TokenKind::kLt, BinaryOp::kLt, 7},
        {TokenKind::kLe, BinaryOp::kLe, 7},
        {TokenKind::kGt, BinaryOp::kGt, 7},
        {TokenKind::kGe, BinaryOp::kGe, 7},
        {TokenKind::kShl, BinaryOp::kShl, 8},
        {TokenKind::kShr, BinaryOp::kShr, 8},
        {TokenKind::kPlus, BinaryOp::kAdd, 9},
        {TokenKind::kMinus, BinaryOp::kSub, 9},
        {TokenKind::kStar, BinaryOp::kMul, 10},
        {TokenKind::kSlash, BinaryOp::kDiv, 10},
        {TokenKind::kPercent, BinaryOp::kMod, 10},
    };
    for (const auto& info : kOps) {
      if (info.token == kind) return &info;
    }
    return nullptr;
  }

  // Precedence-climbing over the binary operator table.
  Expected<ExprPtr> ParseBinary(int min_precedence) {
    auto lhs = ParseUnary();
    if (!lhs.ok()) return lhs;
    while (true) {
      const OpInfo* info = LookupBinaryOp(Peek().kind);
      if (info == nullptr || info->precedence < min_precedence) return lhs;
      SourceLocation loc = Peek().loc;
      Advance();
      auto rhs = ParseBinary(info->precedence + 1);
      if (!rhs.ok()) return rhs;
      auto expr = std::make_unique<Expr>();
      expr->kind = ExprKind::kBinary;
      expr->loc = loc;
      expr->binary_op = info->op;
      expr->children.push_back(*std::move(lhs));
      expr->children.push_back(*std::move(rhs));
      lhs = Finish(std::move(expr));
      if (!lhs.ok()) return lhs;
    }
  }

  Expected<ExprPtr> ParseUnary() {
    static constexpr std::pair<TokenKind, UnaryOp> kPrefix[] = {
        {TokenKind::kMinus, UnaryOp::kNeg},
        {TokenKind::kPlus, UnaryOp::kPlus},
        {TokenKind::kBang, UnaryOp::kLogicalNot},
        {TokenKind::kTilde, UnaryOp::kBitNot},
        {TokenKind::kPlusPlus, UnaryOp::kPreInc},
        {TokenKind::kMinusMinus, UnaryOp::kPreDec},
    };
    const auto* prefix =
        std::find_if(std::begin(kPrefix), std::end(kPrefix),
                     [&](const auto& p) { return At(p.first); });
    // Cast: '(' type ')' unary. Distinguishable because type names are
    // keywords in the subset (no typedefs).
    const bool cast =
        At(TokenKind::kLParen) && Peek(1).kind == TokenKind::kKeyword &&
        (ScalarKeyword(Peek(1).text).has_value() ||
         IsSpaceQualifier(Peek(1).text) || Peek(1).text == "const");
    if (prefix == std::end(kPrefix) && !cast) return ParsePostfix();
    auto expr = std::make_unique<Expr>();
    expr->loc = Advance().loc;  // The operator, or the cast's '('.
    if (cast) {
      auto pt = ParseType();
      if (!pt.ok()) return pt.status();
      HAOCL_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      expr->kind = ExprKind::kCast;
      expr->cast_type = pt->type;
    } else {
      expr->kind = ExprKind::kUnary;
      expr->unary_op = prefix->second;
    }
    auto operand = Nested(&Parser::ParseUnary);
    if (!operand.ok()) return operand;
    expr->children.push_back(*std::move(operand));
    return Finish(std::move(expr));
  }

  Expected<ExprPtr> ParsePostfix() {
    auto expr = ParsePrimary();
    if (!expr.ok()) return expr;
    while (true) {
      if (Match(TokenKind::kLBracket)) {
        auto index = Nested(&Parser::ParseExpression);
        if (!index.ok()) return index;
        HAOCL_RETURN_IF_ERROR(Expect(TokenKind::kRBracket));
        auto sub = std::make_unique<Expr>();
        sub->kind = ExprKind::kSubscript;
        sub->loc = (*expr)->loc;
        sub->children.push_back(*std::move(expr));
        sub->children.push_back(*std::move(index));
        expr = Finish(std::move(sub));
      } else if (At(TokenKind::kPlusPlus) || At(TokenKind::kMinusMinus)) {
        UnaryOp op = At(TokenKind::kPlusPlus) ? UnaryOp::kPostInc
                                              : UnaryOp::kPostDec;
        SourceLocation loc = Peek().loc;
        Advance();
        auto post = std::make_unique<Expr>();
        post->kind = ExprKind::kUnary;
        post->loc = loc;
        post->unary_op = op;
        post->children.push_back(*std::move(expr));
        expr = Finish(std::move(post));
      } else {
        return expr;
      }
      if (!expr.ok()) return expr;
    }
  }

  Expected<ExprPtr> ParsePrimary() {
    const Token& tok = Peek();
    auto expr = std::make_unique<Expr>();
    expr->loc = tok.loc;

    if (tok.kind == TokenKind::kIntLiteral) {
      expr->kind = ExprKind::kIntLiteral;
      expr->int_value = tok.int_value;
      expr->literal_unsigned = tok.is_unsigned;
      expr->literal_long = tok.is_long;
      Advance();
      return ExprPtr(std::move(expr));
    }
    if (tok.kind == TokenKind::kFloatLiteral) {
      expr->kind = ExprKind::kFloatLiteral;
      expr->float_value = tok.float_value;
      expr->literal_float32 = tok.is_float_suffix;
      Advance();
      return ExprPtr(std::move(expr));
    }
    if (tok.kind == TokenKind::kKeyword &&
        (tok.text == "true" || tok.text == "false")) {
      expr->kind = ExprKind::kBoolLiteral;
      expr->int_value = tok.text == "true" ? 1 : 0;
      Advance();
      return ExprPtr(std::move(expr));
    }
    if (tok.kind == TokenKind::kIdentifier) {
      std::string name = tok.text;
      Advance();
      if (Match(TokenKind::kLParen)) {
        expr->kind = ExprKind::kCall;
        expr->name = std::move(name);
        if (!At(TokenKind::kRParen)) {
          do {
            auto arg = Nested(&Parser::ParseAssignment);
            if (!arg.ok()) return arg;
            expr->children.push_back(*std::move(arg));
          } while (Match(TokenKind::kComma));
        }
        HAOCL_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        return Finish(std::move(expr));
      }
      expr->kind = ExprKind::kVarRef;
      expr->name = std::move(name);
      return ExprPtr(std::move(expr));
    }
    if (Match(TokenKind::kLParen)) {
      auto inner = Nested(&Parser::ParseExpression);
      if (!inner.ok()) return inner;
      HAOCL_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      return inner;
    }
    return Error(std::string("unexpected token ") + TokenKindName(tok.kind) +
                 (tok.text.empty() ? "" : " '" + tok.text + "'"));
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // Nesting levels open around the current token.
};

}  // namespace

Expected<std::unique_ptr<TranslationUnit>> Parse(std::string_view source) {
  auto tokens = Lex(source);
  if (!tokens.ok()) return tokens.status();
  Parser parser(*std::move(tokens));
  return parser.Run();
}

}  // namespace haocl::oclc
