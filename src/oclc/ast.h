// Abstract syntax tree for the OpenCL C subset. Nodes are owned through
// std::unique_ptr; the tree is immutable after parsing except for the type
// annotations sema fills in.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "oclc/token.h"
#include "oclc/type.h"

namespace haocl::oclc {

// ---------------------------------------------------------------- Expressions

enum class BinaryOp : std::uint8_t {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kLogicalAnd, kLogicalOr,
  kBitAnd, kBitOr, kBitXor, kShl, kShr,
};

enum class UnaryOp : std::uint8_t {
  kNeg, kLogicalNot, kBitNot, kPlus,
  kPreInc, kPreDec, kPostInc, kPostDec,
};

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

enum class ExprKind : std::uint8_t {
  kIntLiteral,
  kFloatLiteral,
  kBoolLiteral,
  kVarRef,
  kBinary,
  kUnary,
  kAssign,       // lhs op= rhs (op == nullopt encoded as kAdd + plain flag)
  kCall,
  kSubscript,    // base[index]
  kCast,
  kTernary,
};

struct Expr {
  ExprKind kind;
  SourceLocation loc;

  // Literals.
  std::uint64_t int_value = 0;
  double float_value = 0.0;
  bool literal_unsigned = false;
  bool literal_long = false;
  bool literal_float32 = false;

  // kVarRef / kCall.
  std::string name;

  // kBinary / kUnary / kAssign compound op.
  BinaryOp binary_op = BinaryOp::kAdd;
  UnaryOp unary_op = UnaryOp::kNeg;
  bool compound = false;  // kAssign: true for +=, -=, ...

  // Children: operands / call args / [base, index] / [cond, then, else].
  std::vector<ExprPtr> children;
  // Levels from this node down to its deepest leaf (1 for a leaf); the
  // parser bounds it (kMaxNestingDepth).
  int height = 1;

  // kCast target.
  Type cast_type;

  // Filled by sema.
  Type type;
  int symbol_slot = -1;        // kVarRef: resolved variable slot.
  int builtin_id = -1;         // kCall: builtin table index, or -1.
  int callee_index = -1;       // kCall: user function index, or -1.
};

// ----------------------------------------------------------------- Statements

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

enum class StmtKind : std::uint8_t {
  kExpr,
  kDecl,
  kBlock,
  kIf,
  kFor,
  kWhile,
  kDoWhile,
  kReturn,
  kBreak,
  kContinue,
  kEmpty,
};

// One declarator in a declaration statement.
struct Declarator {
  std::string name;
  ExprPtr init;                 // May be null.
  ExprPtr array_size;           // Non-null for array declarations.
  SourceLocation loc;
  // Filled by sema.
  int slot = -1;
  std::int64_t array_count = 0;
  int alloc_index = -1;         // Local/private array allocation id.
};

struct Stmt {
  StmtKind kind;
  SourceLocation loc;

  ExprPtr expr;                 // kExpr / kReturn value / conditions.
  std::vector<StmtPtr> body;    // kBlock children; kIf: [then, else?];
                                // kFor: [init?, body]; kWhile/kDoWhile: [body]
  ExprPtr cond;                 // kIf / kFor / kWhile / kDoWhile condition.
  ExprPtr step;                 // kFor increment.

  // kDecl.
  Type decl_type;               // Element type for arrays.
  AddressSpace decl_space = AddressSpace::kPrivate;
  std::vector<Declarator> declarators;
};

// ------------------------------------------------------------------ Functions

struct ParamDecl {
  std::string name;
  Type type;
  bool pointee_const = false;  // `const T*`: the kernel never writes it.
  SourceLocation loc;
  int slot = -1;  // Filled by sema.
};

struct FunctionDecl {
  std::string name;
  Type return_type;
  bool is_kernel = false;
  std::vector<ParamDecl> params;
  StmtPtr body;
  SourceLocation loc;

  // Filled by sema / codegen.
  int local_slot_count = 0;
  int index = -1;
  bool uses_barrier = false;
};

struct TranslationUnit {
  std::vector<std::unique_ptr<FunctionDecl>> functions;
};

}  // namespace haocl::oclc
