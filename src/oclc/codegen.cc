#include "oclc/codegen.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "oclc/builtins.h"

namespace haocl::oclc {
namespace {

// Per-function lowering context.
class FunctionGen {
 public:
  FunctionGen(const TranslationUnit& unit, const FunctionDecl& fn,
              Module& module)
      : unit_(unit), fn_(fn), module_(module) {}

  Status Run() {
    CompiledFunction out;
    out.name = fn_.name;
    out.is_kernel = fn_.is_kernel;
    out.return_type = fn_.return_type;
    out.entry_pc = static_cast<std::uint32_t>(module_.code.size());
    out.uses_barrier = fn_.uses_barrier;
    for (const ParamDecl& param : fn_.params) {
      out.params.push_back(
          KernelArgInfo{param.name, param.type, param.pointee_const});
    }
    next_slot_ = fn_.local_slot_count;

    AnalyzeLaneDep();
    CollectArrays(*fn_.body, out.arrays);
    HAOCL_RETURN_IF_ERROR(EmitStmt(*fn_.body));
    // Implicit return for void functions / fallthrough.
    Emit({Opcode::kReturn, ScalarType::kVoid, 0, 0});

    out.local_slots = static_cast<std::uint32_t>(next_slot_);
    out.max_stack_slots = ComputeMaxStack(out.entry_pc);
    module_.functions.push_back(std::move(out));
    return Status::Ok();
  }

 private:
  // ------------------------------------------------ Batchability analyses

  [[nodiscard]] static bool IsIncDec(const Expr& e) {
    return e.kind == ExprKind::kUnary &&
           (e.unary_op == UnaryOp::kPreInc || e.unary_op == UnaryOp::kPreDec ||
            e.unary_op == UnaryOp::kPostInc ||
            e.unary_op == UnaryOp::kPostDec);
  }

  // Lane dependence of local slots, computed to a fixpoint before
  // emission: a three-point lattice. kUniform = same value in every lane of
  // the group, kAffine = value is `base + stride * lane_id` for
  // group-uniform base/stride (get_global_id(0)/get_local_id(0) are the
  // generators; closed under +/- affine and * uniform), kVarying =
  // anything else. A slot is only as good as the worst value any write
  // stores to it. Conservative: memory loads, atomics and user calls are
  // varying.
  //
  // The lane-batch engine reads a kUniform branch condition from lane 0
  // alone (FlagIfUniform), and uses the affine hint to turn uniform-base
  // indexed loads into contiguous/strided vector loads with one
  // whole-chunk bounds precheck; it still verifies the actual lane stride
  // at dispatch time, so the analysis only has to be conservative about
  // *uniformity*, never about the exact stride (i32 wrap included).
  enum class LaneDep : std::uint8_t { kUniform = 0, kAffine = 1, kVarying = 2 };

  static LaneDep JoinLane(LaneDep a, LaneDep b) { return a > b ? a : b; }

  void AnalyzeLaneDep() {
    slot_lane_.assign(fn_.local_slot_count, LaneDep::kUniform);
    bool changed = true;
    while (changed) {
      changed = false;
      ScanStmtLane(*fn_.body, changed);
    }
  }

  [[nodiscard]] LaneDep SlotLane(int slot) const {
    if (slot < 0 || static_cast<std::size_t>(slot) >= slot_lane_.size()) {
      return LaneDep::kVarying;  // Scratch slots: addresses/memory values.
    }
    return slot_lane_[slot];
  }

  void DemoteLane(int slot, LaneDep to, bool& changed) {
    if (slot < 0 || static_cast<std::size_t>(slot) >= slot_lane_.size()) {
      return;
    }
    const LaneDep joined = JoinLane(slot_lane_[slot], to);
    if (joined != slot_lane_[slot]) {
      slot_lane_[slot] = joined;
      changed = true;
    }
  }

  [[nodiscard]] LaneDep BinaryLane(BinaryOp op, LaneDep a, LaneDep b) const {
    switch (op) {
      case BinaryOp::kAdd:
      case BinaryOp::kSub:
        // affine +/- affine stays affine (strides add).
        return JoinLane(a, b) <= LaneDep::kAffine ? JoinLane(a, b)
                                                  : LaneDep::kVarying;
      case BinaryOp::kMul:
        if (a == LaneDep::kUniform && b == LaneDep::kUniform) {
          return LaneDep::kUniform;
        }
        if ((a == LaneDep::kAffine && b == LaneDep::kUniform) ||
            (a == LaneDep::kUniform && b == LaneDep::kAffine)) {
          return LaneDep::kAffine;  // Stride scales by a uniform factor.
        }
        return LaneDep::kVarying;
      default:
        // Division, modulo, shifts, bit ops, compares, logicals: affine-ness
        // does not survive; only uniform-in/uniform-out holds.
        return (a == LaneDep::kUniform && b == LaneDep::kUniform)
                   ? LaneDep::kUniform
                   : LaneDep::kVarying;
    }
  }

  [[nodiscard]] LaneDep ExprLane(const Expr& e) const {
    switch (e.kind) {
      case ExprKind::kIntLiteral:
      case ExprKind::kFloatLiteral:
      case ExprKind::kBoolLiteral:
        return LaneDep::kUniform;
      case ExprKind::kVarRef:
        return e.symbol_slot < 0 ? LaneDep::kUniform : SlotLane(e.symbol_slot);
      case ExprKind::kBinary:
        return BinaryLane(e.binary_op, ExprLane(*e.children[0]),
                          ExprLane(*e.children[1]));
      case ExprKind::kUnary: {
        if (IsIncDec(e)) {
          const Expr& operand = *e.children[0];
          return operand.kind == ExprKind::kVarRef
                     ? SlotLane(operand.symbol_slot)
                     : LaneDep::kVarying;
        }
        const LaneDep operand = ExprLane(*e.children[0]);
        if (e.unary_op == UnaryOp::kPlus || e.unary_op == UnaryOp::kNeg) {
          return operand;  // Negation flips the stride's sign.
        }
        return operand == LaneDep::kUniform ? LaneDep::kUniform
                                            : LaneDep::kVarying;
      }
      case ExprKind::kAssign: {
        const LaneDep rhs = ExprLane(*e.children[1]);
        if (!e.compound) return rhs;
        const Expr& lhs = *e.children[0];
        if (lhs.kind != ExprKind::kVarRef) return LaneDep::kVarying;
        return BinaryLane(e.binary_op, SlotLane(lhs.symbol_slot), rhs);
      }
      case ExprKind::kCall: {
        if (e.builtin_id == -2) return LaneDep::kUniform;  // barrier(): void.
        if (e.builtin_id < 0) return LaneDep::kVarying;    // User calls.
        const auto id = static_cast<BuiltinId>(e.builtin_id);
        if (id == BuiltinId::kGetGlobalId || id == BuiltinId::kGetLocalId) {
          // Dimension 0 is the lane generator when lanes are linearized
          // dim-0-fastest (the engine re-checks the realized stride).
          const bool dim0 = e.children.size() == 1 &&
                            e.children[0]->kind == ExprKind::kIntLiteral &&
                            e.children[0]->int_value == 0;
          return dim0 ? LaneDep::kAffine : LaneDep::kVarying;
        }
        if (IsAtomicBuiltin(id)) return LaneDep::kVarying;
        for (const ExprPtr& arg : e.children) {
          if (ExprLane(*arg) != LaneDep::kUniform) return LaneDep::kVarying;
        }
        return LaneDep::kUniform;
      }
      case ExprKind::kSubscript:
        return LaneDep::kVarying;
      case ExprKind::kCast:
        // Conversions keep the hint: the engine's stride verification is
        // exact, so truncation cannot mislead it.
        return ExprLane(*e.children[0]);
      case ExprKind::kTernary: {
        const LaneDep all =
            JoinLane(ExprLane(*e.children[0]),
                     JoinLane(ExprLane(*e.children[1]),
                              ExprLane(*e.children[2])));
        return all == LaneDep::kUniform ? LaneDep::kUniform
                                        : LaneDep::kVarying;
      }
    }
    return LaneDep::kVarying;
  }

  void ScanExprLane(const Expr& e, bool& changed) {
    for (const ExprPtr& child : e.children) {
      if (child != nullptr) ScanExprLane(*child, changed);
    }
    if (e.kind == ExprKind::kAssign) {
      const Expr& lhs = *e.children[0];
      if (lhs.kind == ExprKind::kVarRef && lhs.symbol_slot >= 0) {
        DemoteLane(lhs.symbol_slot, ExprLane(e), changed);
      }
    }
    // ++/-- preserves the slot's lane dependence (old value +/- a literal).
  }

  void ScanStmtLane(const Stmt& stmt, bool& changed) {
    if (stmt.kind == StmtKind::kDecl) {
      for (const Declarator& decl : stmt.declarators) {
        if (decl.array_size != nullptr || decl.init == nullptr) continue;
        DemoteLane(decl.slot, ExprLane(*decl.init), changed);
      }
    }
    if (stmt.expr != nullptr) ScanExprLane(*stmt.expr, changed);
    if (stmt.cond != nullptr) ScanExprLane(*stmt.cond, changed);
    if (stmt.step != nullptr) ScanExprLane(*stmt.step, changed);
    for (const StmtPtr& child : stmt.body) {
      if (child != nullptr) ScanStmtLane(*child, changed);
    }
  }

  // Tags a just-emitted conditional jump whose condition is group-uniform.
  // Flags are a pure optimization: the engine scans every lane when a
  // branch is unflagged.
  void FlagIfUniform(std::size_t at, const Expr& cond) {
    if (ExprLane(cond) == LaneDep::kUniform) {
      module_.code[at].flags |= kInstrFlagUniformBranch;
    }
  }

  // kLoadLocal flags from the lane-dependence lattice, consumed by the
  // batch plan's indexed-load matcher.
  [[nodiscard]] std::uint8_t LoadLocalFlags(int slot) const {
    switch (SlotLane(slot)) {
      case LaneDep::kUniform:
        return kInstrFlagLaneAffine | kInstrFlagLaneUniform;
      case LaneDep::kAffine:
        return kInstrFlagLaneAffine;
      case LaneDep::kVarying:
        return 0;
    }
    return 0;
  }

  // An `if` without `else` whose body lowered to straight-line maskable
  // code re-converges exactly at the branch target: flag the branch so the
  // batch engine can run the body under a partial-lane mask instead of
  // bailing the whole group out. Any control transfer inside the body
  // (nested if/loop/break/continue, `&&`/`||`/`?:`, calls, barriers)
  // shows up as a non-maskable opcode and vetoes the flag.
  static constexpr std::size_t kMaxMaskedRegionLen = 64;
  void MaybeFlagMaskedRegion(std::size_t branch_at) {
    const std::size_t begin = branch_at + 1;
    const std::size_t end = module_.code.size();
    if (end <= begin || end - begin > kMaxMaskedRegionLen) return;
    for (std::size_t pc = begin; pc < end; ++pc) {
      if (!IsMaskableOp(module_.code[pc].op)) return;
    }
    module_.code[branch_at].flags |= kInstrFlagMaskedRegion;
  }

  // Exact peak operand-stack depth of this function's own frame, from a
  // worklist walk over the emitted bytecode's static stack effects. The
  // lane-batch engine pre-sizes its SoA stack from this; returns 0 (meaning
  // "unknown", batching disabled) if the walk finds an inconsistency.
  [[nodiscard]] std::uint32_t ComputeMaxStack(std::uint32_t entry) const {
    const auto& code = module_.code;
    const std::size_t n = code.size();
    if (entry >= n) return 0;
    std::vector<std::int32_t> height(n, -1);
    std::vector<std::uint32_t> work;
    height[entry] = 0;
    work.push_back(entry);
    std::int32_t peak = 0;
    bool ok = true;

    auto visit = [&](std::size_t pc, std::int32_t h) {
      if (pc >= n || h < 0) {
        ok = false;
        return;
      }
      if (height[pc] == -1) {
        height[pc] = h;
        work.push_back(static_cast<std::uint32_t>(pc));
      } else if (height[pc] != h) {
        ok = false;
      }
    };

    while (ok && !work.empty()) {
      const std::uint32_t pc = work.back();
      work.pop_back();
      const std::int32_t h = height[pc];
      const Instruction& in = code[pc];
      std::int32_t delta = 0;
      switch (in.op) {
        case Opcode::kPushConst:
        case Opcode::kLoadLocal:
        case Opcode::kDup:
          delta = 1;
          break;
        case Opcode::kStoreLocal:
        case Opcode::kPop:
        case Opcode::kPtrAdd:
        case Opcode::kAdd:
        case Opcode::kSub:
        case Opcode::kMul:
        case Opcode::kDiv:
        case Opcode::kMod:
        case Opcode::kBitAnd:
        case Opcode::kBitOr:
        case Opcode::kBitXor:
        case Opcode::kShl:
        case Opcode::kShr:
        case Opcode::kEq:
        case Opcode::kNe:
        case Opcode::kLt:
        case Opcode::kLe:
        case Opcode::kGt:
        case Opcode::kGe:
          delta = -1;
          break;
        case Opcode::kStoreMem:
          delta = -2;
          break;
        case Opcode::kCall: {
          const FunctionDecl& callee = *unit_.functions[in.a];
          delta = -in.b + (callee.return_type.IsVoid() ? 0 : 1);
          break;
        }
        case Opcode::kCallBuiltin:
          delta = -in.b + (in.type != ScalarType::kVoid ? 1 : 0);
          break;
        default:
          // kNop, kLoadMem, kNeg, kBitNot, kLogicalNot, kConvert, jumps,
          // kReturn, kBarrier: net zero (jumps handled below; kJumpIf* pops
          // its condition, see successor deltas).
          delta = 0;
          break;
      }
      if (in.op == Opcode::kJumpIfFalse || in.op == Opcode::kJumpIfTrue) {
        delta = -1;
      }
      const std::int32_t after = h + delta;
      if (after < 0) {
        ok = false;
        break;
      }
      peak = std::max(peak, std::max(h, after));
      switch (in.op) {
        case Opcode::kReturn:
          break;  // Terminal.
        case Opcode::kJump:
          visit(static_cast<std::size_t>(in.a), after);
          break;
        case Opcode::kJumpIfFalse:
        case Opcode::kJumpIfTrue:
          visit(static_cast<std::size_t>(in.a), after);
          visit(pc + 1, after);
          break;
        default:
          visit(pc + 1, after);
          break;
      }
    }
    if (!ok) return 0;
    // 0 must mean "unknown": a trivial frame that never pushes still
    // reports one slot so batching stays enabled.
    return static_cast<std::uint32_t>(std::max(peak, 1));
  }

  // ----------------------------------------------------------- Emit helpers

  std::size_t Emit(Instruction instr) {
    module_.code.push_back(instr);
    return module_.code.size() - 1;
  }

  std::int32_t AddLiteral(Value v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    auto [it, inserted] = literal_index_.try_emplace(
        bits, static_cast<std::int32_t>(module_.literals.size()));
    if (inserted) module_.literals.push_back(v);
    return it->second;
  }

  void PushInt(std::int64_t v) {
    Value value;
    value.i = v;
    Emit({Opcode::kPushConst, ScalarType::kI64, AddLiteral(value), 0});
  }
  void PushFloat(double v) {
    Value value;
    value.f = v;
    Emit({Opcode::kPushConst, ScalarType::kF64, AddLiteral(value), 0});
  }
  void PushPtr(std::uint64_t encoded) {
    Value value;
    value.u = encoded;
    Emit({Opcode::kPushConst, ScalarType::kU64, AddLiteral(value), 0});
  }

  // Emits a conversion when the types differ.
  void Convert(ScalarType from, ScalarType to) {
    if (from == to) return;
    Emit({Opcode::kConvert, from, static_cast<std::int32_t>(to), 0});
  }

  // Converts whatever numeric is on top of the stack to bool.
  void ToBool(const Type& type) {
    ScalarType t = type.is_pointer ? ScalarType::kU64 : type.scalar;
    Convert(t, ScalarType::kBool);
  }

  int AllocScratch() { return next_slot_++; }

  std::size_t EmitJump(Opcode op) { return Emit({op, ScalarType::kVoid, -1, 0}); }
  void PatchJump(std::size_t at) {
    module_.code[at].a = static_cast<std::int32_t>(module_.code.size());
  }
  void JumpTo(std::size_t target) {
    Emit({Opcode::kJump, ScalarType::kVoid, static_cast<std::int32_t>(target),
          0});
  }

  static Status ErrorAt(SourceLocation loc, const std::string& what) {
    return Status(ErrorCode::kBuildProgramFailure,
                  "codegen error at line " + std::to_string(loc.line) + ": " +
                      what);
  }

  // Region id for a body-declared array (see vm.cc for the table layout).
  [[nodiscard]] std::uint64_t ArrayRegion(int alloc_index) const {
    return fn_.params.size() + static_cast<std::uint64_t>(alloc_index);
  }

  // Collects body-declared arrays in alloc_index order.
  void CollectArrays(const Stmt& stmt, std::vector<ArrayAlloc>& out) {
    if (stmt.kind == StmtKind::kDecl) {
      for (const Declarator& decl : stmt.declarators) {
        if (decl.array_size == nullptr) continue;
        ArrayAlloc alloc;
        alloc.space = stmt.decl_space == AddressSpace::kLocal
                          ? AddressSpace::kLocal
                          : AddressSpace::kPrivate;
        alloc.element = stmt.decl_type.scalar;
        alloc.count = static_cast<std::uint64_t>(decl.array_count);
        if (static_cast<std::size_t>(decl.alloc_index) >= out.size()) {
          out.resize(decl.alloc_index + 1);
        }
        out[decl.alloc_index] = alloc;
      }
    }
    for (const StmtPtr& child : stmt.body) {
      if (child != nullptr) CollectArrays(*child, out);
    }
  }

  // ------------------------------------------------------------- Statements

  Status EmitStmt(const Stmt& stmt) {
    switch (stmt.kind) {
      case StmtKind::kEmpty:
        return Status::Ok();
      case StmtKind::kExpr: {
        HAOCL_RETURN_IF_ERROR(EmitExpr(*stmt.expr, /*want_value=*/false));
        return Status::Ok();
      }
      case StmtKind::kBlock:
        for (const StmtPtr& child : stmt.body) {
          HAOCL_RETURN_IF_ERROR(EmitStmt(*child));
        }
        return Status::Ok();
      case StmtKind::kDecl:
        for (const Declarator& decl : stmt.declarators) {
          if (decl.array_size != nullptr) continue;  // Allocation only.
          if (decl.init != nullptr) {
            HAOCL_RETURN_IF_ERROR(EmitExpr(*decl.init, true));
            if (!stmt.decl_type.is_pointer) {
              Convert(decl.init->type.is_pointer ? ScalarType::kU64
                                                 : decl.init->type.scalar,
                      stmt.decl_type.scalar);
            }
            Emit({Opcode::kStoreLocal, ScalarType::kVoid, decl.slot, 0});
          }
        }
        return Status::Ok();
      case StmtKind::kIf: {
        HAOCL_RETURN_IF_ERROR(EmitExpr(*stmt.cond, true));
        ToBool(stmt.cond->type);
        std::size_t to_else = EmitJump(Opcode::kJumpIfFalse);
        FlagIfUniform(to_else, *stmt.cond);
        HAOCL_RETURN_IF_ERROR(EmitStmt(*stmt.body[0]));
        if (stmt.body.size() > 1) {
          std::size_t to_end = EmitJump(Opcode::kJump);
          PatchJump(to_else);
          HAOCL_RETURN_IF_ERROR(EmitStmt(*stmt.body[1]));
          PatchJump(to_end);
        } else {
          PatchJump(to_else);
          MaybeFlagMaskedRegion(to_else);
        }
        return Status::Ok();
      }
      case StmtKind::kFor: {
        if (stmt.body[0] != nullptr) {
          HAOCL_RETURN_IF_ERROR(EmitStmt(*stmt.body[0]));
        }
        std::size_t cond_pc = module_.code.size();
        std::size_t to_end = 0;
        bool has_cond = stmt.cond != nullptr;
        if (has_cond) {
          HAOCL_RETURN_IF_ERROR(EmitExpr(*stmt.cond, true));
          ToBool(stmt.cond->type);
          to_end = EmitJump(Opcode::kJumpIfFalse);
          FlagIfUniform(to_end, *stmt.cond);
        }
        loops_.push_back({});
        HAOCL_RETURN_IF_ERROR(EmitStmt(*stmt.body[1]));
        // Continue lands on the step expression.
        std::size_t step_pc = module_.code.size();
        if (stmt.step != nullptr) {
          HAOCL_RETURN_IF_ERROR(EmitExpr(*stmt.step, false));
        }
        JumpTo(cond_pc);
        LoopContext loop = loops_.back();
        loops_.pop_back();
        if (has_cond) PatchJump(to_end);
        for (std::size_t at : loop.breaks) PatchJump(at);
        for (std::size_t at : loop.continues) {
          module_.code[at].a = static_cast<std::int32_t>(step_pc);
        }
        return Status::Ok();
      }
      case StmtKind::kWhile: {
        std::size_t cond_pc = module_.code.size();
        HAOCL_RETURN_IF_ERROR(EmitExpr(*stmt.cond, true));
        ToBool(stmt.cond->type);
        std::size_t to_end = EmitJump(Opcode::kJumpIfFalse);
        FlagIfUniform(to_end, *stmt.cond);
        loops_.push_back({});
        HAOCL_RETURN_IF_ERROR(EmitStmt(*stmt.body[0]));
        JumpTo(cond_pc);
        LoopContext loop = loops_.back();
        loops_.pop_back();
        PatchJump(to_end);
        for (std::size_t at : loop.breaks) PatchJump(at);
        for (std::size_t at : loop.continues) {
          module_.code[at].a = static_cast<std::int32_t>(cond_pc);
        }
        return Status::Ok();
      }
      case StmtKind::kDoWhile: {
        std::size_t body_pc = module_.code.size();
        loops_.push_back({});
        HAOCL_RETURN_IF_ERROR(EmitStmt(*stmt.body[0]));
        std::size_t cond_pc = module_.code.size();
        HAOCL_RETURN_IF_ERROR(EmitExpr(*stmt.cond, true));
        ToBool(stmt.cond->type);
        std::size_t back_jump = Emit({Opcode::kJumpIfTrue, ScalarType::kVoid,
                                      static_cast<std::int32_t>(body_pc), 0});
        FlagIfUniform(back_jump, *stmt.cond);
        LoopContext loop = loops_.back();
        loops_.pop_back();
        for (std::size_t at : loop.breaks) PatchJump(at);
        for (std::size_t at : loop.continues) {
          module_.code[at].a = static_cast<std::int32_t>(cond_pc);
        }
        return Status::Ok();
      }
      case StmtKind::kReturn:
        if (stmt.expr != nullptr) {
          HAOCL_RETURN_IF_ERROR(EmitExpr(*stmt.expr, true));
          if (!fn_.return_type.is_pointer) {
            Convert(stmt.expr->type.is_pointer ? ScalarType::kU64
                                               : stmt.expr->type.scalar,
                    fn_.return_type.scalar);
          }
          Emit({Opcode::kReturn, ScalarType::kVoid, 0, 1});
        } else {
          Emit({Opcode::kReturn, ScalarType::kVoid, 0, 0});
        }
        return Status::Ok();
      case StmtKind::kBreak:
        loops_.back().breaks.push_back(EmitJump(Opcode::kJump));
        return Status::Ok();
      case StmtKind::kContinue:
        loops_.back().continues.push_back(EmitJump(Opcode::kJump));
        return Status::Ok();
    }
    return Status(ErrorCode::kInternal, "unhandled stmt kind in codegen");
  }

  // ------------------------------------------------------------ Expressions

  // Emits `expr`; when want_value, exactly one value is left on the stack
  // (none for void calls — callers never request a void value).
  Status EmitExpr(const Expr& expr, bool want_value) {
    switch (expr.kind) {
      case ExprKind::kIntLiteral: {
        PushInt(static_cast<std::int64_t>(expr.int_value));
        // Literal already sits in the canonical i64 slot; reinterpret per
        // the literal's type (no-op for value purposes).
        if (!want_value) Emit({Opcode::kPop, ScalarType::kVoid, 0, 0});
        return Status::Ok();
      }
      case ExprKind::kFloatLiteral: {
        if (expr.type.scalar == ScalarType::kF32) {
          PushFloat(static_cast<double>(static_cast<float>(expr.float_value)));
        } else {
          PushFloat(expr.float_value);
        }
        if (!want_value) Emit({Opcode::kPop, ScalarType::kVoid, 0, 0});
        return Status::Ok();
      }
      case ExprKind::kBoolLiteral:
        PushInt(static_cast<std::int64_t>(expr.int_value));
        if (!want_value) Emit({Opcode::kPop, ScalarType::kVoid, 0, 0});
        return Status::Ok();
      case ExprKind::kVarRef:
        if (expr.symbol_slot >= 0) {
          Emit({Opcode::kLoadLocal, ScalarType::kVoid, expr.symbol_slot, 0,
                LoadLocalFlags(expr.symbol_slot)});
        } else {
          // Array decaying to a pointer: builtin_id carries the alloc index.
          const std::uint64_t region = ArrayRegion(expr.builtin_id);
          const PtrSpace space = expr.type.space == AddressSpace::kLocal
                                     ? PtrSpace::kLocal
                                     : PtrSpace::kPrivate;
          PushPtr(MakePointer(space, region, 0));
        }
        if (!want_value) Emit({Opcode::kPop, ScalarType::kVoid, 0, 0});
        return Status::Ok();
      case ExprKind::kBinary:
        HAOCL_RETURN_IF_ERROR(EmitBinary(expr));
        if (!want_value) Emit({Opcode::kPop, ScalarType::kVoid, 0, 0});
        return Status::Ok();
      case ExprKind::kUnary:
        return EmitUnary(expr, want_value);
      case ExprKind::kAssign:
        return EmitAssign(expr, want_value);
      case ExprKind::kCall:
        return EmitCall(expr, want_value);
      case ExprKind::kSubscript: {
        HAOCL_RETURN_IF_ERROR(EmitAddress(expr));
        Emit({Opcode::kLoadMem, expr.type.scalar, 0, 0});
        if (!want_value) Emit({Opcode::kPop, ScalarType::kVoid, 0, 0});
        return Status::Ok();
      }
      case ExprKind::kCast: {
        const Expr& operand = *expr.children[0];
        HAOCL_RETURN_IF_ERROR(EmitExpr(operand, true));
        if (!expr.type.is_pointer && !operand.type.is_pointer) {
          Convert(operand.type.scalar, expr.type.scalar);
        }
        if (!want_value) Emit({Opcode::kPop, ScalarType::kVoid, 0, 0});
        return Status::Ok();
      }
      case ExprKind::kTernary: {
        const Expr& cond = *expr.children[0];
        const Expr& then_expr = *expr.children[1];
        const Expr& else_expr = *expr.children[2];
        HAOCL_RETURN_IF_ERROR(EmitExpr(cond, true));
        ToBool(cond.type);
        std::size_t to_else = EmitJump(Opcode::kJumpIfFalse);
        FlagIfUniform(to_else, cond);
        HAOCL_RETURN_IF_ERROR(EmitExpr(then_expr, true));
        if (!expr.type.is_pointer) {
          Convert(then_expr.type.is_pointer ? ScalarType::kU64
                                            : then_expr.type.scalar,
                  expr.type.scalar);
        }
        std::size_t to_end = EmitJump(Opcode::kJump);
        PatchJump(to_else);
        HAOCL_RETURN_IF_ERROR(EmitExpr(else_expr, true));
        if (!expr.type.is_pointer) {
          Convert(else_expr.type.is_pointer ? ScalarType::kU64
                                            : else_expr.type.scalar,
                  expr.type.scalar);
        }
        PatchJump(to_end);
        if (!want_value) Emit({Opcode::kPop, ScalarType::kVoid, 0, 0});
        return Status::Ok();
      }
    }
    return Status(ErrorCode::kInternal, "unhandled expr kind in codegen");
  }

  // Pushes the address (encoded pointer) of `base[index]`.
  Status EmitAddress(const Expr& subscript) {
    const Expr& base = *subscript.children[0];
    const Expr& index = *subscript.children[1];
    HAOCL_RETURN_IF_ERROR(EmitExpr(base, true));
    HAOCL_RETURN_IF_ERROR(EmitExpr(index, true));
    Convert(index.type.scalar, ScalarType::kI64);
    Emit({Opcode::kPtrAdd, ScalarType::kVoid,
          static_cast<std::int32_t>(ScalarSize(base.type.scalar)), 0});
    return Status::Ok();
  }

  Status EmitBinary(const Expr& expr) {
    const Expr& lhs = *expr.children[0];
    const Expr& rhs = *expr.children[1];

    // Short-circuit logical operators.
    if (expr.binary_op == BinaryOp::kLogicalAnd ||
        expr.binary_op == BinaryOp::kLogicalOr) {
      const bool is_and = expr.binary_op == BinaryOp::kLogicalAnd;
      HAOCL_RETURN_IF_ERROR(EmitExpr(lhs, true));
      ToBool(lhs.type);
      std::size_t shortcut =
          EmitJump(is_and ? Opcode::kJumpIfFalse : Opcode::kJumpIfTrue);
      FlagIfUniform(shortcut, lhs);
      HAOCL_RETURN_IF_ERROR(EmitExpr(rhs, true));
      ToBool(rhs.type);
      std::size_t to_end = EmitJump(Opcode::kJump);
      PatchJump(shortcut);
      PushInt(is_and ? 0 : 1);
      PatchJump(to_end);
      return Status::Ok();
    }

    // Pointer arithmetic.
    if ((expr.binary_op == BinaryOp::kAdd || expr.binary_op == BinaryOp::kSub) &&
        expr.type.is_pointer) {
      const Expr* ptr = lhs.type.is_pointer ? &lhs : &rhs;
      const Expr* idx = lhs.type.is_pointer ? &rhs : &lhs;
      HAOCL_RETURN_IF_ERROR(EmitExpr(*ptr, true));
      HAOCL_RETURN_IF_ERROR(EmitExpr(*idx, true));
      Convert(idx->type.scalar, ScalarType::kI64);
      if (expr.binary_op == BinaryOp::kSub) {
        Emit({Opcode::kNeg, ScalarType::kI64, 0, 0});
      }
      Emit({Opcode::kPtrAdd, ScalarType::kVoid,
            static_cast<std::int32_t>(ScalarSize(ptr->type.scalar)), 0});
      return Status::Ok();
    }

    // Comparisons and plain arithmetic: convert both to the common type.
    const bool is_compare =
        expr.binary_op == BinaryOp::kEq || expr.binary_op == BinaryOp::kNe ||
        expr.binary_op == BinaryOp::kLt || expr.binary_op == BinaryOp::kLe ||
        expr.binary_op == BinaryOp::kGt || expr.binary_op == BinaryOp::kGe;

    ScalarType common;
    if (lhs.type.is_pointer || rhs.type.is_pointer) {
      common = ScalarType::kU64;  // Pointer comparison.
    } else if (expr.binary_op == BinaryOp::kShl ||
               expr.binary_op == BinaryOp::kShr) {
      common = expr.type.scalar;
    } else if (is_compare) {
      common = CommonArithmeticType(lhs.type.scalar, rhs.type.scalar);
    } else {
      common = expr.type.scalar;
    }

    HAOCL_RETURN_IF_ERROR(EmitExpr(lhs, true));
    if (!lhs.type.is_pointer) Convert(lhs.type.scalar, common);
    HAOCL_RETURN_IF_ERROR(EmitExpr(rhs, true));
    if (!rhs.type.is_pointer) Convert(rhs.type.scalar, common);

    Opcode op;
    switch (expr.binary_op) {
      case BinaryOp::kAdd: op = Opcode::kAdd; break;
      case BinaryOp::kSub: op = Opcode::kSub; break;
      case BinaryOp::kMul: op = Opcode::kMul; break;
      case BinaryOp::kDiv: op = Opcode::kDiv; break;
      case BinaryOp::kMod: op = Opcode::kMod; break;
      case BinaryOp::kBitAnd: op = Opcode::kBitAnd; break;
      case BinaryOp::kBitOr: op = Opcode::kBitOr; break;
      case BinaryOp::kBitXor: op = Opcode::kBitXor; break;
      case BinaryOp::kShl: op = Opcode::kShl; break;
      case BinaryOp::kShr: op = Opcode::kShr; break;
      case BinaryOp::kEq: op = Opcode::kEq; break;
      case BinaryOp::kNe: op = Opcode::kNe; break;
      case BinaryOp::kLt: op = Opcode::kLt; break;
      case BinaryOp::kLe: op = Opcode::kLe; break;
      case BinaryOp::kGt: op = Opcode::kGt; break;
      case BinaryOp::kGe: op = Opcode::kGe; break;
      default:
        return Status(ErrorCode::kInternal, "bad binary op");
    }
    Emit({op, common, 0, 0});
    return Status::Ok();
  }

  Status EmitUnary(const Expr& expr, bool want_value) {
    const Expr& operand = *expr.children[0];
    switch (expr.unary_op) {
      case UnaryOp::kPlus: {
        HAOCL_RETURN_IF_ERROR(EmitExpr(operand, true));
        Convert(operand.type.scalar, expr.type.scalar);
        if (!want_value) Emit({Opcode::kPop, ScalarType::kVoid, 0, 0});
        return Status::Ok();
      }
      case UnaryOp::kNeg:
        HAOCL_RETURN_IF_ERROR(EmitExpr(operand, true));
        Convert(operand.type.scalar, expr.type.scalar);
        Emit({Opcode::kNeg, expr.type.scalar, 0, 0});
        if (!want_value) Emit({Opcode::kPop, ScalarType::kVoid, 0, 0});
        return Status::Ok();
      case UnaryOp::kLogicalNot:
        HAOCL_RETURN_IF_ERROR(EmitExpr(operand, true));
        ToBool(operand.type);
        Emit({Opcode::kLogicalNot, ScalarType::kBool, 0, 0});
        if (!want_value) Emit({Opcode::kPop, ScalarType::kVoid, 0, 0});
        return Status::Ok();
      case UnaryOp::kBitNot:
        HAOCL_RETURN_IF_ERROR(EmitExpr(operand, true));
        Convert(operand.type.scalar, expr.type.scalar);
        Emit({Opcode::kBitNot, expr.type.scalar, 0, 0});
        if (!want_value) Emit({Opcode::kPop, ScalarType::kVoid, 0, 0});
        return Status::Ok();
      case UnaryOp::kPreInc:
      case UnaryOp::kPreDec:
      case UnaryOp::kPostInc:
      case UnaryOp::kPostDec:
        return EmitIncDec(expr, want_value);
    }
    return Status(ErrorCode::kInternal, "unhandled unary op in codegen");
  }

  Status EmitIncDec(const Expr& expr, bool want_value) {
    const Expr& operand = *expr.children[0];
    const bool is_inc = expr.unary_op == UnaryOp::kPreInc ||
                        expr.unary_op == UnaryOp::kPostInc;
    const bool is_post = expr.unary_op == UnaryOp::kPostInc ||
                         expr.unary_op == UnaryOp::kPostDec;

    // Emits "value +/- 1" for the value currently on top of the stack.
    auto apply_delta = [&](const Type& t) {
      if (t.is_pointer) {
        PushInt(is_inc ? 1 : -1);
        Emit({Opcode::kPtrAdd, ScalarType::kVoid,
              static_cast<std::int32_t>(ScalarSize(t.scalar)), 0});
      } else if (IsFloat(t.scalar)) {
        PushFloat(1.0);
        Convert(ScalarType::kF64, t.scalar);
        Emit({is_inc ? Opcode::kAdd : Opcode::kSub, t.scalar, 0, 0});
      } else {
        PushInt(1);
        Convert(ScalarType::kI64, t.scalar == ScalarType::kBool
                                      ? ScalarType::kI32
                                      : t.scalar);
        Emit({is_inc ? Opcode::kAdd : Opcode::kSub,
              t.scalar == ScalarType::kBool ? ScalarType::kI32 : t.scalar, 0,
              0});
      }
    };

    if (operand.kind == ExprKind::kVarRef && operand.symbol_slot >= 0) {
      Emit({Opcode::kLoadLocal, ScalarType::kVoid, operand.symbol_slot, 0});
      if (is_post && want_value) Emit({Opcode::kDup, ScalarType::kVoid, 0, 0});
      apply_delta(operand.type);
      if (!is_post && want_value) Emit({Opcode::kDup, ScalarType::kVoid, 0, 0});
      Emit({Opcode::kStoreLocal, ScalarType::kVoid, operand.symbol_slot, 0});
      return Status::Ok();
    }

    // Memory lvalue: go through scratch slots.
    if (operand.kind != ExprKind::kSubscript) {
      return ErrorAt(expr.loc, "++/-- needs a variable or array element");
    }
    const int addr_slot = AllocScratch();
    const int value_slot = AllocScratch();
    HAOCL_RETURN_IF_ERROR(EmitAddress(operand));
    Emit({Opcode::kStoreLocal, ScalarType::kVoid, addr_slot, 0});
    Emit({Opcode::kLoadLocal, ScalarType::kVoid, addr_slot, 0});
    Emit({Opcode::kLoadMem, operand.type.scalar, 0, 0});
    Emit({Opcode::kStoreLocal, ScalarType::kVoid, value_slot, 0});
    // Write back old +/- 1.
    Emit({Opcode::kLoadLocal, ScalarType::kVoid, addr_slot, 0});
    Emit({Opcode::kLoadLocal, ScalarType::kVoid, value_slot, 0});
    apply_delta(operand.type);
    if (!is_post) Emit({Opcode::kStoreLocal, ScalarType::kVoid, value_slot, 0});
    if (!is_post) Emit({Opcode::kLoadLocal, ScalarType::kVoid, value_slot, 0});
    Emit({Opcode::kStoreMem, operand.type.scalar, 0, 0});
    if (want_value) {
      Emit({Opcode::kLoadLocal, ScalarType::kVoid, value_slot, 0});
      if (!is_post) {
        // value_slot already holds the updated value (stored above).
      }
    }
    return Status::Ok();
  }

  Status EmitAssign(const Expr& expr, bool want_value) {
    const Expr& lhs = *expr.children[0];
    const Expr& rhs = *expr.children[1];

    // Scalar / pointer variable on the left.
    if (lhs.kind == ExprKind::kVarRef && lhs.symbol_slot >= 0) {
      if (expr.compound) {
        Emit({Opcode::kLoadLocal, ScalarType::kVoid, lhs.symbol_slot, 0});
        HAOCL_RETURN_IF_ERROR(EmitCompoundTop(expr, lhs, rhs));
      } else {
        HAOCL_RETURN_IF_ERROR(EmitExpr(rhs, true));
        if (!lhs.type.is_pointer) {
          Convert(rhs.type.is_pointer ? ScalarType::kU64 : rhs.type.scalar,
                  lhs.type.scalar);
        }
      }
      if (want_value) Emit({Opcode::kDup, ScalarType::kVoid, 0, 0});
      Emit({Opcode::kStoreLocal, ScalarType::kVoid, lhs.symbol_slot, 0});
      return Status::Ok();
    }

    if (lhs.kind != ExprKind::kSubscript) {
      return ErrorAt(expr.loc, "unsupported assignment target");
    }

    // Memory store: a[i] = v  or  a[i] op= v.
    HAOCL_RETURN_IF_ERROR(EmitAddress(lhs));
    if (expr.compound) {
      Emit({Opcode::kDup, ScalarType::kVoid, 0, 0});
      Emit({Opcode::kLoadMem, lhs.type.scalar, 0, 0});
      HAOCL_RETURN_IF_ERROR(EmitCompoundTop(expr, lhs, rhs));
    } else {
      HAOCL_RETURN_IF_ERROR(EmitExpr(rhs, true));
      Convert(rhs.type.is_pointer ? ScalarType::kU64 : rhs.type.scalar,
              lhs.type.scalar);
    }
    if (want_value) {
      const int value_slot = AllocScratch();
      Emit({Opcode::kStoreLocal, ScalarType::kVoid, value_slot, 0});
      Emit({Opcode::kLoadLocal, ScalarType::kVoid, value_slot, 0});
      Emit({Opcode::kStoreMem, lhs.type.scalar, 0, 0});
      Emit({Opcode::kLoadLocal, ScalarType::kVoid, value_slot, 0});
    } else {
      Emit({Opcode::kStoreMem, lhs.type.scalar, 0, 0});
    }
    return Status::Ok();
  }

  // With the current lhs VALUE on top of the stack, computes
  // `lhs_value op rhs` and leaves the result (converted back to the lhs
  // type) on the stack.
  Status EmitCompoundTop(const Expr& expr, const Expr& lhs, const Expr& rhs) {
    if (lhs.type.is_pointer) {
      HAOCL_RETURN_IF_ERROR(EmitExpr(rhs, true));
      Convert(rhs.type.scalar, ScalarType::kI64);
      if (expr.binary_op == BinaryOp::kSub) {
        Emit({Opcode::kNeg, ScalarType::kI64, 0, 0});
      }
      Emit({Opcode::kPtrAdd, ScalarType::kVoid,
            static_cast<std::int32_t>(ScalarSize(lhs.type.scalar)), 0});
      return Status::Ok();
    }
    const ScalarType common =
        CommonArithmeticType(lhs.type.scalar, rhs.type.scalar);
    Convert(lhs.type.scalar, common);
    HAOCL_RETURN_IF_ERROR(EmitExpr(rhs, true));
    Convert(rhs.type.scalar, common);
    Opcode op;
    switch (expr.binary_op) {
      case BinaryOp::kAdd: op = Opcode::kAdd; break;
      case BinaryOp::kSub: op = Opcode::kSub; break;
      case BinaryOp::kMul: op = Opcode::kMul; break;
      case BinaryOp::kDiv: op = Opcode::kDiv; break;
      case BinaryOp::kMod: op = Opcode::kMod; break;
      case BinaryOp::kBitAnd: op = Opcode::kBitAnd; break;
      case BinaryOp::kBitOr: op = Opcode::kBitOr; break;
      case BinaryOp::kBitXor: op = Opcode::kBitXor; break;
      case BinaryOp::kShl: op = Opcode::kShl; break;
      case BinaryOp::kShr: op = Opcode::kShr; break;
      default:
        return Status(ErrorCode::kInternal, "bad compound op");
    }
    Emit({op, common, 0, 0});
    Convert(common, lhs.type.scalar);
    return Status::Ok();
  }

  Status EmitCall(const Expr& expr, bool want_value) {
    // barrier().
    if (expr.builtin_id == -2) {
      Emit({Opcode::kBarrier, ScalarType::kVoid, 0, 0});
      return Status::Ok();
    }

    if (expr.builtin_id >= 0) {
      // Builtins: push args. Work-item and math builtins take converted
      // numeric args; atomics take a pointer + numeric operand(s).
      const auto id = static_cast<BuiltinId>(expr.builtin_id);
      for (const ExprPtr& arg : expr.children) {
        HAOCL_RETURN_IF_ERROR(EmitExpr(*arg, true));
        if (!arg->type.is_pointer) {
          // Math builtins compute in the result type; integer builtins in
          // their own type. The VM re-reads types from the instruction
          // stream, so convert numeric args to the builtin result type
          // except for atomics (operand matches pointee type).
          if (IsAtomicBuiltin(id)) {
            Convert(arg->type.scalar, expr.type.scalar);
          } else if (IsFloat(expr.type.scalar)) {
            Convert(arg->type.scalar, expr.type.scalar);
          } else if (IsWorkItemBuiltin(id)) {
            Convert(arg->type.scalar, ScalarType::kU32);
          } else {
            Convert(arg->type.scalar, expr.type.scalar);
          }
        }
      }
      Emit({Opcode::kCallBuiltin, expr.type.scalar, expr.builtin_id,
            static_cast<std::int32_t>(expr.children.size())});
      if (!want_value && !expr.type.IsVoid()) {
        Emit({Opcode::kPop, ScalarType::kVoid, 0, 0});
      }
      return Status::Ok();
    }

    // User function call: push args converted to parameter types.
    const FunctionDecl& callee = *unit_.functions[expr.callee_index];
    for (std::size_t i = 0; i < expr.children.size(); ++i) {
      const Expr& arg = *expr.children[i];
      HAOCL_RETURN_IF_ERROR(EmitExpr(arg, true));
      const Type& param_type = callee.params[i].type;
      if (!param_type.is_pointer && !arg.type.is_pointer) {
        Convert(arg.type.scalar, param_type.scalar);
      }
    }
    Emit({Opcode::kCall, ScalarType::kVoid, expr.callee_index,
          static_cast<std::int32_t>(expr.children.size())});
    if (!want_value && !callee.return_type.IsVoid()) {
      Emit({Opcode::kPop, ScalarType::kVoid, 0, 0});
    }
    return Status::Ok();
  }

  struct LoopContext {
    std::vector<std::size_t> breaks;
    std::vector<std::size_t> continues;
  };

  const TranslationUnit& unit_;
  const FunctionDecl& fn_;
  Module& module_;
  std::unordered_map<std::uint64_t, std::int32_t> literal_index_;
  std::vector<LoopContext> loops_;
  std::vector<LaneDep> slot_lane_;  // See AnalyzeLaneDep().
  int next_slot_ = 0;
};

}  // namespace

Expected<Module> Generate(const TranslationUnit& unit) {
  Module module;
  for (const auto& fn : unit.functions) {
    FunctionGen gen(unit, *fn, module);
    HAOCL_RETURN_IF_ERROR(gen.Run());
  }
  return module;
}

}  // namespace haocl::oclc
