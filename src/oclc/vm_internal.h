// Shared machinery between the two VM engines (vm.cc's per-work-item
// interpreter and vm_batch.cc's lane-batch engine): the canonical Value
// representation, arithmetic/compare/convert semantics, the per-item
// machine state, pointer resolution, and the builtin evaluators.
//
// Everything here defines the VM's observable semantics ONCE so the two
// engines cannot drift: the batched engine's bit-identity guarantee rests
// on both engines funnelling through these helpers. Internal header — not
// part of the oclc public API.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "oclc/builtins.h"
#include "oclc/bytecode.h"
#include "oclc/codegen.h"
#include "oclc/vm.h"

namespace haocl::oclc::vmdetail {

// ----------------------------------------------------------- Value plumbing

// Canonical slot representation: signed ints sign-extended into .i,
// unsigned zero-extended into .u, floats widened into .f (every float is
// exactly representable as double), bool as 0/1 in .i.

inline Value LoadScalar(const std::uint8_t* src, ScalarType t) {
  Value v;
  v.u = 0;
  switch (t) {
    case ScalarType::kBool: {
      std::uint8_t raw;
      std::memcpy(&raw, src, 1);
      v.i = raw != 0 ? 1 : 0;
      break;
    }
    case ScalarType::kI8: {
      std::int8_t raw;
      std::memcpy(&raw, src, 1);
      v.i = raw;
      break;
    }
    case ScalarType::kU8: {
      std::uint8_t raw;
      std::memcpy(&raw, src, 1);
      v.u = raw;
      break;
    }
    case ScalarType::kI16: {
      std::int16_t raw;
      std::memcpy(&raw, src, 2);
      v.i = raw;
      break;
    }
    case ScalarType::kU16: {
      std::uint16_t raw;
      std::memcpy(&raw, src, 2);
      v.u = raw;
      break;
    }
    case ScalarType::kI32: {
      std::int32_t raw;
      std::memcpy(&raw, src, 4);
      v.i = raw;
      break;
    }
    case ScalarType::kU32: {
      std::uint32_t raw;
      std::memcpy(&raw, src, 4);
      v.u = raw;
      break;
    }
    case ScalarType::kI64:
      std::memcpy(&v.i, src, 8);
      break;
    case ScalarType::kU64:
      std::memcpy(&v.u, src, 8);
      break;
    case ScalarType::kF32: {
      float raw;
      std::memcpy(&raw, src, 4);
      v.f = raw;
      break;
    }
    case ScalarType::kF64:
      std::memcpy(&v.f, src, 8);
      break;
    case ScalarType::kVoid:
      break;
  }
  return v;
}

inline void StoreScalar(std::uint8_t* dst, ScalarType t, Value v) {
  switch (t) {
    case ScalarType::kBool: {
      std::uint8_t raw = v.i != 0 ? 1 : 0;
      std::memcpy(dst, &raw, 1);
      break;
    }
    case ScalarType::kI8: {
      auto raw = static_cast<std::int8_t>(v.i);
      std::memcpy(dst, &raw, 1);
      break;
    }
    case ScalarType::kU8: {
      auto raw = static_cast<std::uint8_t>(v.u);
      std::memcpy(dst, &raw, 1);
      break;
    }
    case ScalarType::kI16: {
      auto raw = static_cast<std::int16_t>(v.i);
      std::memcpy(dst, &raw, 2);
      break;
    }
    case ScalarType::kU16: {
      auto raw = static_cast<std::uint16_t>(v.u);
      std::memcpy(dst, &raw, 2);
      break;
    }
    case ScalarType::kI32: {
      auto raw = static_cast<std::int32_t>(v.i);
      std::memcpy(dst, &raw, 4);
      break;
    }
    case ScalarType::kU32: {
      auto raw = static_cast<std::uint32_t>(v.u);
      std::memcpy(dst, &raw, 4);
      break;
    }
    case ScalarType::kI64:
      std::memcpy(dst, &v.i, 8);
      break;
    case ScalarType::kU64:
      std::memcpy(dst, &v.u, 8);
      break;
    case ScalarType::kF32: {
      auto raw = static_cast<float>(v.f);
      std::memcpy(dst, &raw, 4);
      break;
    }
    case ScalarType::kF64:
      std::memcpy(dst, &v.f, 8);
      break;
    case ScalarType::kVoid:
      break;
  }
}

// Value-preserving conversion between canonical representations.
inline Value ConvertValue(Value v, ScalarType from, ScalarType to) {
  if (from == to) return v;
  // Widen source to one of {i64, u64, f64}.
  double as_f = 0.0;
  std::int64_t as_i = 0;
  std::uint64_t as_u = 0;
  enum class Cat { kSigned, kUnsigned, kFloat } cat;
  if (IsFloat(from)) {
    as_f = v.f;
    cat = Cat::kFloat;
  } else if (IsUnsignedInt(from)) {
    as_u = v.u;
    cat = Cat::kUnsigned;
  } else {  // signed ints and bool
    as_i = v.i;
    cat = Cat::kSigned;
  }

  Value out;
  out.u = 0;
  auto to_signed = [&](std::int64_t x) {
    switch (to) {
      case ScalarType::kBool: out.i = x != 0; break;
      case ScalarType::kI8: out.i = static_cast<std::int8_t>(x); break;
      case ScalarType::kI16: out.i = static_cast<std::int16_t>(x); break;
      case ScalarType::kI32: out.i = static_cast<std::int32_t>(x); break;
      default: out.i = x; break;
    }
  };
  auto to_unsigned = [&](std::uint64_t x) {
    switch (to) {
      case ScalarType::kBool: out.i = x != 0; break;
      case ScalarType::kU8: out.u = static_cast<std::uint8_t>(x); break;
      case ScalarType::kU16: out.u = static_cast<std::uint16_t>(x); break;
      case ScalarType::kU32: out.u = static_cast<std::uint32_t>(x); break;
      default: out.u = x; break;
    }
  };

  switch (to) {
    case ScalarType::kF32: {
      double wide = cat == Cat::kFloat  ? as_f
                    : cat == Cat::kSigned ? static_cast<double>(as_i)
                                          : static_cast<double>(as_u);
      out.f = static_cast<float>(wide);
      return out;
    }
    case ScalarType::kF64: {
      out.f = cat == Cat::kFloat  ? as_f
              : cat == Cat::kSigned ? static_cast<double>(as_i)
                                    : static_cast<double>(as_u);
      return out;
    }
    case ScalarType::kBool:
      out.i = cat == Cat::kFloat ? (as_f != 0.0)
              : cat == Cat::kSigned ? (as_i != 0)
                                    : (as_u != 0);
      return out;
    default:
      break;
  }
  // Integer target.
  std::int64_t wide_i;
  if (cat == Cat::kFloat) {
    wide_i = static_cast<std::int64_t>(as_f);
  } else if (cat == Cat::kUnsigned) {
    wide_i = static_cast<std::int64_t>(as_u);
  } else {
    wide_i = as_i;
  }
  if (IsSignedInt(to)) {
    to_signed(wide_i);
  } else {
    to_unsigned(static_cast<std::uint64_t>(wide_i));
  }
  return out;
}

// --------------------------------------------------------------- Arithmetic

inline Status TrapDivZero() {
  return Status(ErrorCode::kInvalidKernelArgs, "division by zero in kernel");
}

// Executes binary arithmetic/bitwise in the canonical representation with
// C-style wrapping (no UB on overflow).
inline Status EvalBinary(Opcode op, ScalarType t, Value a, Value b,
                         Value* out) {
  out->u = 0;
  if (t == ScalarType::kF32) {
    const float x = static_cast<float>(a.f);
    const float y = static_cast<float>(b.f);
    float r = 0.0f;
    switch (op) {
      case Opcode::kAdd: r = x + y; break;
      case Opcode::kSub: r = x - y; break;
      case Opcode::kMul: r = x * y; break;
      case Opcode::kDiv: r = x / y; break;
      default:
        return Status(ErrorCode::kInternal, "bad f32 op");
    }
    out->f = r;
    return Status::Ok();
  }
  if (t == ScalarType::kF64) {
    switch (op) {
      case Opcode::kAdd: out->f = a.f + b.f; break;
      case Opcode::kSub: out->f = a.f - b.f; break;
      case Opcode::kMul: out->f = a.f * b.f; break;
      case Opcode::kDiv: out->f = a.f / b.f; break;
      default:
        return Status(ErrorCode::kInternal, "bad f64 op");
    }
    return Status::Ok();
  }

  const bool is_unsigned = IsUnsignedInt(t);
  const bool is_64 = ScalarSize(t) == 8;
  if (is_unsigned) {
    std::uint64_t x = a.u;
    std::uint64_t y = b.u;
    if (!is_64) {
      x = static_cast<std::uint32_t>(x);
      y = static_cast<std::uint32_t>(y);
    }
    std::uint64_t r = 0;
    switch (op) {
      case Opcode::kAdd: r = x + y; break;
      case Opcode::kSub: r = x - y; break;
      case Opcode::kMul: r = x * y; break;
      case Opcode::kDiv:
        if (y == 0) return TrapDivZero();
        r = x / y;
        break;
      case Opcode::kMod:
        if (y == 0) return TrapDivZero();
        r = x % y;
        break;
      case Opcode::kBitAnd: r = x & y; break;
      case Opcode::kBitOr: r = x | y; break;
      case Opcode::kBitXor: r = x ^ y; break;
      case Opcode::kShl: r = x << (y & (is_64 ? 63 : 31)); break;
      case Opcode::kShr: r = x >> (y & (is_64 ? 63 : 31)); break;
      default:
        return Status(ErrorCode::kInternal, "bad uint op");
    }
    out->u = is_64 ? r : static_cast<std::uint32_t>(r);
    return Status::Ok();
  }

  // Signed (and bool, promoted upstream): compute in unsigned to get
  // well-defined wrapping, then sign-extend.
  std::int64_t x = a.i;
  std::int64_t y = b.i;
  if (!is_64) {
    x = static_cast<std::int32_t>(x);
    y = static_cast<std::int32_t>(y);
  }
  std::int64_t r = 0;
  switch (op) {
    case Opcode::kAdd:
      r = static_cast<std::int64_t>(static_cast<std::uint64_t>(x) +
                                    static_cast<std::uint64_t>(y));
      break;
    case Opcode::kSub:
      r = static_cast<std::int64_t>(static_cast<std::uint64_t>(x) -
                                    static_cast<std::uint64_t>(y));
      break;
    case Opcode::kMul:
      r = static_cast<std::int64_t>(static_cast<std::uint64_t>(x) *
                                    static_cast<std::uint64_t>(y));
      break;
    case Opcode::kDiv:
      if (y == 0) return TrapDivZero();
      if (y == -1 && x == INT64_MIN) return TrapDivZero();  // Overflow trap.
      r = x / y;
      break;
    case Opcode::kMod:
      if (y == 0) return TrapDivZero();
      if (y == -1) {
        r = 0;
      } else {
        r = x % y;
      }
      break;
    case Opcode::kBitAnd: r = x & y; break;
    case Opcode::kBitOr: r = x | y; break;
    case Opcode::kBitXor: r = x ^ y; break;
    case Opcode::kShl:
      r = static_cast<std::int64_t>(static_cast<std::uint64_t>(x)
                                    << (y & (is_64 ? 63 : 31)));
      break;
    case Opcode::kShr: r = x >> (y & (is_64 ? 63 : 31)); break;
    default:
      return Status(ErrorCode::kInternal, "bad int op");
  }
  out->i = is_64 ? r : static_cast<std::int32_t>(r);
  return Status::Ok();
}

inline bool EvalCompare(Opcode op, ScalarType t, Value a, Value b) {
  auto cmp = [&](auto x, auto y) {
    switch (op) {
      case Opcode::kEq: return x == y;
      case Opcode::kNe: return x != y;
      case Opcode::kLt: return x < y;
      case Opcode::kLe: return x <= y;
      case Opcode::kGt: return x > y;
      case Opcode::kGe: return x >= y;
      default: return false;
    }
  };
  if (t == ScalarType::kF32) {
    return cmp(static_cast<float>(a.f), static_cast<float>(b.f));
  }
  if (t == ScalarType::kF64) return cmp(a.f, b.f);
  if (IsUnsignedInt(t)) {
    if (ScalarSize(t) == 8) return cmp(a.u, b.u);
    return cmp(static_cast<std::uint32_t>(a.u),
               static_cast<std::uint32_t>(b.u));
  }
  if (ScalarSize(t) == 8) return cmp(a.i, b.i);
  return cmp(static_cast<std::int32_t>(a.i), static_cast<std::int32_t>(b.i));
}

// ------------------------------------------------------------- Machine state

struct Frame {
  std::uint32_t return_pc;
  std::uint32_t prev_base;
};

struct ItemState {
  std::uint32_t pc = 0;
  std::uint32_t base = 0;  // Current frame's locals base.
  std::vector<Value> stack;
  std::vector<Value> locals;
  std::vector<Frame> frames;
  std::vector<std::vector<std::uint8_t>> private_mem;  // By region id.
  std::uint64_t global_id[3] = {0, 0, 0};
  std::uint64_t local_id[3] = {0, 0, 0};
  std::uint64_t budget = 0;
  bool done = false;
};

struct GroupContext {
  const Module& module;
  const CompiledFunction& kernel;
  const std::vector<ArgBinding>& args;
  const NDRange& range;
  const LaunchOptions& options;
  std::uint64_t group_id[3] = {0, 0, 0};
  std::uint64_t num_groups[3] = {1, 1, 1};
  std::vector<std::vector<std::uint8_t>>* local_mem = nullptr;  // By region.
};

inline Status Trap(const GroupContext& grp, std::uint32_t pc,
                   const std::string& what) {
  return Status(ErrorCode::kInvalidKernelArgs,
                "kernel '" + grp.kernel.name + "' trap at pc " +
                    std::to_string(pc) + ": " + what);
}

inline Status OobError(const GroupContext& grp, const char* space,
                       std::uint64_t offset, std::uint64_t bytes,
                       std::uint64_t size) {
  return Status(ErrorCode::kInvalidKernelArgs,
                "kernel '" + grp.kernel.name + "': out-of-bounds " +
                    std::string(space) + " access: offset " +
                    std::to_string(offset) + " + " + std::to_string(bytes) +
                    " > size " + std::to_string(size));
}

// Resolves an encoded pointer to raw memory, bounds-checked.
inline Expected<std::uint8_t*> ResolvePtr(std::uint64_t ptr,
                                          std::uint64_t bytes, ItemState& st,
                                          GroupContext& grp) {
  const std::uint64_t region = PointerRegion(ptr);
  const std::uint64_t offset = PointerOffset(ptr);
  switch (PointerSpace(ptr)) {
    case PtrSpace::kGlobal: {
      if (region >= grp.args.size() ||
          grp.args[region].kind != ArgBinding::Kind::kBuffer) {
        return Status(ErrorCode::kInvalidKernelArgs,
                      "dangling global pointer (region " +
                          std::to_string(region) + ")");
      }
      const ArgBinding& binding = grp.args[region];
      if (offset + bytes > binding.size) {
        return OobError(grp, "global", offset, bytes, binding.size);
      }
      return binding.data + offset;
    }
    case PtrSpace::kLocal: {
      auto& mem = *grp.local_mem;
      if (region >= mem.size()) {
        return Status(ErrorCode::kInvalidKernelArgs, "bad local region");
      }
      if (offset + bytes > mem[region].size()) {
        return OobError(grp, "local", offset, bytes, mem[region].size());
      }
      return mem[region].data() + offset;
    }
    case PtrSpace::kPrivate: {
      if (region >= st.private_mem.size()) {
        return Status(ErrorCode::kInvalidKernelArgs, "bad private region");
      }
      if (offset + bytes > st.private_mem[region].size()) {
        return OobError(grp, "private", offset, bytes,
                        st.private_mem[region].size());
      }
      return st.private_mem[region].data() + offset;
    }
  }
  return Status(ErrorCode::kInternal, "bad pointer space");
}

// ----------------------------------------------------------------- Builtins

inline double MathUnary(BuiltinId id, double x) {
  switch (id) {
    case BuiltinId::kSqrt:
    case BuiltinId::kNativeSqrt: return std::sqrt(x);
    case BuiltinId::kRsqrt: return 1.0 / std::sqrt(x);
    case BuiltinId::kFabs: return std::fabs(x);
    case BuiltinId::kExp:
    case BuiltinId::kNativeExp: return std::exp(x);
    case BuiltinId::kLog:
    case BuiltinId::kNativeLog: return std::log(x);
    case BuiltinId::kLog2: return std::log2(x);
    case BuiltinId::kSin: return std::sin(x);
    case BuiltinId::kCos: return std::cos(x);
    case BuiltinId::kTan: return std::tan(x);
    case BuiltinId::kFloor: return std::floor(x);
    case BuiltinId::kCeil: return std::ceil(x);
    default: return 0.0;
  }
}

inline float MathUnaryF(BuiltinId id, float x) {
  switch (id) {
    case BuiltinId::kSqrt:
    case BuiltinId::kNativeSqrt: return std::sqrt(x);
    case BuiltinId::kRsqrt: return 1.0f / std::sqrt(x);
    case BuiltinId::kFabs: return std::fabs(x);
    case BuiltinId::kExp:
    case BuiltinId::kNativeExp: return std::exp(x);
    case BuiltinId::kLog:
    case BuiltinId::kNativeLog: return std::log(x);
    case BuiltinId::kLog2: return std::log2(x);
    case BuiltinId::kSin: return std::sin(x);
    case BuiltinId::kCos: return std::cos(x);
    case BuiltinId::kTan: return std::tan(x);
    case BuiltinId::kFloor: return std::floor(x);
    case BuiltinId::kCeil: return std::ceil(x);
    default: return 0.0f;
  }
}

// Atomics on already-resolved memory (the caller bounds-checks the 4-byte
// access for its own address space). Shared by both engines so the RMW
// sequences are identical.
inline Value EvalAtomicAt(BuiltinId id, ScalarType t, std::uint8_t* mem,
                          const Value* args, int argc) {
  Value old;
  old.u = 0;
  // i32/u32 share representation for the atomic RMW itself; the sign only
  // matters for min/max.
  auto* p = reinterpret_cast<std::int32_t*>(mem);
  auto* pu = reinterpret_cast<std::uint32_t*>(mem);
  const auto vi = static_cast<std::int32_t>(args[argc > 1 ? 1 : 0].i);
  const auto vu = static_cast<std::uint32_t>(args[argc > 1 ? 1 : 0].u);
  const bool is_signed = t == ScalarType::kI32;
  switch (id) {
    case BuiltinId::kAtomicAdd:
      old.i = __atomic_fetch_add(p, vi, __ATOMIC_RELAXED);
      break;
    case BuiltinId::kAtomicSub:
      old.i = __atomic_fetch_sub(p, vi, __ATOMIC_RELAXED);
      break;
    case BuiltinId::kAtomicInc:
      old.i = __atomic_fetch_add(p, 1, __ATOMIC_RELAXED);
      break;
    case BuiltinId::kAtomicDec:
      old.i = __atomic_fetch_sub(p, 1, __ATOMIC_RELAXED);
      break;
    case BuiltinId::kAtomicOr:
      old.i = __atomic_fetch_or(p, vi, __ATOMIC_RELAXED);
      break;
    case BuiltinId::kAtomicAnd:
      old.i = __atomic_fetch_and(p, vi, __ATOMIC_RELAXED);
      break;
    case BuiltinId::kAtomicXchg:
      old.i = __atomic_exchange_n(p, vi, __ATOMIC_RELAXED);
      break;
    case BuiltinId::kAtomicMin: {
      if (is_signed) {
        std::int32_t cur = __atomic_load_n(p, __ATOMIC_RELAXED);
        while (vi < cur && !__atomic_compare_exchange_n(
                               p, &cur, vi, true, __ATOMIC_RELAXED,
                               __ATOMIC_RELAXED)) {
        }
        old.i = cur;
      } else {
        std::uint32_t cur = __atomic_load_n(pu, __ATOMIC_RELAXED);
        while (vu < cur && !__atomic_compare_exchange_n(
                               pu, &cur, vu, true, __ATOMIC_RELAXED,
                               __ATOMIC_RELAXED)) {
        }
        old.u = cur;
      }
      break;
    }
    case BuiltinId::kAtomicMax: {
      if (is_signed) {
        std::int32_t cur = __atomic_load_n(p, __ATOMIC_RELAXED);
        while (vi > cur && !__atomic_compare_exchange_n(
                               p, &cur, vi, true, __ATOMIC_RELAXED,
                               __ATOMIC_RELAXED)) {
        }
        old.i = cur;
      } else {
        std::uint32_t cur = __atomic_load_n(pu, __ATOMIC_RELAXED);
        while (vu > cur && !__atomic_compare_exchange_n(
                               pu, &cur, vu, true, __ATOMIC_RELAXED,
                               __ATOMIC_RELAXED)) {
        }
        old.u = cur;
      }
      break;
    }
    case BuiltinId::kAtomicCmpxchg: {
      std::int32_t expected = static_cast<std::int32_t>(args[1].i);
      const std::int32_t desired = static_cast<std::int32_t>(args[2].i);
      __atomic_compare_exchange_n(p, &expected, desired, false,
                                  __ATOMIC_RELAXED, __ATOMIC_RELAXED);
      old.i = expected;
      break;
    }
    default:
      break;  // Unreachable: callers gate on IsAtomicBuiltin.
  }
  // Canonicalize sign extension.
  if (is_signed) {
    old.i = static_cast<std::int32_t>(old.i);
  } else {
    old.u = static_cast<std::uint32_t>(old.u);
  }
  return old;
}

// Work-item queries against explicit id arrays (so the batch engine can
// pass a lane's ids without an ItemState).
inline Value EvalWorkItemBuiltin(BuiltinId id, const std::uint64_t* global_id,
                                 const std::uint64_t* local_id,
                                 const GroupContext& grp, const Value* args) {
  Value out;
  out.u = 0;
  if (id == BuiltinId::kGetWorkDim) {
    out.u = grp.range.work_dim;
    return out;
  }
  const auto dim = static_cast<std::uint32_t>(args[0].u);
  if (dim >= 3) {
    out.u = id == BuiltinId::kGetGlobalSize || id == BuiltinId::kGetLocalSize ||
                    id == BuiltinId::kGetNumGroups
                ? 1
                : 0;
    return out;
  }
  switch (id) {
    case BuiltinId::kGetGlobalId: out.u = global_id[dim]; break;
    case BuiltinId::kGetLocalId: out.u = local_id[dim]; break;
    case BuiltinId::kGetGroupId: out.u = grp.group_id[dim]; break;
    case BuiltinId::kGetGlobalSize: out.u = grp.range.global[dim]; break;
    case BuiltinId::kGetLocalSize: out.u = grp.range.local[dim]; break;
    case BuiltinId::kGetNumGroups: out.u = grp.num_groups[dim]; break;
    case BuiltinId::kGetGlobalOffset: out.u = grp.range.offset[dim]; break;
    default: break;
  }
  return out;
}

// Math / min-max / clamp builtins: pure functions of their arguments.
inline Value EvalPureBuiltin(BuiltinId id, ScalarType result,
                             const Value* args) {
  Value out;
  out.u = 0;
  switch (id) {
    case BuiltinId::kMin:
    case BuiltinId::kMax: {
      const bool want_max = id == BuiltinId::kMax;
      if (result == ScalarType::kF32) {
        float x = static_cast<float>(args[0].f);
        float y = static_cast<float>(args[1].f);
        out.f = want_max ? std::fmax(x, y) : std::fmin(x, y);
      } else if (result == ScalarType::kF64) {
        out.f = want_max ? std::fmax(args[0].f, args[1].f)
                         : std::fmin(args[0].f, args[1].f);
      } else if (IsUnsignedInt(result)) {
        out.u = want_max ? std::max(args[0].u, args[1].u)
                         : std::min(args[0].u, args[1].u);
      } else {
        out.i = want_max ? std::max(args[0].i, args[1].i)
                         : std::min(args[0].i, args[1].i);
      }
      return out;
    }
    case BuiltinId::kAbs:
      if (result == ScalarType::kF32 || result == ScalarType::kF64) {
        out.f = std::fabs(args[0].f);
      } else if (IsUnsignedInt(result)) {
        out.u = args[0].u;
      } else {
        out.i = args[0].i < 0 ? -args[0].i : args[0].i;
      }
      return out;
    case BuiltinId::kClamp:
      if (result == ScalarType::kF32) {
        float x = static_cast<float>(args[0].f);
        float lo = static_cast<float>(args[1].f);
        float hi = static_cast<float>(args[2].f);
        out.f = std::fmin(std::fmax(x, lo), hi);
      } else if (result == ScalarType::kF64) {
        out.f = std::fmin(std::fmax(args[0].f, args[1].f), args[2].f);
      } else if (IsUnsignedInt(result)) {
        out.u = std::min(std::max(args[0].u, args[1].u), args[2].u);
      } else {
        out.i = std::min(std::max(args[0].i, args[1].i), args[2].i);
      }
      return out;
    case BuiltinId::kPow:
      out.f = result == ScalarType::kF32
                  ? static_cast<double>(std::pow(static_cast<float>(args[0].f),
                                                 static_cast<float>(args[1].f)))
                  : std::pow(args[0].f, args[1].f);
      return out;
    case BuiltinId::kFmod:
      out.f = result == ScalarType::kF32
                  ? static_cast<double>(std::fmod(
                        static_cast<float>(args[0].f),
                        static_cast<float>(args[1].f)))
                  : std::fmod(args[0].f, args[1].f);
      return out;
    case BuiltinId::kFmin:
      out.f = result == ScalarType::kF32
                  ? static_cast<double>(std::fmin(
                        static_cast<float>(args[0].f),
                        static_cast<float>(args[1].f)))
                  : std::fmin(args[0].f, args[1].f);
      return out;
    case BuiltinId::kFmax:
      out.f = result == ScalarType::kF32
                  ? static_cast<double>(std::fmax(
                        static_cast<float>(args[0].f),
                        static_cast<float>(args[1].f)))
                  : std::fmax(args[0].f, args[1].f);
      return out;
    case BuiltinId::kMad:
    case BuiltinId::kFma:
      if (result == ScalarType::kF32) {
        out.f = std::fma(static_cast<float>(args[0].f),
                         static_cast<float>(args[1].f),
                         static_cast<float>(args[2].f));
      } else {
        out.f = std::fma(args[0].f, args[1].f, args[2].f);
      }
      return out;
    default:
      break;
  }
  // Remaining unary math.
  if (result == ScalarType::kF32) {
    out.f = MathUnaryF(id, static_cast<float>(args[0].f));
  } else {
    out.f = MathUnary(id, args[0].f);
  }
  return out;
}

inline Expected<Value> EvalBuiltinCall(BuiltinId id, ScalarType result,
                                       Value* args, int argc, ItemState& st,
                                       GroupContext& grp) {
  if (IsWorkItemBuiltin(id)) {
    return EvalWorkItemBuiltin(id, st.global_id, st.local_id, grp, args);
  }
  if (IsAtomicBuiltin(id)) {
    auto mem = ResolvePtr(args[0].u, 4, st, grp);
    if (!mem.ok()) return mem.status();
    return EvalAtomicAt(id, result, *mem, args, argc);
  }
  return EvalPureBuiltin(id, result, args);
}

// ------------------------------------------------------------ Item execution

enum class RunResult { kDone, kBarrier };

inline Expected<RunResult> RunItem(ItemState& st, GroupContext& grp) {
  const auto& code = grp.module.code;
  const auto& literals = grp.module.literals;
  auto& stack = st.stack;

  auto pop = [&stack]() {
    Value v = stack.back();
    stack.pop_back();
    return v;
  };

  while (true) {
    if (st.budget == 0) {
      return Trap(grp, st.pc, "instruction budget exhausted (infinite loop?)");
    }
    --st.budget;
    if (st.pc >= code.size()) return Trap(grp, st.pc, "pc out of range");
    const Instruction& instr = code[st.pc++];

    switch (instr.op) {
      case Opcode::kNop:
        break;
      case Opcode::kPushConst:
        stack.push_back(literals[instr.a]);
        break;
      case Opcode::kLoadLocal:
        stack.push_back(st.locals[st.base + instr.a]);
        break;
      case Opcode::kStoreLocal:
        st.locals[st.base + instr.a] = pop();
        break;
      case Opcode::kDup:
        stack.push_back(stack.back());
        break;
      case Opcode::kPop:
        stack.pop_back();
        break;
      case Opcode::kLoadMem: {
        const Value addr = pop();
        auto mem = ResolvePtr(addr.u, ScalarSize(instr.type), st, grp);
        if (!mem.ok()) return mem.status();
        stack.push_back(LoadScalar(*mem, instr.type));
        break;
      }
      case Opcode::kStoreMem: {
        const Value value = pop();
        const Value addr = pop();
        auto mem = ResolvePtr(addr.u, ScalarSize(instr.type), st, grp);
        if (!mem.ok()) return mem.status();
        StoreScalar(*mem, instr.type, value);
        break;
      }
      case Opcode::kPtrAdd: {
        const Value index = pop();
        Value ptr = pop();
        const std::uint64_t offset =
            PointerOffset(ptr.u) +
            static_cast<std::uint64_t>(index.i) *
                static_cast<std::uint64_t>(instr.a);
        ptr.u = (ptr.u & ~kPtrOffsetMask) | (offset & kPtrOffsetMask);
        stack.push_back(ptr);
        break;
      }
      case Opcode::kAdd:
      case Opcode::kSub:
      case Opcode::kMul:
      case Opcode::kDiv:
      case Opcode::kMod:
      case Opcode::kBitAnd:
      case Opcode::kBitOr:
      case Opcode::kBitXor:
      case Opcode::kShl:
      case Opcode::kShr: {
        const Value rhs = pop();
        const Value lhs = pop();
        Value out;
        Status s = EvalBinary(instr.op, instr.type, lhs, rhs, &out);
        if (!s.ok()) return s;
        stack.push_back(out);
        break;
      }
      case Opcode::kNeg: {
        Value v = pop();
        if (IsFloat(instr.type)) {
          v.f = instr.type == ScalarType::kF32
                    ? -static_cast<float>(v.f)
                    : -v.f;
        } else if (IsUnsignedInt(instr.type)) {
          v.u = ScalarSize(instr.type) == 8
                    ? 0 - v.u
                    : static_cast<std::uint32_t>(0 - v.u);
        } else {
          v.i = ScalarSize(instr.type) == 8
                    ? -v.i
                    : static_cast<std::int32_t>(-v.i);
        }
        stack.push_back(v);
        break;
      }
      case Opcode::kBitNot: {
        Value v = pop();
        if (IsUnsignedInt(instr.type)) {
          v.u = ScalarSize(instr.type) == 8
                    ? ~v.u
                    : static_cast<std::uint32_t>(~v.u);
        } else {
          v.i = ScalarSize(instr.type) == 8
                    ? ~v.i
                    : static_cast<std::int32_t>(
                          ~static_cast<std::int32_t>(v.i));
        }
        stack.push_back(v);
        break;
      }
      case Opcode::kEq:
      case Opcode::kNe:
      case Opcode::kLt:
      case Opcode::kLe:
      case Opcode::kGt:
      case Opcode::kGe: {
        const Value rhs = pop();
        const Value lhs = pop();
        Value out;
        out.i = EvalCompare(instr.op, instr.type, lhs, rhs) ? 1 : 0;
        stack.push_back(out);
        break;
      }
      case Opcode::kLogicalNot: {
        Value v = pop();
        v.i = v.i == 0 ? 1 : 0;
        stack.push_back(v);
        break;
      }
      case Opcode::kConvert: {
        const Value v = pop();
        stack.push_back(ConvertValue(v, instr.type,
                                     static_cast<ScalarType>(instr.a)));
        break;
      }
      case Opcode::kJump:
        st.pc = static_cast<std::uint32_t>(instr.a);
        break;
      case Opcode::kJumpIfFalse: {
        const Value v = pop();
        if (v.i == 0) st.pc = static_cast<std::uint32_t>(instr.a);
        break;
      }
      case Opcode::kJumpIfTrue: {
        const Value v = pop();
        if (v.i != 0) st.pc = static_cast<std::uint32_t>(instr.a);
        break;
      }
      case Opcode::kCall: {
        const CompiledFunction& callee = grp.module.functions[instr.a];
        if (st.frames.size() >= 256) {
          return Trap(grp, st.pc - 1, "call stack overflow");
        }
        st.frames.push_back(Frame{st.pc, st.base});
        const auto new_base = static_cast<std::uint32_t>(st.locals.size());
        st.locals.resize(new_base + callee.local_slots);
        // Arguments were pushed left-to-right; pop right-to-left.
        for (int i = instr.b - 1; i >= 0; --i) {
          st.locals[new_base + i] = pop();
        }
        st.base = new_base;
        st.pc = callee.entry_pc;
        break;
      }
      case Opcode::kCallBuiltin: {
        Value args[4];
        const int argc = instr.b;
        for (int i = argc - 1; i >= 0; --i) args[i] = pop();
        auto result =
            EvalBuiltinCall(static_cast<BuiltinId>(instr.a), instr.type, args,
                            argc, st, grp);
        if (!result.ok()) return result.status();
        if (instr.type != ScalarType::kVoid) stack.push_back(*result);
        break;
      }
      case Opcode::kReturn: {
        Value ret;
        ret.u = 0;
        const bool has_value = instr.b != 0;
        if (has_value) ret = pop();
        if (st.frames.empty()) {
          st.done = true;
          return RunResult::kDone;
        }
        const Frame frame = st.frames.back();
        st.frames.pop_back();
        st.locals.resize(st.base);
        st.base = frame.prev_base;
        st.pc = frame.return_pc;
        if (has_value) stack.push_back(ret);
        break;
      }
      case Opcode::kBarrier:
        return RunResult::kBarrier;
    }
  }
}

// Sweeps pre-initialized item states to completion with full barrier
// semantics: each pass runs every live item to its next barrier or exit;
// mixed done/at-barrier outcomes are the OpenCL barrier-divergence error.
// Used by the interpreter's barrier path and by the batch engine after a
// divergence bail-out.
inline Status RunStatesToCompletion(std::vector<ItemState>& states,
                                    GroupContext& grp) {
  while (true) {
    std::uint64_t done = 0;
    std::uint64_t at_barrier = 0;
    for (auto& st : states) {
      if (st.done) {
        ++done;
        continue;
      }
      auto result = RunItem(st, grp);
      if (!result.ok()) return result.status();
      if (*result == RunResult::kDone) {
        ++done;
      } else {
        ++at_barrier;
      }
    }
    if (at_barrier == 0) return Status::Ok();
    if (done != 0) {
      return Status(ErrorCode::kInvalidKernelArgs,
                    "kernel '" + grp.kernel.name +
                        "': barrier divergence (some work-items exited while "
                        "others wait at a barrier)");
    }
  }
}

// ----------------------------------------------------------- Group execution

// Resets the per-group local-memory table: slots [0, num_args) for __local
// pointer arguments, then one slot per body-declared array (local entries
// zero-filled here, private ones per item). Reuses `mem`'s allocations, so
// a worker that keeps one table across its groups allocates only once.
inline void ResetLocalMem(const CompiledFunction& kernel,
                          const std::vector<ArgBinding>& args,
                          std::vector<std::vector<std::uint8_t>>& mem) {
  mem.resize(kernel.params.size() + kernel.arrays.size());
  for (std::size_t i = 0; i < kernel.params.size(); ++i) {
    if (kernel.params[i].IsLocalPointer()) {
      mem[i].assign(args[i].local_size, 0);
    }
  }
  for (std::size_t i = 0; i < kernel.arrays.size(); ++i) {
    if (kernel.arrays[i].space == AddressSpace::kLocal) {
      mem[kernel.params.size() + i].assign(kernel.arrays[i].ByteSize(), 0);
    }
  }
}

inline void InitItem(ItemState& st, const CompiledFunction& kernel,
                     const std::vector<ArgBinding>& args, GroupContext& grp,
                     std::uint64_t local_linear) {
  st.pc = kernel.entry_pc;
  st.base = 0;
  st.stack.clear();
  st.frames.clear();
  st.done = false;
  st.budget = grp.options.max_instructions_per_item;
  st.locals.assign(kernel.local_slots, Value{});

  // Decompose the linear local index into 3D ids.
  const auto& local = grp.range.local;
  st.local_id[0] = local_linear % local[0];
  st.local_id[1] = (local_linear / local[0]) % local[1];
  st.local_id[2] = local_linear / (local[0] * local[1]);
  for (int d = 0; d < 3; ++d) {
    st.global_id[d] =
        grp.range.offset[d] + grp.group_id[d] * local[d] + st.local_id[d];
  }

  // Private arrays.
  st.private_mem.assign(kernel.params.size() + kernel.arrays.size(), {});
  for (std::size_t i = 0; i < kernel.arrays.size(); ++i) {
    if (kernel.arrays[i].space == AddressSpace::kPrivate) {
      st.private_mem[kernel.params.size() + i].assign(
          kernel.arrays[i].ByteSize(), 0);
    }
  }

  // Bind parameters into the entry frame's slots.
  for (std::size_t i = 0; i < kernel.params.size(); ++i) {
    const KernelArgInfo& param = kernel.params[i];
    Value v;
    v.u = 0;
    if (param.IsBuffer()) {
      v.u = MakePointer(PtrSpace::kGlobal, i, 0);
    } else if (param.IsLocalPointer()) {
      v.u = MakePointer(PtrSpace::kLocal, i, 0);
    } else {
      v = ConvertValue(args[i].scalar, args[i].scalar_type,
                       param.type.scalar);
    }
    st.locals[i] = v;
  }
}

// ----------------------------------------------------- Batch engine interface

// Per-group counters the batch engine fills (aggregated into VmStats by the
// launch's worker pool).
struct BatchGroupStats {
  std::uint64_t instructions = 0;
  std::uint64_t batch_steps = 0;
  std::uint64_t fused_steps = 0;   // Fused dispatches (all vector ones).
  std::uint64_t simd_steps = 0;    // Dispatches that took a vector path.
  std::uint64_t masked_steps = 0;  // Instructions run under a partial mask.
  bool bailed_out = false;
};

// Fusion plan over a module's code array (see vm_batch.cc). Built once per
// module by Compile (Module::batch_plan), shared read-only by every launch.
// Every fused op has a vector body; where it cannot run, the engine steps
// the op's instructions instead.
// One indexed load taken entirely from locals:
// load(locals[base] + convert(idx)*esize) where idx is the i32 locals[s1]
// (length 5: load, load, convert, ptradd, loadmem) or the i32 expression
// locals[s1]*locals[s2]+locals[s3] (length 9 — the `a[row*n+k]` shape),
// and esize is the loaded element's size.
struct IndexedLoad {
  std::int32_t base = -1;  // Pointer-holding local slot.
  std::int32_t s1 = -1;
  std::int32_t s2 = -1;    // -1: idx is locals[s1] alone.
  std::int32_t s3 = -1;
  std::int32_t esize = 0;            // kPtrAdd element size.
  ScalarType elem = ScalarType::kVoid;  // Loaded element type.
  std::uint32_t length = 0;
  // Codegen proved the index expression affine in the lane id (stride may
  // be 0): the engine may classify the lane offsets as
  // broadcast/contiguous/strided after one whole-chunk range precheck.
  bool affine = false;
  // Codegen proved the base pointer local lane-uniform: the engine may
  // resolve the buffer region from lane 0 with a last-lane spot check
  // instead of scanning every lane.
  bool base_uniform = false;
};

struct FusedOp {
  enum class Kind : std::uint8_t {
    kIndexedLoad,    // push load described by ld[0] (no stack traffic)
    kMacLocal,       // locals[a] += ld[0]-load * ld[1]-load, f32/f64 — the
                     // whole matmul MAC body in one dispatch
    kCompareLocals,  // push locals[a] <op> locals[b], i32
    kLocalAddConst,  // locals[a] = locals[a] + const, i32
  };
  Kind kind = Kind::kIndexedLoad;
  ScalarType type = ScalarType::kVoid;  // kMacLocal's arithmetic type.
  std::int32_t a = 0;                   // Slot.
  std::int32_t b = 0;                   // Second slot.
  Opcode op = Opcode::kLt;              // kCompareLocals: the compare.
  Value constant{};                     // kLocalAddConst, pre-converted.
  IndexedLoad ld[2];                    // kIndexedLoad / kMacLocal.
  std::uint32_t length = 0;             // Instructions replaced.
  std::int32_t loop = -1;  // kCompareLocals: its BatchPlan::loops entry.
};

// A counted MAC loop read off the plan's fused ops: kCompareLocals(k < n),
// kJumpIfFalse exit_pc, kMacLocal(acc), kLocalAddConst(k += c, c > 0),
// kJump back (exit_pc is the pc after it), with acc none of k, n and the
// slots either load reads. The batch engine may run all of its trips in
// one dispatch (docs/vm.md, "Counted loops").
struct CountedLoop {
  std::int32_t mac = -1;           // ops index of the body's kMacLocal.
  std::int32_t step = -1;          // ops index of the k += c step.
  std::uint32_t exit_pc = 0;
  std::uint32_t trip_length = 0;   // Instructions one trip retires.
};

struct BatchPlan {
  // code.size() entries: -1 or an index into ops for a fusion starting at
  // that pc.
  std::vector<std::int32_t> fused_at;
  std::vector<FusedOp> ops;
  std::vector<CountedLoop> loops;
};

BatchPlan BuildBatchPlan(const Module& module);

struct PrivateRegion {
  std::vector<std::uint8_t> data;  // lanes * stride bytes, lane-major.
  std::uint64_t stride = 0;        // 0 for non-private regions.
};

// One work-group's SoA machine state. Each thread of a launch owns one for
// the whole launch and re-initializes it per group, so after the first
// group a group allocates nothing (the lane count is fixed per launch).
struct LaneBatch {
  std::uint32_t lanes = 0;
  std::uint32_t pc = 0;
  std::uint32_t sp = 0;    // Operand-stack height in slots (rows).
  std::uint32_t base = 0;  // Current frame's locals base row.
  std::uint64_t budget = 0;  // Shared: lockstep lanes retire in unison.
  std::vector<Value> stack;   // stack_slots rows of `lanes` values.
  std::uint32_t stack_slots = 0;
  std::vector<Value> locals;  // local_rows rows of `lanes` values.
  std::uint32_t local_rows = 0;
  std::vector<Frame> frames;  // Shared: uniform while control is uniform.
  std::vector<PrivateRegion> priv;
  std::vector<std::vector<std::uint8_t>> local_mem;  // grp.local_mem.
  std::vector<std::uint64_t> gid[3];
  std::vector<std::uint64_t> lid[3];
  std::uint64_t lid_shape[3] = {0, 0, 0};  // Local shape lid was filled for.
  // Masked-divergence bookkeeping. The shared budget charges a masked
  // region's whole span up-front; a lane that sat the region out is owed
  // that span back relative to the shared counter (the interpreter charges
  // per item). Refunds are applied on bail-out, and has_refund downgrades
  // the shared budget trap to a bail-out because lanes no longer exhaust
  // their budgets in unison. refund is zero whenever has_refund is false.
  std::vector<std::uint64_t> refund;
  bool has_refund = false;
  std::vector<std::uint8_t> active;  // Masked-region lane mask; each region
                                     // entry rewrites every lane.
  std::vector<std::int32_t> idx_scratch[2];  // Affine-load lane indices.
  std::vector<float> acc_f32;                // Counted-loop accumulators.
  std::uint32_t jumped_from = ~0u;           // pc of the last taken jump.
};

// Runs one work-group through the lane-batch engine in `batch` (whose
// local_mem becomes grp.local_mem). Bails out to the interpreter sweep on
// lane divergence; always returns bit-identical results to the interpreter.
Status RunGroupBatched(GroupContext& grp, const BatchPlan& plan,
                       LaneBatch& batch, BatchGroupStats& stats);

}  // namespace haocl::oclc::vmdetail
