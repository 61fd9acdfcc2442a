// Lane-batch execution engine: runs a whole work-group in SIMT-style
// lockstep, dispatching each bytecode instruction ONCE and applying it to
// every work-item through a contiguous-lane inner loop.
//
// Layout: the operand stack and locals are SoA, slot-major —
// `stack[slot * lanes + lane]` — so each instruction touches a contiguous
// row of lanes (SIMD-friendly, one cache stream per operand). pc, sp, the
// frame stack, and the instruction budget are shared scalars while control
// flow is uniform, which is what makes a barrier() trivial: in lockstep all
// lanes arrive at kBarrier in the same batch step, so it is a no-op
// boundary instead of a per-item suspend/resume.
//
// The hot row loops run on simd.h's 4-lane vectors on every build (its
// scalar backend when the build forces one); each finishes the last
// lanes % 4 in scalar transcription, so any group width takes the same path.
// Conversions, work-item queries and memory ops run as typed rows: the
// shared helper instantiated with compile-time types, its switch hoisted
// out of the lane loop. A fused superop is a vector body or nothing: where
// its body cannot prove every lane exact, the engine steps the op's
// instructions, so StepOp is the engine's one scalar implementation.
//
// When a branch condition disagrees across lanes (or a callee lacks batch
// metadata) the engine bails out: it materializes one legacy ItemState per
// lane from the SoA columns and finishes the group through the interpreter
// sweep. Combined with both engines sharing every evaluation helper in
// vm_internal.h, batched results are bit-identical to the interpreter.
//
// The runaway guard (max_instructions_per_item) is charged once per batch
// step instead of per work-item — in lockstep every lane retires the same
// instruction count, so one shared counter is exact, and the hot loop pays
// the check once per GROUP instead of once per item.
#include <array>
#include <cstdlib>
#include <type_traits>
#include <utility>

#include "common/simd.h"
#include "oclc/vm_internal.h"

namespace haocl::oclc::vmdetail {
namespace {

inline Value* Row(LaneBatch& b, std::uint32_t slot) {
  return b.stack.data() + static_cast<std::size_t>(slot) * b.lanes;
}

inline Value* LocalRow(LaneBatch& b, std::uint32_t row) {
  return b.locals.data() + static_cast<std::size_t>(row) * b.lanes;
}

void EnsureStackRows(LaneBatch& b, std::uint32_t rows) {
  if (rows > b.stack_slots) {
    b.stack.resize(static_cast<std::size_t>(rows) * b.lanes);
    b.stack_slots = rows;
  }
}

// Resets `b` for `grp`, reusing the rows an earlier group left behind.
void InitBatch(LaneBatch& b, GroupContext& grp, std::uint32_t lanes) {
  const CompiledFunction& kernel = grp.kernel;
  if (b.lanes != lanes) b.stack_slots = 0;  // Rows are sized per lane count.
  b.lanes = lanes;
  b.pc = kernel.entry_pc;
  b.jumped_from = ~0u;
  b.sp = 0;
  b.base = 0;
  b.budget = grp.options.max_instructions_per_item;
  b.frames.clear();
  EnsureStackRows(b, kernel.max_stack_slots);
  b.local_rows = kernel.local_slots;
  b.locals.assign(static_cast<std::size_t>(kernel.local_slots) * lanes,
                  Value{});
  if (b.has_refund || b.refund.size() != lanes) b.refund.assign(lanes, 0);
  b.has_refund = false;
  b.active.resize(lanes);
  b.idx_scratch[0].resize(lanes);
  b.idx_scratch[1].resize(lanes);

  // lid depends only on the launch's local shape: fill it once.
  const auto& local = grp.range.local;
  if (!std::equal(local, local + 3, b.lid_shape)) {
    std::copy(local, local + 3, b.lid_shape);
    for (int d = 0; d < 3; ++d) b.lid[d].resize(lanes);
    std::uint32_t l = 0;
    for (std::uint64_t z = 0; z < local[2]; ++z) {
      for (std::uint64_t y = 0; y < local[1]; ++y) {
        for (std::uint64_t x = 0; x < local[0]; ++x, ++l) {
          b.lid[0][l] = x;
          b.lid[1][l] = y;
          b.lid[2][l] = z;
        }
      }
    }
  }
  for (int d = 0; d < 3; ++d) {
    const std::uint64_t first =
        grp.range.offset[d] + grp.group_id[d] * local[d];
    b.gid[d].resize(lanes);
    for (std::uint32_t l = 0; l < lanes; ++l) b.gid[d][l] = first + b.lid[d][l];
  }

  // Private arrays: one contiguous slab per region, lane-major slices.
  b.priv.resize(kernel.params.size() + kernel.arrays.size());
  for (PrivateRegion& region : b.priv) region.stride = 0;
  for (std::size_t i = 0; i < kernel.arrays.size(); ++i) {
    if (kernel.arrays[i].space == AddressSpace::kPrivate) {
      PrivateRegion& region = b.priv[kernel.params.size() + i];
      region.stride = kernel.arrays[i].ByteSize();
      region.data.assign(region.stride * lanes, 0);
    }
  }

  // Parameters are launch-uniform: compute once, broadcast the row.
  for (std::size_t i = 0; i < kernel.params.size(); ++i) {
    const KernelArgInfo& param = kernel.params[i];
    Value v;
    v.u = 0;
    if (param.IsBuffer()) {
      v.u = MakePointer(PtrSpace::kGlobal, i, 0);
    } else if (param.IsLocalPointer()) {
      v.u = MakePointer(PtrSpace::kLocal, i, 0);
    } else {
      v = ConvertValue(grp.args[i].scalar, grp.args[i].scalar_type,
                       param.type.scalar);
    }
    Value* row = LocalRow(b, static_cast<std::uint32_t>(i));
    for (std::uint32_t l = 0; l < lanes; ++l) row[l] = v;
  }
}

// Lane-aware twin of ResolvePtr: identical checks and messages; private
// pointers land in this lane's slice of the region slab.
inline Expected<std::uint8_t*> ResolveLanePtr(std::uint64_t ptr,
                                              std::uint64_t bytes,
                                              std::uint32_t lane, LaneBatch& b,
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
      if (region >= b.priv.size()) {
        return Status(ErrorCode::kInvalidKernelArgs, "bad private region");
      }
      PrivateRegion& r = b.priv[region];
      if (offset + bytes > r.stride) {
        return OobError(grp, "private", offset, bytes, r.stride);
      }
      return r.data.data() + lane * r.stride + offset;
    }
  }
  return Status(ErrorCode::kInternal, "bad pointer space");
}

// Transposes the SoA batch back into per-lane ItemStates and finishes the
// group through the interpreter sweep. Invoked on lane divergence or when a
// call target lacks batch metadata; the sweep's full barrier semantics also
// cover barrier-divergence detection from here on.
Status BailOut(LaneBatch& b, GroupContext& grp, const std::uint32_t* lane_pc,
               BatchGroupStats& stats) {
  stats.bailed_out = true;
  const std::uint32_t lanes = b.lanes;
  std::vector<ItemState> states(lanes);
  for (std::uint32_t l = 0; l < lanes; ++l) {
    ItemState& st = states[l];
    st.pc = lane_pc[l];
    st.base = b.base;
    // A lane skipped over masked regions is owed their spans back: per-item
    // budgets diverge from the shared counter exactly by the refund.
    st.budget = b.budget + (b.has_refund ? b.refund[l] : 0);
    st.done = false;
    st.stack.resize(b.sp);
    for (std::uint32_t s = 0; s < b.sp; ++s) {
      st.stack[s] = b.stack[static_cast<std::size_t>(s) * lanes + l];
    }
    st.locals.resize(b.local_rows);
    for (std::uint32_t r = 0; r < b.local_rows; ++r) {
      st.locals[r] = b.locals[static_cast<std::size_t>(r) * lanes + l];
    }
    st.frames = b.frames;
    for (int d = 0; d < 3; ++d) {
      st.global_id[d] = b.gid[d][l];
      st.local_id[d] = b.lid[d][l];
    }
    st.private_mem.resize(b.priv.size());
    for (std::size_t r = 0; r < b.priv.size(); ++r) {
      const PrivateRegion& region = b.priv[r];
      if (region.stride != 0) {
        const std::uint8_t* begin = region.data.data() + l * region.stride;
        st.private_mem[r].assign(begin, begin + region.stride);
      }
    }
  }
  std::vector<std::uint64_t> start_budget(lanes);
  for (std::uint32_t l = 0; l < lanes; ++l) start_budget[l] = states[l].budget;
  Status s = RunStatesToCompletion(states, grp);
  if (!s.ok()) return s;
  for (std::uint32_t l = 0; l < lanes; ++l) {
    stats.instructions += start_budget[l] - states[l].budget;
  }
  return Status::Ok();
}

Status BailOutUniform(LaneBatch& b, GroupContext& grp, std::uint32_t pc,
                      BatchGroupStats& stats) {
  std::vector<std::uint32_t> pcs(b.lanes, pc);
  return BailOut(b, grp, pcs.data(), stats);
}

// 64-bit integer add/sub/mul with the op/type switch hoisted out of the
// lane loop; the vector tier (SimdBinaryRows) covers f32/f64/i32/u32. Each
// body transcribes EvalBinary's exact expression for that (op, type) so
// results stay bit-identical. Returns false for combinations left to the
// generic per-lane EvalBinary (div/mod traps, shifts, bitwise, narrow ints).
bool BinaryFastLoop(Opcode op, ScalarType t, Value* lhs, const Value* rhs,
                    std::uint32_t n) {
  switch (t) {
    case ScalarType::kI64:
      switch (op) {
        case Opcode::kAdd:
          for (std::uint32_t l = 0; l < n; ++l) {
            lhs[l].i = static_cast<std::int64_t>(
                static_cast<std::uint64_t>(lhs[l].i) +
                static_cast<std::uint64_t>(rhs[l].i));
          }
          return true;
        case Opcode::kSub:
          for (std::uint32_t l = 0; l < n; ++l) {
            lhs[l].i = static_cast<std::int64_t>(
                static_cast<std::uint64_t>(lhs[l].i) -
                static_cast<std::uint64_t>(rhs[l].i));
          }
          return true;
        case Opcode::kMul:
          for (std::uint32_t l = 0; l < n; ++l) {
            lhs[l].i = static_cast<std::int64_t>(
                static_cast<std::uint64_t>(lhs[l].i) *
                static_cast<std::uint64_t>(rhs[l].i));
          }
          return true;
        default:
          return false;
      }
    case ScalarType::kU64:
      switch (op) {
        case Opcode::kAdd:
          for (std::uint32_t l = 0; l < n; ++l) lhs[l].u = lhs[l].u + rhs[l].u;
          return true;
        case Opcode::kSub:
          for (std::uint32_t l = 0; l < n; ++l) lhs[l].u = lhs[l].u - rhs[l].u;
          return true;
        case Opcode::kMul:
          for (std::uint32_t l = 0; l < n; ++l) lhs[l].u = lhs[l].u * rhs[l].u;
          return true;
        default:
          return false;
      }
    default:
      return false;
  }
}

// f32/f64 add/sub/mul/div and i32/u32 add/sub/mul over whole rows, 4 lanes
// per step with tail lanes in scalar transcription. f32 rows hold widened
// doubles, so the
// vector op is a cvt-f64→f32 / op / widen-back sandwich — byte-identical
// to EvalBinary's static_cast chain because each cvt is one
// correctly-rounded IEEE operation. i32/u32 wrap in 32 bits and
// re-canonicalize by sign/zero extension, exactly like the interpreter's
// storage convention. Returns false for combinations the caller should run
// through BinaryFastLoop.
bool SimdBinaryRows(Opcode op, ScalarType t, Value* lhs, const Value* rhs,
                    std::uint32_t n) {
  const std::uint32_t vec = n & ~3u;
  switch (t) {
    case ScalarType::kF32: {
      if (op != Opcode::kAdd && op != Opcode::kSub && op != Opcode::kMul &&
          op != Opcode::kDiv) {
        return false;
      }
      for (std::uint32_t c = 0; c < vec; c += 4) {
        const simd::VecF32 a = simd::ToF32(simd::VecF64::Load(&lhs[c].f));
        const simd::VecF32 x = simd::ToF32(simd::VecF64::Load(&rhs[c].f));
        simd::VecF32 r{};
        switch (op) {
          case Opcode::kAdd: r = simd::Add(a, x); break;
          case Opcode::kSub: r = simd::Sub(a, x); break;
          case Opcode::kMul: r = simd::Mul(a, x); break;
          default: r = simd::Div(a, x); break;
        }
        simd::ToF64(r).Store(&lhs[c].f);
      }
      for (std::uint32_t l = vec; l < n; ++l) {
        const float a = static_cast<float>(lhs[l].f);
        const float x = static_cast<float>(rhs[l].f);
        float r;
        switch (op) {
          case Opcode::kAdd: r = a + x; break;
          case Opcode::kSub: r = a - x; break;
          case Opcode::kMul: r = a * x; break;
          default: r = a / x; break;
        }
        lhs[l].f = r;
      }
      return true;
    }
    case ScalarType::kF64: {
      if (op != Opcode::kAdd && op != Opcode::kSub && op != Opcode::kMul &&
          op != Opcode::kDiv) {
        return false;
      }
      for (std::uint32_t c = 0; c < vec; c += 4) {
        const simd::VecF64 a = simd::VecF64::Load(&lhs[c].f);
        const simd::VecF64 x = simd::VecF64::Load(&rhs[c].f);
        simd::VecF64 r{};
        switch (op) {
          case Opcode::kAdd: r = simd::Add(a, x); break;
          case Opcode::kSub: r = simd::Sub(a, x); break;
          case Opcode::kMul: r = simd::Mul(a, x); break;
          default: r = simd::Div(a, x); break;
        }
        r.Store(&lhs[c].f);
      }
      for (std::uint32_t l = vec; l < n; ++l) {
        switch (op) {
          case Opcode::kAdd: lhs[l].f = lhs[l].f + rhs[l].f; break;
          case Opcode::kSub: lhs[l].f = lhs[l].f - rhs[l].f; break;
          case Opcode::kMul: lhs[l].f = lhs[l].f * rhs[l].f; break;
          default: lhs[l].f = lhs[l].f / rhs[l].f; break;
        }
      }
      return true;
    }
    case ScalarType::kI32: {
      if (op != Opcode::kAdd && op != Opcode::kSub && op != Opcode::kMul) {
        return false;
      }
      for (std::uint32_t c = 0; c < vec; c += 4) {
        const simd::VecI32 a = simd::VecI32::LoadLow64(lhs + c);
        const simd::VecI32 x = simd::VecI32::LoadLow64(rhs + c);
        simd::VecI32 r{};
        switch (op) {
          case Opcode::kAdd: r = simd::Add(a, x); break;
          case Opcode::kSub: r = simd::Sub(a, x); break;
          default: r = simd::Mul(a, x); break;
        }
        r.StoreSignExt64(lhs + c);
      }
      for (std::uint32_t l = vec; l < n; ++l) {
        const std::uint32_t a = static_cast<std::uint32_t>(lhs[l].i);
        const std::uint32_t x = static_cast<std::uint32_t>(rhs[l].i);
        switch (op) {
          case Opcode::kAdd: lhs[l].i = static_cast<std::int32_t>(a + x); break;
          case Opcode::kSub: lhs[l].i = static_cast<std::int32_t>(a - x); break;
          default: lhs[l].i = static_cast<std::int32_t>(a * x); break;
        }
      }
      return true;
    }
    case ScalarType::kU32: {
      if (op != Opcode::kAdd && op != Opcode::kSub && op != Opcode::kMul) {
        return false;
      }
      for (std::uint32_t c = 0; c < vec; c += 4) {
        const simd::VecI32 a = simd::VecI32::LoadLow64(lhs + c);
        const simd::VecI32 x = simd::VecI32::LoadLow64(rhs + c);
        simd::VecI32 r{};
        switch (op) {
          case Opcode::kAdd: r = simd::Add(a, x); break;
          case Opcode::kSub: r = simd::Sub(a, x); break;
          default: r = simd::Mul(a, x); break;
        }
        r.StoreZeroExt64(lhs + c);
      }
      for (std::uint32_t l = vec; l < n; ++l) {
        const std::uint32_t a = static_cast<std::uint32_t>(lhs[l].u);
        const std::uint32_t x = static_cast<std::uint32_t>(rhs[l].u);
        switch (op) {
          case Opcode::kAdd: lhs[l].u = a + x; break;
          case Opcode::kSub: lhs[l].u = a - x; break;
          default: lhs[l].u = a * x; break;
        }
      }
      return true;
    }
    default:
      return false;
  }
}

// Vectorized i32 compare of two rows into 0/1 Values (EvalCompare's i32
// path compares the sign-extended low words, which LoadLow64 extracts
// exactly). `out` may alias `lhs`: each chunk loads both inputs before
// storing.
void SimdCompareI32Rows(Opcode op, const Value* lhs, const Value* rhs,
                        Value* out, std::uint32_t n) {
  const std::uint32_t vec = n & ~3u;
  const simd::VecI32 one = simd::VecI32::Broadcast(1);
  for (std::uint32_t c = 0; c < vec; c += 4) {
    const simd::VecI32 a = simd::VecI32::LoadLow64(lhs + c);
    const simd::VecI32 x = simd::VecI32::LoadLow64(rhs + c);
    simd::VecI32 m{};
    switch (op) {
      case Opcode::kEq: m = simd::CmpEq(a, x); break;
      case Opcode::kNe: m = simd::Not(simd::CmpEq(a, x)); break;
      case Opcode::kLt: m = simd::CmpLt(a, x); break;
      case Opcode::kLe: m = simd::Not(simd::CmpGt(a, x)); break;
      case Opcode::kGt: m = simd::CmpGt(a, x); break;
      default: m = simd::Not(simd::CmpLt(a, x)); break;
    }
    simd::And(m, one).StoreSignExt64(out + c);
  }
  for (std::uint32_t l = vec; l < n; ++l) {
    Value v;
    v.i = EvalCompare(op, ScalarType::kI32, lhs[l], rhs[l]) ? 1 : 0;
    out[l] = v;
  }
}

// ----------------------------------------------------------- Typed rows
//
// Per-lane ops with the type switch hoisted out of the lane loop. Each row
// instantiates the shared helper (ConvertValue, LoadScalar, StoreScalar)
// with compile-time types, so the loop body is that helper's semantics
// with its switches folded away. Memory rows run only after a whole-row
// precheck proves every lane in bounds of one region. Only unmasked steps
// use them; none goes through simd.h, so none counts as a simd step.

using RowFn = void (*)(Value*, std::uint32_t);
using MemRowFn = void (*)(std::uint8_t*, Value*, const Value*,
                          std::uint32_t);
constexpr ScalarType kRowTypes[] = {ScalarType::kI32, ScalarType::kU32,
                                    ScalarType::kI64, ScalarType::kU64,
                                    ScalarType::kF32, ScalarType::kF64};

template <ScalarType From, ScalarType To>
[[gnu::flatten]] void ConvertRowAs(Value* row, std::uint32_t n) {
  for (std::uint32_t l = 0; l < n; ++l) row[l] = ConvertValue(row[l], From, To);
}

template <std::size_t... I>
constexpr std::array<RowFn, sizeof...(I)> ConvertRows(
    std::index_sequence<I...>) {
  return {&ConvertRowAs<kRowTypes[I / 6], kRowTypes[I % 6]>...};
}
constexpr auto kConvertRows = ConvertRows(std::make_index_sequence<36>{});

// Position of t in kRowTypes (they are kI32..kF64 in enum order), or -1.
constexpr int RowTypeIndex(ScalarType t) {
  static_assert(static_cast<int>(ScalarType::kF64) -
                    static_cast<int>(ScalarType::kI32) == 5);
  const int i = static_cast<int>(t) - static_cast<int>(ScalarType::kI32);
  return i >= 0 && i < 6 ? i : -1;
}

// ConvertValue over a row: typed for pairs of kRowTypes, per lane else.
void ConvertRow(Value* row, ScalarType from, ScalarType to, std::uint32_t n) {
  const int f = RowTypeIndex(from);
  const int t = RowTypeIndex(to);
  if (f >= 0 && t >= 0) return kConvertRows[f * 6 + t](row, n);
  for (std::uint32_t l = 0; l < n; ++l) row[l] = ConvertValue(row[l], from, to);
}

// kLoadMem (value == nullptr: the loaded value replaces the address) or
// kStoreMem of type T over lanes whose region starts at `data`.
template <ScalarType T>
[[gnu::flatten]] void MemRowAs(std::uint8_t* data, Value* addr,
                               const Value* value, std::uint32_t n) {
  if (value == nullptr) {
    for (std::uint32_t l = 0; l < n; ++l) {
      addr[l] = LoadScalar(data + PointerOffset(addr[l].u), T);
    }
  } else {
    for (std::uint32_t l = 0; l < n; ++l) {
      StoreScalar(data + PointerOffset(addr[l].u), T, value[l]);
    }
  }
}

template <std::size_t... I>
constexpr std::array<MemRowFn, sizeof...(I)> MemRows(
    std::index_sequence<I...>) {
  return {&MemRowAs<static_cast<ScalarType>(I)>...};
}
constexpr auto kMemRows =
    MemRows(std::make_index_sequence<static_cast<int>(ScalarType::kF64) + 1>{});

// The one global or local region every lane's pointer names, when the
// highest offset plus `bytes` fits in it; null for mixed regions, private
// memory, a bad region or any lane out of bounds.
std::uint8_t* RowRegion(const Value* ptr, std::uint32_t n, std::uint64_t bytes,
                        GroupContext& grp) {
  const std::uint64_t tag = ptr[0].u & ~kPtrOffsetMask;
  std::uint64_t mixed = 0;
  std::uint64_t hi = 0;
  for (std::uint32_t l = 0; l < n; ++l) {
    mixed |= (ptr[l].u & ~kPtrOffsetMask) ^ tag;
    hi = std::max(hi, PointerOffset(ptr[l].u));
  }
  const std::uint64_t region = PointerRegion(tag);
  if (mixed != 0) return nullptr;
  if (PointerSpace(tag) == PtrSpace::kGlobal && region < grp.args.size() &&
      grp.args[region].kind == ArgBinding::Kind::kBuffer &&
      hi + bytes <= grp.args[region].size) {
    return grp.args[region].data;
  }
  auto& mem = *grp.local_mem;
  if (PointerSpace(tag) == PtrSpace::kLocal && region < mem.size() &&
      hi + bytes <= mem[region].size()) {
    return mem[region].data();
  }
  return nullptr;
}

// kLoadMem (value == nullptr, in place over `addr`) or kStoreMem, in lane
// order: one typed loop when RowRegion proves the row, else per lane
// through ResolveLanePtr, which traps at the interpreter's lane.
Status MemRow(LaneBatch& b, GroupContext& grp, ScalarType t, Value* addr,
              const Value* value, const std::uint8_t* mask) {
  const std::uint64_t bytes = ScalarSize(t);
  std::uint8_t* data =
      mask == nullptr ? RowRegion(addr, b.lanes, bytes, grp) : nullptr;
  if (data != nullptr) {
    kMemRows[static_cast<int>(t)](data, addr, value, b.lanes);
    return Status::Ok();
  }
  for (std::uint32_t l = 0; l < b.lanes; ++l) {
    if (mask != nullptr && mask[l] == 0) continue;
    auto mem = ResolveLanePtr(addr[l].u, bytes, l, b, grp);
    if (!mem.ok()) return mem.status();
    if (value == nullptr) {
      addr[l] = LoadScalar(*mem, t);
    } else {
      StoreScalar(*mem, t, value[l]);
    }
  }
  return Status::Ok();
}

// kPtrAdd over a row: ptr += index * esize within the offset bits.
void PtrAddRow(Value* ptr, const Value* index, std::int32_t esize,
               const std::uint8_t* mask, std::uint32_t n) {
  for (std::uint32_t l = 0; l < n; ++l) {
    if (mask != nullptr && mask[l] == 0) continue;
    const std::uint64_t offset =
        PointerOffset(ptr[l].u) + static_cast<std::uint64_t>(index[l].i) *
                                      static_cast<std::uint64_t>(esize);
    ptr[l].u = (ptr[l].u & ~kPtrOffsetMask) | (offset & kPtrOffsetMask);
  }
}

// kCallBuiltin. A work-item query whose dim row is lane-uniform copies the
// gid/lid row or broadcasts one EvalWorkItemBuiltin result (which keeps
// its u32 truncation of dim and its dim >= 3 answers); anything else runs
// per lane.
Status BuiltinRow(LaneBatch& b, GroupContext& grp, const Instruction& instr,
                  const std::uint8_t* mask) {
  const auto id = static_cast<BuiltinId>(instr.a);
  const int argc = instr.b;
  const std::uint32_t lanes = b.lanes;
  const std::uint32_t abase = b.sp - argc;
  const bool has_result = instr.type != ScalarType::kVoid;
  b.sp = abase + (has_result ? 1 : 0);
  Value* out = Row(b, abase);
  if (mask == nullptr && IsWorkItemBuiltin(id) && has_result) {
    std::uint64_t mixed = 0;
    for (std::uint32_t l = 1; argc != 0 && l < lanes; ++l) {
      mixed |= out[l].u ^ out[0].u;
    }
    if (mixed == 0) {
      const auto dim = static_cast<std::uint32_t>(argc != 0 ? out[0].u : 0);
      if ((id == BuiltinId::kGetGlobalId || id == BuiltinId::kGetLocalId) &&
          dim < 3) {
        const std::uint64_t* ids =
            (id == BuiltinId::kGetGlobalId ? b.gid : b.lid)[dim].data();
        for (std::uint32_t l = 0; l < lanes; ++l) out[l].u = ids[l];
      } else {
        const Value v = EvalWorkItemBuiltin(id, nullptr, nullptr, grp, out);
        for (std::uint32_t l = 0; l < lanes; ++l) out[l] = v;
      }
      return Status::Ok();
    }
  }
  for (std::uint32_t l = 0; l < lanes; ++l) {
    if (mask != nullptr && mask[l] == 0) continue;
    Value args[4];
    for (int i = 0; i < argc; ++i) {
      args[i] = b.stack[static_cast<std::size_t>(abase + i) * lanes + l];
    }
    Value result;
    if (IsWorkItemBuiltin(id)) {
      const std::uint64_t g[3] = {b.gid[0][l], b.gid[1][l], b.gid[2][l]};
      const std::uint64_t lo[3] = {b.lid[0][l], b.lid[1][l], b.lid[2][l]};
      result = EvalWorkItemBuiltin(id, g, lo, grp, args);
    } else if (IsAtomicBuiltin(id)) {
      auto mem = ResolveLanePtr(args[0].u, 4, l, b, grp);
      if (!mem.ok()) return mem.status();
      result = EvalAtomicAt(id, instr.type, *mem, args, argc);
    } else {
      result = EvalPureBuiltin(id, instr.type, args);
    }
    if (has_result) out[l] = result;
  }
  return Status::Ok();
}

// A dispatch-uniform global base for an IndexedLoad. The base pointer is
// normally a broadcast kernel parameter, identical in every lane — then the
// region resolves ONCE and the lane loop is offset + bounds check + load,
// with no per-lane pointer decode.
struct UniformBase {
  const std::uint8_t* data = nullptr;
  std::uint64_t size = 0;
  std::uint64_t base_off = 0;
  bool ok = false;
};

inline UniformBase ResolveUniformBase(LaneBatch& b, GroupContext& grp,
                                      std::int32_t slot,
                                      bool known_uniform = false) {
  UniformBase out;
  const Value* row = LocalRow(b, b.base + slot);
  const std::uint64_t base0 = row[0].u;
  // Codegen-proved uniform bases need only a last-lane spot check (defense
  // against analysis bugs); anything else scans every lane.
  if (!known_uniform || row[b.lanes - 1].u != base0) {
    for (std::uint32_t l = 1; l < b.lanes; ++l) {
      if (row[l].u != base0) return out;
    }
  }
  if (PointerSpace(base0) != PtrSpace::kGlobal) return out;
  const std::uint64_t region = PointerRegion(base0);
  if (region >= grp.args.size() ||
      grp.args[region].kind != ArgBinding::Kind::kBuffer) {
    return out;
  }
  out.data = grp.args[region].data;
  out.size = grp.args[region].size;
  out.base_off = PointerOffset(base0);
  out.ok = true;
  return out;
}

struct IndexRows {
  const Value* s1 = nullptr;
  const Value* s2 = nullptr;
  const Value* s3 = nullptr;
  bool two_term = false;
};

inline IndexRows RowsFor(LaneBatch& b, const IndexedLoad& ld) {
  IndexRows r;
  r.s1 = LocalRow(b, b.base + ld.s1);
  if (ld.s2 >= 0) {
    r.s2 = LocalRow(b, b.base + ld.s2);
    r.s3 = LocalRow(b, b.base + ld.s3);
    r.two_term = true;
  }
  return r;
}

// How an IndexedLoad's lane offsets lay out in the uniform base buffer,
// decided by one whole-chunk classification instead of per-lane decode.
struct LanePlan {
  enum class Kind : std::uint8_t {
    kBroadcast,   // All lanes read the same element.
    kContiguous,  // Lane l reads element idx[0] + l (vector load).
    kGather,      // Arbitrary per-lane elements (vector gather).
  };
  Kind kind = Kind::kGather;
  const std::int32_t* idx = nullptr;  // Element index per lane, in-bounds.
  std::int32_t lo = 0;                // Smallest and largest lane index.
  std::int32_t hi = 0;
  bool ok = false;
};

// True when elements [lo, hi] (esize bytes each) past the base pointer lie
// in the buffer and no offset reaches past kPtrOffsetMask.
inline bool InBounds(const UniformBase& ub, std::uint64_t esize,
                     std::int64_t lo, std::int64_t hi) {
  if (lo < 0) return false;
  const std::uint64_t last =
      ub.base_off + static_cast<std::uint64_t>(hi) * esize;
  return last <= kPtrOffsetMask && last + esize <= ub.size;
}

// One lane's element index with the bytecode's exact i32 wrap arithmetic.
inline std::int32_t LaneIndex(const IndexRows& rows, std::uint32_t l) {
  if (rows.two_term) {
    const std::uint32_t m = static_cast<std::uint32_t>(rows.s1[l].i) *
                            static_cast<std::uint32_t>(rows.s2[l].i);
    return static_cast<std::int32_t>(
        m + static_cast<std::uint32_t>(rows.s3[l].i));
  }
  return static_cast<std::int32_t>(rows.s1[l].i);
}

// Computes the lane element indices, prechecks the whole chunk against the
// buffer bounds, and classifies the layout. A failed precheck — any index
// that could trap or wrap through kPtrAdd's offset mask — returns !ok and
// the engine steps the bytecode instead. On success the
// precheck guarantees base_off + idx*esize stays within [0, size - esize]
// and below kPtrOffsetMask for every lane, so the masked pointer arithmetic
// is the identity and loads cannot trap.
//
// Loads codegen proved affine classify in O(1): affinity under the
// bytecode's mod-2^32 arithmetic is EXACT (affine*uniform and
// affine+affine stay affine under wrap), so lanes 0 and 1 determine the
// stride and the endpoints bound every lane — provided the i64
// extrapolation never leaves [0, INT32_MAX], where wrap is the identity.
// Lane lanes-1 is spot-checked against the extrapolation as a cheap
// defense; any mismatch demotes to the full per-lane scan.
LanePlan ClassifyLaneIndices(LaneBatch& b, const IndexedLoad& ld,
                             const UniformBase& ub, std::int32_t* scratch) {
  LanePlan plan;
  const std::uint32_t lanes = b.lanes;
  const IndexRows rows = RowsFor(b, ld);
  const std::uint64_t esize = static_cast<std::uint64_t>(ld.esize);

  if (ld.affine) {
    const std::int32_t idx0 = LaneIndex(rows, 0);
    const std::int32_t stride =
        lanes > 1 ? static_cast<std::int32_t>(
                        static_cast<std::uint32_t>(LaneIndex(rows, 1)) -
                        static_cast<std::uint32_t>(idx0))
                  : 0;
    const std::int64_t end =
        idx0 + static_cast<std::int64_t>(stride) * (lanes - 1);
    if (idx0 >= 0 && end >= 0 && end <= INT32_MAX &&
        (lanes < 3 ||
         LaneIndex(rows, lanes - 1) == static_cast<std::int32_t>(end))) {
      const std::int32_t lo =
          stride >= 0 ? idx0 : static_cast<std::int32_t>(end);
      const std::int32_t hi =
          stride >= 0 ? static_cast<std::int32_t>(end) : idx0;
      if (!InBounds(ub, esize, lo, hi)) return plan;
      plan.idx = scratch;
      plan.lo = lo;
      plan.hi = hi;
      plan.ok = true;
      if (stride == 0 || stride == 1) {
        // Broadcast/contiguous vector bodies only read idx[0], but the
        // scalar tail lanes still index idx[l] — fill both (no wrap: every
        // value sits between idx0 and end).
        scratch[0] = idx0;
        for (std::uint32_t l = lanes & ~3u; l < lanes; ++l) {
          scratch[l] = static_cast<std::int32_t>(
              idx0 + static_cast<std::int64_t>(stride) * l);
        }
        plan.kind = stride == 0 ? LanePlan::Kind::kBroadcast
                                : LanePlan::Kind::kContiguous;
        return plan;
      }
      // Strided: materialize the full ramp for the gather.
      for (std::uint32_t l = 0; l < lanes; ++l) {
        scratch[l] = static_cast<std::int32_t>(
            idx0 + static_cast<std::int64_t>(stride) * l);
      }
      plan.kind = LanePlan::Kind::kGather;
      return plan;
    }
    // Hint contradicted or wrapping: fall through to the full scan.
  }

  // Varying indices: compute every lane (vectorized, exact wrap) with a
  // running min/max for the range precheck.
  const std::uint32_t vec = lanes & ~3u;
  std::int32_t mn = INT32_MAX;
  std::int32_t mx = INT32_MIN;
  if (vec != 0) {
    simd::VecI32 vmn = simd::VecI32::Broadcast(INT32_MAX);
    simd::VecI32 vmx = simd::VecI32::Broadcast(INT32_MIN);
    for (std::uint32_t c = 0; c < vec; c += 4) {
      simd::VecI32 idx;
      if (rows.two_term) {
        const simd::VecI32 s1 = simd::VecI32::LoadLow64(rows.s1 + c);
        const simd::VecI32 s2 = simd::VecI32::LoadLow64(rows.s2 + c);
        const simd::VecI32 s3 = simd::VecI32::LoadLow64(rows.s3 + c);
        idx = simd::Add(simd::Mul(s1, s2), s3);  // Exact 32-bit wrap.
      } else {
        idx = simd::VecI32::LoadLow64(rows.s1 + c);
      }
      idx.Store(scratch + c);
      vmn = simd::Min(vmn, idx);
      vmx = simd::Max(vmx, idx);
    }
    mn = simd::HMin(vmn);
    mx = simd::HMax(vmx);
  }
  for (std::uint32_t l = vec; l < lanes; ++l) {
    const std::int32_t idx = LaneIndex(rows, l);
    scratch[l] = idx;
    mn = idx < mn ? idx : mn;
    mx = idx > mx ? idx : mx;
  }
  if (!InBounds(ub, esize, mn, mx)) return plan;
  plan.idx = scratch;
  plan.lo = mn;
  plan.hi = mx;
  plan.ok = true;
  // A lane-varying index the analysis could not prove affine may still be
  // a unit ramp (get_global_id(1) under a {1, N} group): load it whole.
  bool ramp = static_cast<std::int64_t>(mx) - mn == lanes - 1;
  for (std::uint32_t l = 0; ramp && l < lanes; ++l) {
    ramp = scratch[l] == mn + static_cast<std::int32_t>(l);
  }
  plan.kind = mn == mx ? LanePlan::Kind::kBroadcast
              : ramp   ? LanePlan::Kind::kContiguous
                       : LanePlan::Kind::kGather;
  return plan;
}

// Four f32 elements for lanes [c, c+4) under a classified plan. The plan's
// precheck already proved every element in-bounds.
inline simd::VecF32 LoadF32Lanes(const std::uint8_t* base, const LanePlan& p,
                                 std::uint32_t c) {
  switch (p.kind) {
    case LanePlan::Kind::kBroadcast: {
      float v;
      std::memcpy(&v, base + static_cast<std::int64_t>(p.idx[0]) * 4, 4);
      return simd::VecF32::Broadcast(v);
    }
    case LanePlan::Kind::kContiguous:
      return simd::VecF32::Load(reinterpret_cast<const float*>(
          base + (static_cast<std::int64_t>(p.idx[0]) + c) * 4));
    case LanePlan::Kind::kGather:
    default:
      return simd::VecF32::Gather(reinterpret_cast<const float*>(base),
                                  simd::VecI32::Load(p.idx + c));
  }
}

inline simd::VecF64 LoadF64Lanes(const std::uint8_t* base, const LanePlan& p,
                                 std::uint32_t c) {
  switch (p.kind) {
    case LanePlan::Kind::kBroadcast: {
      double v;
      std::memcpy(&v, base + static_cast<std::int64_t>(p.idx[0]) * 8, 8);
      return simd::VecF64::Broadcast(v);
    }
    case LanePlan::Kind::kContiguous:
      return simd::VecF64::Load(reinterpret_cast<const double*>(
          base + (static_cast<std::int64_t>(p.idx[0]) + c) * 8));
    case LanePlan::Kind::kGather:
    default:
      return simd::VecF64::Gather(reinterpret_cast<const double*>(base),
                                  simd::VecI32::Load(p.idx + c));
  }
}

// Vector path for a fused kIndexedLoad: classify the lane offsets once,
// then load whole chunks. Returns false, having written nothing, when
// classification fails (an index that could trap or wrap).
bool SimdIndexedLoad(LaneBatch& b, const IndexedLoad& ld,
                     const UniformBase& ub, Value* out) {
  const LanePlan plan =
      ClassifyLaneIndices(b, ld, ub, b.idx_scratch[0].data());
  if (!plan.ok) return false;
  const std::uint8_t* base = ub.data + ub.base_off;
  const std::uint32_t lanes = b.lanes;
  const std::uint32_t vec = lanes & ~3u;
  if (plan.kind == LanePlan::Kind::kBroadcast) {
    const Value v = LoadScalar(
        base + static_cast<std::int64_t>(plan.idx[0]) *
                   static_cast<std::int64_t>(ld.esize),
        ld.elem);
    for (std::uint32_t l = 0; l < lanes; ++l) out[l] = v;
    return true;
  }
  switch (ld.elem) {
    case ScalarType::kF32:
      for (std::uint32_t c = 0; c < vec; c += 4) {
        simd::ToF64(LoadF32Lanes(base, plan, c)).Store(&out[c].f);
      }
      break;
    case ScalarType::kF64:
      for (std::uint32_t c = 0; c < vec; c += 4) {
        LoadF64Lanes(base, plan, c).Store(&out[c].f);
      }
      break;
    case ScalarType::kI32:
      if (plan.kind == LanePlan::Kind::kContiguous) {
        const auto* src = reinterpret_cast<const std::int32_t*>(
            base + static_cast<std::int64_t>(plan.idx[0]) * 4);
        for (std::uint32_t c = 0; c < vec; c += 4) {
          simd::VecI32::Load(src + c).StoreSignExt64(out + c);
        }
      } else {
        for (std::uint32_t l = 0; l < vec; ++l) {
          out[l] = LoadScalar(
              base + static_cast<std::int64_t>(plan.idx[l]) * 4, ld.elem);
        }
      }
      break;
    case ScalarType::kU32:
      if (plan.kind == LanePlan::Kind::kContiguous) {
        const auto* src = reinterpret_cast<const std::int32_t*>(
            base + static_cast<std::int64_t>(plan.idx[0]) * 4);
        for (std::uint32_t c = 0; c < vec; c += 4) {
          simd::VecI32::Load(src + c).StoreZeroExt64(out + c);
        }
      } else {
        for (std::uint32_t l = 0; l < vec; ++l) {
          out[l] = LoadScalar(
              base + static_cast<std::int64_t>(plan.idx[l]) * 4, ld.elem);
        }
      }
      break;
    default:
      for (std::uint32_t l = 0; l < vec; ++l) {
        out[l] = LoadScalar(base + static_cast<std::int64_t>(plan.idx[l]) *
                                       static_cast<std::int64_t>(ld.esize),
                            ld.elem);
      }
      break;
  }
  for (std::uint32_t l = vec; l < lanes; ++l) {
    out[l] = LoadScalar(base + static_cast<std::int64_t>(plan.idx[l]) *
                                   static_cast<std::int64_t>(ld.esize),
                        ld.elem);
  }
  return true;
}

// Vector path for the fused MAC superop (acc += a[i]*b[j], f32/f64).
// MAC stays mul-then-add — two roundings, never an FMA — so results are
// byte-identical to the interpreter's kMul/kAdd pair. Returns false,
// having written nothing, when either load's classification fails.
bool SimdMac(LaneBatch& b, const FusedOp& op, const UniformBase& uba,
             const UniformBase& ubb, Value* acc) {
  const LanePlan pa =
      ClassifyLaneIndices(b, op.ld[0], uba, b.idx_scratch[0].data());
  if (!pa.ok) return false;
  const LanePlan pb =
      ClassifyLaneIndices(b, op.ld[1], ubb, b.idx_scratch[1].data());
  if (!pb.ok) return false;
  const std::uint8_t* abase = uba.data + uba.base_off;
  const std::uint8_t* bbase = ubb.data + ubb.base_off;
  const std::uint32_t lanes = b.lanes;
  const std::uint32_t vec = lanes & ~3u;
  const bool bca = pa.kind == LanePlan::Kind::kBroadcast;
  const bool bcb = pb.kind == LanePlan::Kind::kBroadcast;
  if (op.type == ScalarType::kF32) {
    // Hoist broadcast operands (matmul's A[row*n+k] is one per group) out
    // of the chunk loop.
    const simd::VecF32 ba =
        bca ? LoadF32Lanes(abase, pa, 0) : simd::VecF32::Broadcast(0.0f);
    const simd::VecF32 bb =
        bcb ? LoadF32Lanes(bbase, pb, 0) : simd::VecF32::Broadcast(0.0f);
    for (std::uint32_t c = 0; c < vec; c += 4) {
      const simd::VecF32 xa = bca ? ba : LoadF32Lanes(abase, pa, c);
      const simd::VecF32 xb = bcb ? bb : LoadF32Lanes(bbase, pb, c);
      const simd::VecF32 m = simd::Mul(xa, xb);
      const simd::VecF32 r =
          simd::Add(simd::ToF32(simd::VecF64::Load(&acc[c].f)), m);
      simd::ToF64(r).Store(&acc[c].f);
    }
    for (std::uint32_t l = vec; l < lanes; ++l) {
      float xa;
      float xb;
      std::memcpy(&xa, abase + static_cast<std::int64_t>(pa.idx[l]) * 4, 4);
      std::memcpy(&xb, bbase + static_cast<std::int64_t>(pb.idx[l]) * 4, 4);
      const float m = xa * xb;
      const float r = static_cast<float>(acc[l].f) + m;
      acc[l].f = r;
    }
    return true;
  }
  const simd::VecF64 ba =
      bca ? LoadF64Lanes(abase, pa, 0) : simd::VecF64::Broadcast(0.0);
  const simd::VecF64 bb =
      bcb ? LoadF64Lanes(bbase, pb, 0) : simd::VecF64::Broadcast(0.0);
  for (std::uint32_t c = 0; c < vec; c += 4) {
    const simd::VecF64 xa = bca ? ba : LoadF64Lanes(abase, pa, c);
    const simd::VecF64 xb = bcb ? bb : LoadF64Lanes(bbase, pb, c);
    const simd::VecF64 m = simd::Mul(xa, xb);
    const simd::VecF64 r = simd::Add(simd::VecF64::Load(&acc[c].f), m);
    r.Store(&acc[c].f);
  }
  for (std::uint32_t l = vec; l < lanes; ++l) {
    double xa;
    double xb;
    std::memcpy(&xa, abase + static_cast<std::int64_t>(pa.idx[l]) * 8, 8);
    std::memcpy(&xb, bbase + static_cast<std::int64_t>(pb.idx[l]) * 8, 8);
    const double m = xa * xb;
    const double r = acc[l].f + m;
    acc[l].f = r;
  }
  return true;
}

// ------------------------------------------------- Counted-loop superop

// True when every lane's i32 row value is the same; stores it in *out.
inline bool UniformI32(const Value* row, std::uint32_t lanes,
                       std::int32_t* out) {
  const auto v = static_cast<std::int32_t>(row[0].i);
  for (std::uint32_t l = 1; l < lanes; ++l) {
    if (static_cast<std::int32_t>(row[l].i) != v) return false;
  }
  *out = v;
  return true;
}

// One load of a counted loop, classified once for all of its trips: at
// trip t lane l reads element plan.idx[l] + t * step past `base`.
struct TripLoad {
  const std::uint8_t* base = nullptr;  // Buffer + the base pointer offset.
  LanePlan plan;                       // Trip-0 layout and lane indices.
  std::int64_t step = 0;
};

// Plans mac.ld[which] over `trips` trips of k += c: k occurs at most once,
// with a lane-uniform multiplier, so ClassifyLaneIndices' trip-0 precheck
// extends to the last trip and bounds every trip in between.
bool PlanTripLoad(LaneBatch& b, GroupContext& grp, const FusedOp& mac,
                  int which, std::int32_t k, std::int64_t trips,
                  std::int64_t c, TripLoad* out) {
  const IndexedLoad& ld = mac.ld[which];
  const UniformBase ub = ResolveUniformBase(b, grp, ld.base, ld.base_uniform);
  if (!ub.ok || (ld.s1 == k) + (ld.s2 == k) + (ld.s3 == k) > 1) return false;
  std::int32_t m = 0;  // Elements per unit of k.
  if (ld.s3 == k || (ld.s1 == k && ld.s2 < 0)) {
    m = 1;
  } else if ((ld.s1 == k || ld.s2 == k) &&
             !UniformI32(LocalRow(b, b.base + (ld.s1 == k ? ld.s2 : ld.s1)),
                         b.lanes, &m)) {
    return false;
  }
  out->plan = ClassifyLaneIndices(b, ld, ub, b.idx_scratch[which].data());
  out->step = m * c;
  if (!out->plan.ok || (trips > 1 && std::abs(out->step) > INT32_MAX)) {
    return false;
  }
  const std::int64_t last = (trips - 1) * out->step;
  const std::int64_t lo = out->plan.lo + std::min<std::int64_t>(last, 0);
  const std::int64_t hi = out->plan.hi + std::max<std::int64_t>(last, 0);
  out->base = ub.data + ub.base_off;
  return hi <= INT32_MAX && InBounds(ub, ld.esize, lo, hi);
}

template <class T, class Vec, LanePlan::Kind K>
inline Vec TripLanes(const TripLoad& ld, std::int64_t t, std::uint32_t c) {
  const std::int64_t shift = t * ld.step;
  if constexpr (K == LanePlan::Kind::kBroadcast) {
    T v;
    std::memcpy(&v, ld.base + (ld.plan.idx[0] + shift) * sizeof(T),
                sizeof(T));
    return Vec::Broadcast(v);
  } else if constexpr (K == LanePlan::Kind::kContiguous) {
    return Vec::Load(reinterpret_cast<const T*>(
        ld.base + (ld.plan.idx[0] + shift + c) * sizeof(T)));
  } else {
    return Vec::Gather(
        reinterpret_cast<const T*>(ld.base),
        simd::Add(simd::VecI32::Load(ld.plan.idx + c),
                  simd::VecI32::Broadcast(static_cast<std::int32_t>(shift))));
  }
}

// Every trip for lanes [c, c + 4 * NV), accumulators held in registers.
// Mul then Add, two roundings as kMul then kAdd: never an FMA.
template <class T, class Vec, int NV, LanePlan::Kind KX, LanePlan::Kind KY>
void MacTrips(T* acc, std::uint32_t c, std::int64_t trips, const TripLoad& x,
              const TripLoad& y) {
  Vec r[NV];
  for (int v = 0; v < NV; ++v) r[v] = Vec::Load(acc + c + 4 * v);
  for (std::int64_t t = 0; t < trips; ++t) {
    for (int v = 0; v < NV; ++v) {
      const std::uint32_t lane = c + 4 * v;
      r[v] = simd::Add(r[v], simd::Mul(TripLanes<T, Vec, KX>(x, t, lane),
                                       TripLanes<T, Vec, KY>(y, t, lane)));
    }
  }
  for (int v = 0; v < NV; ++v) r[v].Store(acc + c + 4 * v);
}

// Calls f with `kind` as a compile-time constant.
template <class F>
void WithKind(LanePlan::Kind kind, F&& f) {
  using K = LanePlan::Kind;
  switch (kind) {
    case K::kBroadcast: return f(std::integral_constant<K, K::kBroadcast>{});
    case K::kContiguous: return f(std::integral_constant<K, K::kContiguous>{});
    default: return f(std::integral_constant<K, K::kGather>{});
  }
}

// All trips for all lanes: blocks of 8 vectors, then single vectors, then
// the scalar tail lanes.
template <class T, class Vec>
void MacLanes(T* acc, std::uint32_t lanes, std::int64_t trips,
              const TripLoad& x, const TripLoad& y) {
  const std::uint32_t vec = lanes & ~3u;
  WithKind(x.plan.kind, [&](auto kx) {
    WithKind(y.plan.kind, [&](auto ky) {
      constexpr LanePlan::Kind kX = decltype(kx)::value;
      constexpr LanePlan::Kind kY = decltype(ky)::value;
      std::uint32_t c = 0;
      for (; c + 32 <= vec; c += 32) {
        MacTrips<T, Vec, 8, kX, kY>(acc, c, trips, x, y);
      }
      for (; c < vec; c += 4) MacTrips<T, Vec, 1, kX, kY>(acc, c, trips, x, y);
    });
  });
  for (std::uint32_t l = vec; l < lanes; ++l) {
    T r = acc[l];
    for (std::int64_t t = 0; t < trips; ++t) {
      T xa;
      T ya;
      std::memcpy(&xa, x.base + (x.plan.idx[l] + t * x.step) * sizeof(T),
                  sizeof(T));
      std::memcpy(&ya, y.base + (y.plan.idx[l] + t * y.step) * sizeof(T),
                  sizeof(T));
      const T m = xa * ya;
      r = r + m;
    }
    acc[l] = r;
  }
}

// Runs the counted loop headed by `cmp` (see CountedLoop) in one dispatch
// when every trip provably does what stepping would (docs/vm.md, "Counted
// loops"), charging exactly what stepping would. Otherwise returns false
// having changed nothing, and stepping finds the interpreter's trap. Each
// reason to decline holds for the rest of the loop, so a header reached by
// its own back edge is not tried again.
bool TryCountedLoop(LaneBatch& b, GroupContext& grp, const BatchPlan& plan,
                    const FusedOp& cmp, BatchGroupStats& stats) {
  const CountedLoop& loop = plan.loops[cmp.loop];
  if (b.jumped_from + 1 == loop.exit_pc) return false;
  const FusedOp& mac = plan.ops[loop.mac];
  const std::uint32_t lanes = b.lanes;
  Value* k = LocalRow(b, b.base + cmp.a);
  std::int32_t k0 = 0;
  std::int32_t bound = 0;
  if (!UniformI32(k, lanes, &k0) ||
      !UniformI32(LocalRow(b, b.base + cmp.b), lanes, &bound) ||
      k0 >= bound) {
    return false;
  }
  const std::int64_t c =
      static_cast<std::int32_t>(plan.ops[loop.step].constant.i);
  const std::int64_t trips = (std::int64_t{bound} - k0 + c - 1) / c;
  const std::int64_t k_end = k0 + trips * c;
  const std::uint64_t charge =
      static_cast<std::uint64_t>(trips) * loop.trip_length + cmp.length + 1;
  TripLoad x;
  TripLoad y;
  if (k_end > INT32_MAX || b.budget < charge ||
      !PlanTripLoad(b, grp, mac, 0, cmp.a, trips, c, &x) ||
      !PlanTripLoad(b, grp, mac, 1, cmp.a, trips, c, &y)) {
    return false;
  }
  Value* acc = LocalRow(b, b.base + mac.a);
  if (mac.type == ScalarType::kF32) {
    b.acc_f32.resize(lanes);
    for (std::uint32_t l = 0; l < lanes; ++l) {
      b.acc_f32[l] = static_cast<float>(acc[l].f);
    }
    MacLanes<float, simd::VecF32>(b.acc_f32.data(), lanes, trips, x, y);
    for (std::uint32_t l = 0; l < lanes; ++l) acc[l].f = b.acc_f32[l];
  } else {
    MacLanes<double, simd::VecF64>(&acc[0].f, lanes, trips, x, y);
  }
  for (std::uint32_t l = 0; l < lanes; ++l) k[l].i = k_end;
  b.pc = loop.exit_pc;
  b.budget -= charge;
  ++stats.batch_steps;
  ++stats.fused_steps;
  ++stats.simd_steps;
  stats.instructions += charge * lanes;
  return true;
}

// Runs one fused superop's vector body over all lanes. Returns false having
// changed nothing when the body cannot prove every lane exact (a base that
// is not one global buffer, an index that could trap or wrap); the caller
// then steps the op's instructions.
bool TryFused(LaneBatch& b, GroupContext& grp, const FusedOp& op) {
  const std::uint32_t lanes = b.lanes;
  switch (op.kind) {
    case FusedOp::Kind::kIndexedLoad: {
      const IndexedLoad& ld = op.ld[0];
      const UniformBase ub =
          ResolveUniformBase(b, grp, ld.base, ld.base_uniform);
      if (!ub.ok || !SimdIndexedLoad(b, ld, ub, Row(b, b.sp))) return false;
      ++b.sp;
      return true;
    }
    case FusedOp::Kind::kMacLocal: {
      // locals[a] += load(ld[0]) * load(ld[1]) — the entire MAC loop body
      // in one pass, no operand-stack traffic at all.
      const IndexedLoad& lda = op.ld[0];
      const IndexedLoad& ldb = op.ld[1];
      const UniformBase sa =
          ResolveUniformBase(b, grp, lda.base, lda.base_uniform);
      const UniformBase sb =
          ResolveUniformBase(b, grp, ldb.base, ldb.base_uniform);
      return sa.ok && sb.ok &&
             SimdMac(b, op, sa, sb, LocalRow(b, b.base + op.a));
    }
    case FusedOp::Kind::kCompareLocals:
      SimdCompareI32Rows(op.op, LocalRow(b, b.base + op.a),
                         LocalRow(b, b.base + op.b), Row(b, b.sp++), lanes);
      return true;
    case FusedOp::Kind::kLocalAddConst: {
      // The classic k++: EvalBinary's exact i32 wrap, no per-lane call.
      Value* row = LocalRow(b, b.base + op.a);
      const auto c = static_cast<std::uint32_t>(op.constant.i);
      const simd::VecI32 vc =
          simd::VecI32::Broadcast(static_cast<std::int32_t>(c));
      const std::uint32_t vec = lanes & ~3u;
      for (std::uint32_t l = 0; l < vec; l += 4) {
        simd::Add(simd::VecI32::LoadLow64(row + l), vc)
            .StoreSignExt64(row + l);
      }
      for (std::uint32_t l = vec; l < lanes; ++l) {
        row[l].i = static_cast<std::int32_t>(
            static_cast<std::uint32_t>(row[l].i) + c);
      }
      return true;
    }
  }
  return false;
}

// Executes one maskable instruction (IsMaskableOp) over every lane, or,
// inside a masked region, under `mask`. Transient operand-stack traffic
// (push const/local/dup, pops) runs full-row — inactive lanes' garbage is
// discarded at re-convergence — but anything with an observable effect
// (stores, memory ops, builtins) and anything that could trap or hit UB on
// garbage (pointer decode, EvalBinary, kConvert on an arbitrary double)
// skips inactive lanes. The typed and vector rows run only unmasked.
Status StepOp(LaneBatch& b, GroupContext& grp, const Instruction& instr,
              const std::uint8_t* mask, BatchGroupStats& stats) {
  const std::uint32_t lanes = b.lanes;
  auto for_lanes = [mask, lanes](auto&& f) {
    for (std::uint32_t l = 0; l < lanes; ++l) {
      if (mask == nullptr || mask[l] != 0) f(l);
    }
  };
  switch (instr.op) {
    case Opcode::kNop:
      break;
    case Opcode::kPushConst: {
      const Value v = grp.module.literals[instr.a];
      Value* row = Row(b, b.sp++);
      for (std::uint32_t l = 0; l < lanes; ++l) row[l] = v;
      break;
    }
    case Opcode::kLoadLocal:
      std::memcpy(Row(b, b.sp++), LocalRow(b, b.base + instr.a),
                  sizeof(Value) * lanes);
      break;
    case Opcode::kStoreLocal: {
      const Value* src = Row(b, --b.sp);
      Value* dst = LocalRow(b, b.base + instr.a);
      if (mask == nullptr) {
        std::memcpy(dst, src, sizeof(Value) * lanes);
      } else {
        for_lanes([&](std::uint32_t l) { dst[l] = src[l]; });
      }
      break;
    }
    case Opcode::kDup:
      std::memcpy(Row(b, b.sp), Row(b, b.sp - 1), sizeof(Value) * lanes);
      ++b.sp;
      break;
    case Opcode::kPop:
      --b.sp;
      break;
    case Opcode::kLoadMem:
      return MemRow(b, grp, instr.type, Row(b, b.sp - 1), nullptr, mask);
    case Opcode::kStoreMem:
      b.sp -= 2;
      return MemRow(b, grp, instr.type, Row(b, b.sp), Row(b, b.sp + 1), mask);
    case Opcode::kPtrAdd:
      --b.sp;
      PtrAddRow(Row(b, b.sp - 1), Row(b, b.sp), instr.a, mask, lanes);
      break;
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
      const Value* rhs = Row(b, --b.sp);
      Value* lhs = Row(b, b.sp - 1);
      if (mask == nullptr &&
          SimdBinaryRows(instr.op, instr.type, lhs, rhs, lanes)) {
        ++stats.simd_steps;
        break;
      }
      if (mask == nullptr &&
          BinaryFastLoop(instr.op, instr.type, lhs, rhs, lanes)) {
        break;
      }
      for (std::uint32_t l = 0; l < lanes; ++l) {
        if (mask != nullptr && mask[l] == 0) continue;
        Status s = EvalBinary(instr.op, instr.type, lhs[l], rhs[l], &lhs[l]);
        if (!s.ok()) return s;
      }
      break;
    }
    case Opcode::kNeg: {
      Value* row = Row(b, b.sp - 1);
      for_lanes([&](std::uint32_t l) {
        Value& v = row[l];
        if (IsFloat(instr.type)) {
          v.f = instr.type == ScalarType::kF32 ? -static_cast<float>(v.f)
                                               : -v.f;
        } else if (IsUnsignedInt(instr.type)) {
          v.u = ScalarSize(instr.type) == 8
                    ? 0 - v.u
                    : static_cast<std::uint32_t>(0 - v.u);
        } else {
          v.i = ScalarSize(instr.type) == 8 ? -v.i
                                            : static_cast<std::int32_t>(-v.i);
        }
      });
      break;
    }
    case Opcode::kBitNot: {
      Value* row = Row(b, b.sp - 1);
      for_lanes([&](std::uint32_t l) {
        Value& v = row[l];
        if (IsUnsignedInt(instr.type)) {
          v.u = ScalarSize(instr.type) == 8 ? ~v.u
                                            : static_cast<std::uint32_t>(~v.u);
        } else {
          v.i = ScalarSize(instr.type) == 8
                    ? ~v.i
                    : static_cast<std::int32_t>(
                          ~static_cast<std::int32_t>(v.i));
        }
      });
      break;
    }
    case Opcode::kEq:
    case Opcode::kNe:
    case Opcode::kLt:
    case Opcode::kLe:
    case Opcode::kGt:
    case Opcode::kGe: {
      const Value* rhs = Row(b, --b.sp);
      Value* lhs = Row(b, b.sp - 1);
      if (mask == nullptr && instr.type == ScalarType::kI32) {
        SimdCompareI32Rows(instr.op, lhs, rhs, lhs, lanes);
        ++stats.simd_steps;
        break;
      }
      for_lanes([&](std::uint32_t l) {
        lhs[l].i = EvalCompare(instr.op, instr.type, lhs[l], rhs[l]) ? 1 : 0;
      });
      break;
    }
    case Opcode::kLogicalNot: {
      Value* row = Row(b, b.sp - 1);
      for_lanes([&](std::uint32_t l) { row[l].i = row[l].i == 0 ? 1 : 0; });
      break;
    }
    case Opcode::kConvert: {
      // Masked even though the result is transient: converting an
      // inactive lane's garbage (e.g. a huge double to int) is UB.
      Value* row = Row(b, b.sp - 1);
      const auto to = static_cast<ScalarType>(instr.a);
      if (mask == nullptr) {
        ConvertRow(row, instr.type, to, lanes);
      } else {
        for_lanes([&](std::uint32_t l) {
          row[l] = ConvertValue(row[l], instr.type, to);
        });
      }
      break;
    }
    case Opcode::kCallBuiltin:
      return BuiltinRow(b, grp, instr, mask);
    default:
      // Unreachable: RunBatch steps control flow itself, and a masked
      // region was pre-scanned with IsMaskableOp.
      return Trap(grp, b.pc - 1, "non-maskable op in masked region");
  }
  return Status::Ok();
}

// Tries to run the divergent forward branch at pc-1 (operands already
// popped, condition row in `cond`) as a masked region instead of bailing
// out. Budget parity with the interpreter: the shared budget is charged the
// region's whole span once up-front — exactly what every lane would pay
// running it unmasked — and each inactive lane records a refund so a later
// bail-out (or per-lane trap pc) still sees the interpreter's per-item
// counter. Returns with *masked=false (and no state change) when the
// region is not eligible.
Status TryRunMaskedRegion(LaneBatch& b, GroupContext& grp,
                          const Instruction& instr, const Value* cond,
                          BatchGroupStats& stats, bool* masked) {
  *masked = false;
  if (instr.op != Opcode::kJumpIfFalse ||
      (instr.flags & kInstrFlagMaskedRegion) == 0) {
    return Status::Ok();
  }
  const auto& code = grp.module.code;
  const auto target = static_cast<std::uint32_t>(instr.a);
  if (target <= b.pc || target > code.size()) return Status::Ok();
  const std::uint64_t span = target - b.pc;
  if (b.budget < span) return Status::Ok();  // Single-step to the exact trap.
  for (std::uint32_t p = b.pc; p < target; ++p) {
    if (!IsMaskableOp(code[p].op)) return Status::Ok();
  }
  const std::uint32_t lanes = b.lanes;
  std::uint32_t active_count = 0;
  for (std::uint32_t l = 0; l < lanes; ++l) {
    // kJumpIfFalse falls into the region when the condition is true.
    const std::uint8_t a = cond[l].i != 0 ? 1 : 0;
    b.active[l] = a;
    if (a) {
      ++active_count;
    } else {
      b.refund[l] += span;
    }
  }
  b.has_refund = true;
  b.budget -= span;
  stats.batch_steps += span;
  stats.masked_steps += span;
  stats.instructions += span * active_count;
  *masked = true;
  while (b.pc < target) {
    Status s = StepOp(b, grp, code[b.pc++], b.active.data(), stats);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Status RunBatch(LaneBatch& b, GroupContext& grp, const BatchPlan& plan,
                BatchGroupStats& stats) {
  const auto& code = grp.module.code;
  const std::uint32_t lanes = b.lanes;

  while (true) {
    // Trace-fused superop at this pc? One vector dispatch covers `length`
    // instructions. Where its body cannot run, and near budget exhaustion
    // (so the trap point matches the interpreter exactly), the
    // instructions single-step instead.
    if (b.pc < plan.fused_at.size() && plan.fused_at[b.pc] >= 0) {
      const FusedOp& fop = plan.ops[plan.fused_at[b.pc]];
      if (fop.loop >= 0 && TryCountedLoop(b, grp, plan, fop, stats)) {
        continue;
      }
      if (b.budget >= fop.length && TryFused(b, grp, fop)) {
        b.budget -= fop.length;
        b.pc += fop.length;
        ++stats.batch_steps;
        ++stats.fused_steps;
        ++stats.simd_steps;
        stats.instructions += static_cast<std::uint64_t>(fop.length) * lanes;
        continue;
      }
    }

    if (b.budget == 0) {
      if (b.has_refund) {
        // Lanes owed refunds no longer exhaust their budgets in unison;
        // let the interpreter find each lane's exact trap point.
        return BailOutUniform(b, grp, b.pc, stats);
      }
      return Trap(grp, b.pc, "instruction budget exhausted (infinite loop?)");
    }
    --b.budget;
    if (b.pc >= code.size()) return Trap(grp, b.pc, "pc out of range");
    ++stats.batch_steps;
    stats.instructions += lanes;
    const Instruction& instr = code[b.pc++];

    switch (instr.op) {
      case Opcode::kJump:
        b.jumped_from = b.pc - 1;
        b.pc = static_cast<std::uint32_t>(instr.a);
        break;
      case Opcode::kJumpIfFalse:
      case Opcode::kJumpIfTrue: {
        const Value* cond = Row(b, --b.sp);
        const bool want_true = instr.op == Opcode::kJumpIfTrue;
        const bool jump0 = (cond[0].i != 0) == want_true;
        bool divergent = false;
        if ((instr.flags & kInstrFlagUniformBranch) == 0) {
          for (std::uint32_t l = 1; l < lanes; ++l) {
            if (((cond[l].i != 0) == want_true) != jump0) {
              divergent = true;
              break;
            }
          }
        }
        if (!divergent) {
          if (jump0) {
            b.jumped_from = b.pc - 1;
            b.pc = static_cast<std::uint32_t>(instr.a);
          }
          break;
        }
        // Short straight-line guard bodies run under a partial-lane mask;
        // everything else transposes and finishes via the interpreter.
        bool masked = false;
        Status ms = TryRunMaskedRegion(b, grp, instr, cond, stats, &masked);
        if (masked) {
          if (!ms.ok()) return ms;
          break;
        }
        const auto target = static_cast<std::uint32_t>(instr.a);
        std::vector<std::uint32_t> pcs(lanes);
        for (std::uint32_t m = 0; m < lanes; ++m) {
          pcs[m] = ((cond[m].i != 0) == want_true) ? target : b.pc;
        }
        return BailOut(b, grp, pcs.data(), stats);
      }
      case Opcode::kCall: {
        const CompiledFunction& callee = grp.module.functions[instr.a];
        if (callee.max_stack_slots == 0) {
          // No batch metadata for the callee: refund this instruction and
          // re-execute the call through the interpreter.
          ++b.budget;
          --stats.batch_steps;
          stats.instructions -= lanes;
          return BailOutUniform(b, grp, b.pc - 1, stats);
        }
        if (b.frames.size() >= 256) {
          return Trap(grp, b.pc - 1, "call stack overflow");
        }
        EnsureStackRows(b, b.sp + callee.max_stack_slots);
        b.frames.push_back(Frame{b.pc, b.base});
        const std::uint32_t new_base = b.local_rows;
        b.local_rows = new_base + callee.local_slots;
        b.locals.resize(static_cast<std::size_t>(b.local_rows) * lanes);
        const auto argc = static_cast<std::uint32_t>(instr.b);
        for (std::uint32_t i = 0; i < argc; ++i) {
          std::memcpy(LocalRow(b, new_base + i), Row(b, b.sp - argc + i),
                      sizeof(Value) * lanes);
        }
        b.sp -= argc;
        b.base = new_base;
        b.pc = callee.entry_pc;
        break;
      }
      case Opcode::kReturn: {
        if (b.frames.empty()) {
          // All lanes finish together (they are in lockstep by definition).
          return Status::Ok();
        }
        // If a value is being returned its row at sp-1 simply stays in
        // place and becomes the caller's new top of stack; sp is unchanged
        // either way (the interpreter pops and re-pushes it).
        const Frame frame = b.frames.back();
        b.frames.pop_back();
        b.local_rows = b.base;
        b.locals.resize(static_cast<std::size_t>(b.local_rows) * lanes);
        b.base = frame.prev_base;
        b.pc = frame.return_pc;
        break;
      }
      case Opcode::kBarrier:
        // Lockstep means every lane is here in the same batch step: the
        // barrier is already satisfied, no suspend/resume needed.
        if (!grp.kernel.uses_barrier) {
          return Trap(grp, b.pc, "barrier in kernel not marked uses_barrier");
        }
        break;
      default: {
        Status s = StepOp(b, grp, instr, nullptr, stats);
        if (!s.ok()) return s;
        break;
      }
    }
  }
}

}  // namespace

BatchPlan BuildBatchPlan(const Module& module) {
  BatchPlan plan;
  const auto& code = module.code;
  const auto& literals = module.literals;

  // A fused superop must be straight-line: no jump may land strictly inside
  // it. Collect every possible entry point.
  std::vector<bool> is_target(code.size() + 1, false);
  for (const auto& fn : module.functions) {
    if (fn.entry_pc < is_target.size()) is_target[fn.entry_pc] = true;
  }
  for (std::size_t i = 0; i < code.size(); ++i) {
    const Instruction& in = code[i];
    switch (in.op) {
      case Opcode::kJump:
      case Opcode::kJumpIfFalse:
      case Opcode::kJumpIfTrue:
        if (in.a >= 0 && static_cast<std::size_t>(in.a) < is_target.size()) {
          is_target[in.a] = true;
        }
        break;
      case Opcode::kCall:
        is_target[i + 1] = true;  // Return address.
        break;
      default:
        break;
    }
  }

  plan.fused_at.assign(code.size(), -1);
  auto straight = [&](std::size_t p, std::uint32_t len) {
    if (p + len > code.size()) return false;
    for (std::uint32_t u = 1; u < len; ++u) {
      if (is_target[p + u]) return false;
    }
    return true;
  };

  // Indexed load fed entirely from locals, with an i32 index and the
  // loaded element's own size as the stride: either
  //   [load base][load s1][load s2][mul i32][load s3][add i32]
  //   [convert i32->i64][ptradd][loadmem]            (the a[row*n+k] shape)
  // or the single-index form
  //   [load base][load s1][convert i32->i64][ptradd][loadmem].
  auto load_tail = [&](std::size_t p) {  // The last three, at p.
    return code[p].op == Opcode::kConvert &&
           code[p].type == ScalarType::kI32 &&
           static_cast<ScalarType>(code[p].a) == ScalarType::kI64 &&
           code[p + 1].op == Opcode::kPtrAdd &&
           code[p + 2].op == Opcode::kLoadMem &&
           code[p + 1].a ==
               static_cast<std::int32_t>(ScalarSize(code[p + 2].type));
  };
  auto match_indexed_load = [&](std::size_t p, IndexedLoad* out) {
    if (!straight(p, 5) || code[p].op != Opcode::kLoadLocal ||
        code[p + 1].op != Opcode::kLoadLocal) {
      return false;
    }
    const bool two_term =
        straight(p, 9) && code[p + 2].op == Opcode::kLoadLocal &&
        code[p + 3].op == Opcode::kMul &&
        code[p + 3].type == ScalarType::kI32 &&
        code[p + 4].op == Opcode::kLoadLocal &&
        code[p + 5].op == Opcode::kAdd &&
        code[p + 5].type == ScalarType::kI32 && load_tail(p + 6);
    if (!two_term && !load_tail(p + 2)) return false;
    out->length = two_term ? 9 : 5;
    out->base = code[p].a;
    out->s1 = code[p + 1].a;
    out->s2 = two_term ? code[p + 2].a : -1;
    out->s3 = two_term ? code[p + 4].a : -1;
    out->esize = code[p + out->length - 2].a;
    out->elem = code[p + out->length - 1].type;
    out->base_uniform = (code[p].flags & kInstrFlagLaneUniform) != 0;
    const std::uint8_t f1 = code[p + 1].flags;
    if (!two_term) {
      out->affine = (f1 & kInstrFlagLaneAffine) != 0;
      return true;
    }
    // s1*s2+s3 is affine in the lane id iff the product has at most one
    // lane-affine factor (the other uniform) and the addend is affine.
    const std::uint8_t f2 = code[p + 2].flags;
    const bool prod_affine =
        ((f1 & kInstrFlagLaneAffine) != 0 &&
         (f2 & kInstrFlagLaneUniform) != 0) ||
        ((f1 & kInstrFlagLaneUniform) != 0 &&
         (f2 & kInstrFlagLaneAffine) != 0);
    out->affine =
        prod_affine && (code[p + 4].flags & kInstrFlagLaneAffine) != 0;
    return true;
  };

  std::size_t i = 0;
  while (i < code.size()) {
    FusedOp op;
    bool matched = false;

    // The full MAC body — locals[acc] += A-load * B-load, f32 or f64 with
    // loads of that type — in one superop (up to 24 instructions:
    // matmul's `acc += a[row*n+k] * b[k*n+col]`).
    if (code[i].op == Opcode::kLoadLocal &&
        match_indexed_load(i + 1, &op.ld[0]) &&
        match_indexed_load(i + 1 + op.ld[0].length, &op.ld[1])) {
      const std::size_t j = i + 1 + op.ld[0].length + op.ld[1].length;
      const std::uint32_t total =
          1 + op.ld[0].length + op.ld[1].length + 3;
      if (straight(i, total) && IsFloat(code[j].type) &&
          op.ld[0].elem == code[j].type && op.ld[1].elem == code[j].type &&
          code[j].op == Opcode::kMul && code[j + 1].op == Opcode::kAdd &&
          code[j + 1].type == code[j].type &&
          code[j + 2].op == Opcode::kStoreLocal &&
          code[j + 2].a == code[i].a) {
        op.kind = FusedOp::Kind::kMacLocal;
        op.type = code[j].type;
        op.a = code[i].a;
        op.length = total;
        matched = true;
      }
    }
    // A lone indexed load (array subscript straight from locals).
    if (!matched && match_indexed_load(i, &op.ld[0])) {
      op.kind = FusedOp::Kind::kIndexedLoad;
      op.length = op.ld[0].length;
      matched = true;
    }

    // locals[s] = locals[s] +/- const on i32 (loop counter steps), with or
    // without a convert of the literal. Without one the literal keeps
    // codegen's i64 tag (`k += 2` on an int): an i32 add reads only the
    // low 32 bits, which ConvertValue keeps. A subtraction adds the
    // negated constant, the same i32 wrap.
    if (!matched && straight(i, 4) && code[i].op == Opcode::kLoadLocal &&
        code[i + 1].op == Opcode::kPushConst) {
      const ScalarType lit = code[i + 1].type;
      const bool cvt = code[i + 2].op == Opcode::kConvert &&
                       code[i + 2].type == lit &&
                       static_cast<ScalarType>(code[i + 2].a) ==
                           ScalarType::kI32;
      const std::size_t add = i + (cvt ? 3 : 2);
      if ((cvt || IsInteger(lit)) && straight(i, add + 2 - i) &&
          (code[add].op == Opcode::kAdd || code[add].op == Opcode::kSub) &&
          code[add].type == ScalarType::kI32 &&
          code[add + 1].op == Opcode::kStoreLocal &&
          code[add + 1].a == code[i].a) {
        op.kind = FusedOp::Kind::kLocalAddConst;
        op.a = code[i].a;
        op.constant =
            ConvertValue(literals[code[i + 1].a], lit, ScalarType::kI32);
        if (code[add].op == Opcode::kSub) {
          op.constant.i = static_cast<std::int32_t>(
              0u - static_cast<std::uint32_t>(op.constant.i));
        }
        op.length = static_cast<std::uint32_t>(add + 2 - i);
        matched = true;
      }
    }
    // locals[a] <cmp> locals[b] on i32 (loop conditions: k < n).
    if (!matched && straight(i, 3) && code[i].op == Opcode::kLoadLocal &&
        code[i + 1].op == Opcode::kLoadLocal &&
        code[i + 2].op >= Opcode::kEq && code[i + 2].op <= Opcode::kGe &&
        code[i + 2].type == ScalarType::kI32) {
      op.kind = FusedOp::Kind::kCompareLocals;
      op.op = code[i + 2].op;
      op.a = code[i].a;
      op.b = code[i + 1].a;
      op.length = 3;
      matched = true;
    }

    if (matched) {
      plan.fused_at[i] = static_cast<std::int32_t>(plan.ops.size());
      plan.ops.push_back(op);
      i += op.length;
    } else {
      ++i;
    }
  }

  // Counted MAC loops (see CountedLoop), read off the ops matched above.
  auto op_at = [&](std::size_t pc, FusedOp::Kind kind) -> const FusedOp* {
    if (pc >= code.size() || plan.fused_at[pc] < 0) return nullptr;
    const FusedOp* op = &plan.ops[plan.fused_at[pc]];
    return op->kind == kind ? op : nullptr;
  };
  for (std::size_t h = 0; h < code.size(); ++h) {
    const FusedOp* cmp = op_at(h, FusedOp::Kind::kCompareLocals);
    const std::size_t jif = h + 3;  // kCompareLocals replaces 3.
    const FusedOp* mac = op_at(jif + 1, FusedOp::Kind::kMacLocal);
    if (cmp == nullptr || mac == nullptr || cmp->op != Opcode::kLt ||
        code[jif].op != Opcode::kJumpIfFalse) {
      continue;
    }
    const std::size_t step_pc = jif + 1 + mac->length;
    const FusedOp* step = op_at(step_pc, FusedOp::Kind::kLocalAddConst);
    const std::size_t back = step_pc + (step != nullptr ? step->length : 0);
    if (step == nullptr || step->a != cmp->a ||
        static_cast<std::int32_t>(step->constant.i) <= 0 ||
        back >= code.size() || code[back].op != Opcode::kJump ||
        code[back].a != static_cast<std::int32_t>(h) ||
        code[jif].a != static_cast<std::int32_t>(back + 1)) {
      continue;
    }
    const std::int32_t k = cmp->a;
    const std::int32_t acc = mac->a;
    bool disjoint = acc != k && acc != cmp->b;
    for (const IndexedLoad& ld : mac->ld) {
      disjoint = disjoint && k != ld.base && acc != ld.base && acc != ld.s1 &&
                 acc != ld.s2 && acc != ld.s3;
    }
    if (!disjoint) continue;
    plan.ops[plan.fused_at[h]].loop =
        static_cast<std::int32_t>(plan.loops.size());
    plan.loops.push_back(CountedLoop{
        plan.fused_at[jif + 1], plan.fused_at[step_pc],
        static_cast<std::uint32_t>(back + 1),
        cmp->length + 1 + mac->length + step->length + 1});
  }
  return plan;
}

Status RunGroupBatched(GroupContext& grp, const BatchPlan& plan,
                       LaneBatch& batch, BatchGroupStats& stats) {
  const auto& local = grp.range.local;
  const auto group_size =
      static_cast<std::uint32_t>(local[0] * local[1] * local[2]);
  ResetLocalMem(grp.kernel, grp.args, batch.local_mem);
  grp.local_mem = &batch.local_mem;
  InitBatch(batch, grp, group_size);
  return RunBatch(batch, grp, plan, stats);
}

}  // namespace haocl::oclc::vmdetail
