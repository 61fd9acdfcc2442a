// Bytecode VM executing compiled kernels over an NDRange.
//
// Execution model: work-groups are independent and run on one process-wide
// exec pool that the launching thread joins (this is the "compute unit"
// parallelism of the simulated device). Within a work-group two engines
// exist:
//
//  - kBatched (default): the whole group runs in lockstep as one lane
//    batch — each instruction is dispatched once and applied to every
//    work-item through a contiguous-lane inner loop over SoA operand
//    stacks; hot loops and the fused superops run on simd.h's 4-lane
//    vectors (its scalar backend when the build forces one), and a fused
//    op whose vector body cannot run steps its instructions instead.
//    barrier() is just the end of a batch step. When a branch condition
//    diverges across lanes the engine masks a short guard or bails out to
//    the interpreter. See docs/vm.md.
//  - kInterpreter: the original one-work-item-at-a-time interpreter; each
//    item runs until it finishes or reaches a barrier(), where its machine
//    state (pc, operand stack, locals, frames) is suspended until the whole
//    group arrived. Kept bit-identical as the oracle for the batched
//    engine.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "oclc/bytecode.h"

namespace haocl::oclc {

// Launch geometry (OpenCL NDRange, up to 3 dimensions).
struct NDRange {
  std::uint32_t work_dim = 1;
  std::uint64_t global[3] = {1, 1, 1};
  std::uint64_t local[3] = {1, 1, 1};
  // clEnqueueNDRangeKernel's global_work_offset: get_global_id(d) returns
  // offset[d] + linear id, while get_global_size(d) stays global[d]. The
  // host runtime uses this to run one shard of a partitioned launch.
  std::uint64_t offset[3] = {0, 0, 0};
  bool local_specified = false;
};

// One bound kernel argument.
struct ArgBinding {
  enum class Kind : std::uint8_t { kBuffer, kScalar, kLocalMem };
  Kind kind = Kind::kScalar;

  // kBuffer: borrowed device-buffer bytes (writable).
  std::uint8_t* data = nullptr;
  std::uint64_t size = 0;

  // kScalar: canonical value + its declared type.
  Value scalar{};
  ScalarType scalar_type = ScalarType::kI32;

  // kLocalMem: per-group scratch size in bytes.
  std::uint64_t local_size = 0;

  static ArgBinding Buffer(void* data, std::uint64_t size) {
    ArgBinding b;
    b.kind = Kind::kBuffer;
    b.data = static_cast<std::uint8_t*>(data);
    b.size = size;
    return b;
  }
  static ArgBinding Scalar(Value v, ScalarType t) {
    ArgBinding b;
    b.kind = Kind::kScalar;
    b.scalar = v;
    b.scalar_type = t;
    return b;
  }
  static ArgBinding LocalMem(std::uint64_t bytes) {
    ArgBinding b;
    b.kind = Kind::kLocalMem;
    b.local_size = bytes;
    return b;
  }
  // Convenience constructors used heavily in tests.
  static ArgBinding Int(std::int32_t v) {
    Value value;
    value.i = v;
    return Scalar(value, ScalarType::kI32);
  }
  static ArgBinding UInt(std::uint32_t v) {
    Value value;
    value.u = v;
    return Scalar(value, ScalarType::kU32);
  }
  static ArgBinding Long(std::int64_t v) {
    Value value;
    value.i = v;
    return Scalar(value, ScalarType::kI64);
  }
  static ArgBinding Float(float v) {
    Value value;
    value.f = static_cast<double>(v);
    return Scalar(value, ScalarType::kF32);
  }
  static ArgBinding Double(double v) {
    Value value;
    value.f = v;
    return Scalar(value, ScalarType::kF64);
  }
};

// Which per-group execution engine LaunchKernel uses.
enum class VmEngine : std::uint8_t {
  kBatched,      // Lane-batch lockstep engine (falls back on divergence).
  kInterpreter,  // Legacy per-work-item interpreter (the oracle).
};

struct LaunchOptions {
  // The launch's width: how many threads run its work-groups at once — the
  // calling thread plus up to num_threads - 1 helpers of the process-wide
  // exec pool, which concurrent launches share (docs/vm.md). 0 means
  // "auto": one per hardware thread. The width is capped by the number of
  // groups and by 64. Device drivers size this from
  // sim::DeviceSpec::compute_units instead.
  int num_threads = 0;
  std::uint64_t max_instructions_per_item = 1ULL << 33;  // Runaway guard.
  VmEngine engine = VmEngine::kBatched;
};

// Execution counters for one launch (filled when the caller passes a stats
// out-param; summed over every thread that ran its groups).
struct VmStats {
  std::uint64_t instructions = 0;  // Work-item instructions executed.
  std::uint64_t batch_steps = 0;   // Batched dispatches (1 per instruction
                                   // per GROUP, not per item).
  std::uint64_t fused_steps = 0;   // Batched dispatches through a fused op
                                   // (subset of simd_steps: every fused
                                   // dispatch runs a vector body).
  std::uint64_t simd_steps = 0;    // Batched dispatches that took a vector
                                   // path (subset of batch_steps).
  std::uint64_t masked_steps = 0;  // Instructions executed under a partial
                                   // lane mask instead of a bail-out.
  std::uint64_t bailouts = 0;      // Groups that diverged to the interpreter.
  std::uint64_t groups = 0;        // Work-groups executed.
  int threads_used = 0;            // The launch's width: num_threads (or
                                   // the hardware threads) capped by the
                                   // group count and 64. Helpers busy with
                                   // other launches may leave some seats
                                   // empty; the caller always runs groups.
};

// Executes `kernel` from `module` over `range` with `args` bound in
// declaration order. Blocking; returns once every work-group finished.
Status LaunchKernel(const Module& module, const CompiledFunction& kernel,
                    const std::vector<ArgBinding>& args, const NDRange& range,
                    const LaunchOptions& options = {},
                    VmStats* stats = nullptr);

// Fills in range.local when the caller did not specify it, mirroring the
// OpenCL runtime's choice for clEnqueueNDRangeKernel(local_size=NULL).
// When the kernel is known and barrier-free, prefers wider dim-0 groups
// (up to 256 lanes) so the batched engine amortizes dispatch; barrier
// kernels keep the conservative 64 cap.
void ChooseLocalSize(NDRange& range) noexcept;
void ChooseLocalSize(NDRange& range, const CompiledFunction* kernel) noexcept;

}  // namespace haocl::oclc
