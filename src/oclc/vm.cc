// Kernel launch driver: validation, local-size selection, the work-group
// worker pool, and the legacy per-work-item interpreter (the oracle engine).
// The default lane-batch engine lives in vm_batch.cc; everything the two
// engines share is in vm_internal.h.
#include "oclc/vm.h"

#include <atomic>
#include <mutex>
#include <thread>

#include "common/simd.h"
#include "oclc/vm_internal.h"

namespace haocl::oclc {
namespace {

using vmdetail::BatchGroupStats;
using vmdetail::BatchPlan;
using vmdetail::GroupContext;
using vmdetail::InitItem;
using vmdetail::ItemState;
using vmdetail::ResetLocalMem;
using vmdetail::RunItem;
using vmdetail::RunResult;
using vmdetail::RunStatesToCompletion;
using vmdetail::Trap;

// Legacy engine: one work-item at a time. `instructions` accumulates the
// number of work-item instructions retired (derived from budget drain).
Status RunGroup(GroupContext& grp, std::uint64_t* instructions) {
  const auto& local = grp.range.local;
  const std::uint64_t group_size = local[0] * local[1] * local[2];
  const std::uint64_t budget0 = grp.options.max_instructions_per_item;

  std::vector<std::vector<std::uint8_t>> local_mem;
  ResetLocalMem(grp.kernel, grp.args, local_mem);
  grp.local_mem = &local_mem;

  if (!grp.kernel.uses_barrier) {
    // Fast path: items are independent; reuse one machine state.
    ItemState st;
    for (std::uint64_t i = 0; i < group_size; ++i) {
      InitItem(st, grp.kernel, grp.args, grp, i);
      auto result = RunItem(st, grp);
      if (!result.ok()) return result.status();
      if (*result == RunResult::kBarrier) {
        return Trap(grp, st.pc, "barrier in kernel not marked uses_barrier");
      }
      *instructions += budget0 - st.budget;
    }
    return Status::Ok();
  }

  // Barrier path: all items live simultaneously; sweep until all done.
  std::vector<ItemState> states(group_size);
  for (std::uint64_t i = 0; i < group_size; ++i) {
    InitItem(states[i], grp.kernel, grp.args, grp, i);
  }
  Status s = RunStatesToCompletion(states, grp);
  if (!s.ok()) return s;
  for (const auto& st : states) *instructions += budget0 - st.budget;
  return Status::Ok();
}

}  // namespace

void ChooseLocalSize(NDRange& range) noexcept {
  ChooseLocalSize(range, nullptr);
}

void ChooseLocalSize(NDRange& range, const CompiledFunction* kernel) noexcept {
  if (range.local_specified) return;
  for (int d = 0; d < 3; ++d) range.local[d] = 1;
  // Barrier-free kernels get wide dim-0 groups so the lane-batch engine has
  // enough lanes to amortize dispatch; barrier kernels keep the conservative
  // cap (a barrier group holds all its items' machine state live at once).
  const bool wide = kernel != nullptr && !kernel->uses_barrier;
  const std::uint64_t cap = wide ? 256 : 64;
  // Largest power of two dividing global[0], capped.
  std::uint64_t size = 1;
  while (size < cap && range.global[0] % (size * 2) == 0) size *= 2;
  if (wide && size < cap) {
    // Odd dim-0 extents still deserve wide batches: largest divisor <= cap,
    // preferring a SIMD-width multiple so the vector tier runs full chunks
    // instead of scalar tails (e.g. 500 -> 100, not 250).
    std::uint64_t best = size;
    std::uint64_t best_vec = 0;
    for (std::uint64_t d = std::min<std::uint64_t>(cap, range.global[0]);
         d > size; --d) {
      if (range.global[0] % d != 0) continue;
      if (best == size) best = d;  // Largest divisor of any alignment.
      if (simd::kEnabled &&
          d % static_cast<std::uint64_t>(simd::kWidth) == 0) {
        best_vec = d;  // Largest vector-width-multiple divisor.
        break;
      }
    }
    size = best_vec != 0 ? best_vec : best;
  }
  range.local[0] = size;
  range.local_specified = true;
}

Status LaunchKernel(const Module& module, const CompiledFunction& kernel,
                    const std::vector<ArgBinding>& args, const NDRange& range,
                    const LaunchOptions& options, VmStats* stats) {
  // ---- Validation -------------------------------------------------------
  if (args.size() != kernel.params.size()) {
    return Status(ErrorCode::kInvalidKernelArgs,
                  "kernel '" + kernel.name + "' expects " +
                      std::to_string(kernel.params.size()) + " args, got " +
                      std::to_string(args.size()));
  }
  for (std::size_t i = 0; i < args.size(); ++i) {
    const KernelArgInfo& param = kernel.params[i];
    const ArgBinding& binding = args[i];
    if (param.IsBuffer() && binding.kind != ArgBinding::Kind::kBuffer) {
      return Status(ErrorCode::kInvalidArgValue,
                    "arg " + std::to_string(i) + " of '" + kernel.name +
                        "' needs a buffer");
    }
    if (param.IsLocalPointer() &&
        binding.kind != ArgBinding::Kind::kLocalMem) {
      return Status(ErrorCode::kInvalidArgValue,
                    "arg " + std::to_string(i) + " of '" + kernel.name +
                        "' needs a local memory size");
    }
    if (!param.type.is_pointer && binding.kind != ArgBinding::Kind::kScalar) {
      return Status(ErrorCode::kInvalidArgValue,
                    "arg " + std::to_string(i) + " of '" + kernel.name +
                        "' needs a scalar");
    }
  }
  if (range.work_dim < 1 || range.work_dim > 3) {
    return Status(ErrorCode::kInvalidWorkDimension, "work_dim must be 1..3");
  }
  NDRange run_range = range;
  for (int d = range.work_dim; d < 3; ++d) {
    run_range.global[d] = 1;
    run_range.local[d] = 1;
  }
  ChooseLocalSize(run_range, &kernel);
  std::uint64_t group_size = 1;
  for (int d = 0; d < 3; ++d) {
    if (run_range.global[d] == 0 || run_range.local[d] == 0) {
      return Status(ErrorCode::kInvalidWorkItemSize, "zero-sized dimension");
    }
    if (run_range.global[d] % run_range.local[d] != 0) {
      return Status(ErrorCode::kInvalidWorkGroupSize,
                    "global size not divisible by local size in dim " +
                        std::to_string(d));
    }
    group_size *= run_range.local[d];
  }
  if (group_size > 1024) {
    return Status(ErrorCode::kInvalidWorkGroupSize,
                  "work-group size exceeds device maximum (1024)");
  }

  const std::uint64_t num_groups[3] = {
      run_range.global[0] / run_range.local[0],
      run_range.global[1] / run_range.local[1],
      run_range.global[2] / run_range.local[2]};
  const std::uint64_t total_groups =
      num_groups[0] * num_groups[1] * num_groups[2];

  // ---- Execution --------------------------------------------------------
  int requested = options.num_threads;
  if (requested <= 0) {
    // Auto: one thread per hardware thread (drivers override this with the
    // simulated device's compute-unit count).
    const unsigned hw = std::thread::hardware_concurrency();
    requested = hw != 0 ? static_cast<int>(hw) : 4;
  }
  const int threads =
      std::max(1, std::min<int>(requested,
                                static_cast<int>(std::min<std::uint64_t>(
                                    total_groups, 64))));

  // A function compiled before the batch metadata existed (max_stack_slots
  // unknown) cannot be batched; run it through the oracle.
  const bool use_batched =
      options.engine == VmEngine::kBatched && kernel.max_stack_slots > 0;
  const BatchPlan plan =
      use_batched ? vmdetail::BuildBatchPlan(module) : BatchPlan{};

  std::atomic<std::uint64_t> next_group{0};
  std::mutex error_mutex;
  Status first_error;
  std::mutex stats_mutex;
  VmStats totals;
  totals.threads_used = threads;

  auto worker = [&] {
    VmStats acc;
    vmdetail::LaneBatch batch;  // Reused by every group this worker runs.
    while (true) {
      const std::uint64_t g =
          next_group.fetch_add(1, std::memory_order_relaxed);
      if (g >= total_groups) break;
      {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error.ok()) break;  // Abandon after first failure.
      }
      GroupContext grp{module, kernel, args, run_range, options};
      grp.num_groups[0] = num_groups[0];
      grp.num_groups[1] = num_groups[1];
      grp.num_groups[2] = num_groups[2];
      grp.group_id[0] = g % num_groups[0];
      grp.group_id[1] = (g / num_groups[0]) % num_groups[1];
      grp.group_id[2] = g / (num_groups[0] * num_groups[1]);
      Status s;
      if (use_batched) {
        BatchGroupStats gs;
        s = vmdetail::RunGroupBatched(grp, plan, batch, gs);
        acc.instructions += gs.instructions;
        acc.batch_steps += gs.batch_steps;
        acc.fused_steps += gs.fused_steps;
        acc.simd_steps += gs.simd_steps;
        acc.masked_steps += gs.masked_steps;
        if (gs.bailed_out) ++acc.bailouts;
      } else {
        s = RunGroup(grp, &acc.instructions);
      }
      ++acc.groups;
      if (!s.ok()) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (first_error.ok()) first_error = s;
        break;
      }
    }
    std::lock_guard<std::mutex> lock(stats_mutex);
    totals.instructions += acc.instructions;
    totals.batch_steps += acc.batch_steps;
    totals.fused_steps += acc.fused_steps;
    totals.simd_steps += acc.simd_steps;
    totals.masked_steps += acc.masked_steps;
    totals.bailouts += acc.bailouts;
    totals.groups += acc.groups;
  };

  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (int i = 0; i < threads; ++i) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  if (stats != nullptr) *stats = totals;
  return first_error;
}

}  // namespace haocl::oclc
