// Kernel launch driver: validation, local-size selection, the process-wide
// exec pool a launch's work-groups run on, and the legacy per-work-item
// interpreter (the oracle engine). The default lane-batch engine lives in
// vm_batch.cc; everything the two engines share is in vm_internal.h.
#include "oclc/vm.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <system_error>
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

// The one exec pool of the process: up to hardware_concurrency() - 1
// helper threads, started on first need and parked on a condition variable
// between launches. The pool is never destroyed (like
// NativeKernelRegistry::Instance), so its helpers are never joined.
// A launch of width w posts itself with w - 1 seats and wakes one helper;
// each helper that takes a seat wakes the next. The launching thread runs
// work() as well; work() claims groups from the launch's atomic counter
// until none are left. The launch returns once every helper that joined
// it has left work(). A helper that wakes after the groups ran out finds
// none and leaves at once, so a launch never waits for a busy pool:
// concurrent launches share the helpers, and each caller always
// progresses on its own groups.
class ExecPool {
 public:
  struct Job {
    void (*work)(void*) = nullptr;
    void* arg = nullptr;
    int seats = 0;    // Helpers still wanted; guarded by mutex_.
    int running = 0;  // Helpers inside work(); guarded by mutex_.
    std::exception_ptr error;  // First throw from a helper; guarded by mutex_.
    std::condition_variable left;
  };

  static ExecPool& Instance() {
    static auto* pool = new ExecPool();
    return *pool;
  }

  // Runs `work` on the calling thread and on up to width - 1 helpers, and
  // rethrows what a helper's work() threw.
  template <class F>
  void Run(F& work, int width) {
    if (width <= 1 || max_helpers_ == 0) return work();
    Job job;
    job.work = [](void* arg) { (*static_cast<F*>(arg))(); };
    job.arg = &work;
    Post(job, width - 1);
    try {
      work();
    } catch (...) {
      Retire(job);  // The helpers use work's state: outlive them first.
      throw;
    }
    Retire(job);
    if (job.error) std::rethrow_exception(job.error);
  }

 private:
  ExecPool() {
    const unsigned hw = std::thread::hardware_concurrency();
    max_helpers_ = hw > 1 ? hw - 1 : 0;
  }

  void Post(Job& job, int seats) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job.seats = seats;
      posted_.push_back(&job);
      while (idle_ < seats && helpers_.size() < max_helpers_) {
        try {
          helpers_.emplace_back([this] { Serve(); });
        } catch (const std::system_error&) {
          break;  // Out of threads: the launch runs on fewer helpers.
        }
        ++idle_;
      }
    }
    wake_.notify_one();  // Each helper that joins wakes the next one.
  }

  // Takes the job off the board, so no helper joins it any more, and waits
  // for the helpers already inside it.
  void Retire(Job& job) {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = std::find(posted_.begin(), posted_.end(), &job);
    if (it != posted_.end()) posted_.erase(it);
    job.left.wait(lock, [&job] { return job.running == 0; });
  }

  void Serve() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      wake_.wait(lock, [this] { return !posted_.empty(); });
      Job* job = posted_.front();
      if (--job->seats == 0) posted_.pop_front();
      ++job->running;
      --idle_;
      const bool more = !posted_.empty() && idle_ > 0;
      lock.unlock();
      if (more) wake_.notify_one();
      std::exception_ptr error;
      try {
        job->work(job->arg);
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      if (error && !job->error) job->error = error;
      ++idle_;
      if (--job->running == 0) job->left.notify_all();
    }
  }

  std::size_t max_helpers_ = 0;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<Job*> posted_;  // Launches that still want helpers, oldest first.
  int idle_ = 0;             // Helpers not inside a job's work().
  std::vector<std::thread> helpers_;  // Declared last: they use the above.
};

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
    // preferring a vector-width multiple so the vector tier runs full
    // chunks instead of scalar tails (e.g. 500 -> 100, not 250). Every
    // backend runs the same 4-lane chunks, so every host picks the same
    // shape: get_local_size() never depends on the host ISA.
    std::uint64_t best = size;
    std::uint64_t best_vec = 0;
    for (std::uint64_t d = std::min<std::uint64_t>(cap, range.global[0]);
         d > size; --d) {
      if (range.global[0] % d != 0) continue;
      if (best == size) best = d;  // Largest divisor of any alignment.
      if (d % static_cast<std::uint64_t>(simd::kWidth) == 0) {
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
  const int width =
      std::max(1, std::min<int>(requested,
                                static_cast<int>(std::min<std::uint64_t>(
                                    total_groups, 64))));

  // A function compiled before the batch metadata existed (max_stack_slots
  // unknown), or a module that Compile did not build (no plan), cannot be
  // batched; run it through the oracle.
  const BatchPlan* plan = module.batch_plan.get();
  const bool use_batched = options.engine == VmEngine::kBatched &&
                           kernel.max_stack_slots > 0 && plan != nullptr;

  std::atomic<std::uint64_t> next_group{0};
  std::atomic<bool> abandon{false};  // Set by the first failing group.
  std::mutex merge_mutex;
  Status first_error;
  VmStats totals;
  totals.threads_used = width;

  auto work = [&] {
    VmStats acc;
    vmdetail::LaneBatch batch;  // Reused by every group this thread runs.
    while (!abandon.load(std::memory_order_relaxed)) {
      const std::uint64_t g =
          next_group.fetch_add(1, std::memory_order_relaxed);
      if (g >= total_groups) break;
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
        s = vmdetail::RunGroupBatched(grp, *plan, batch, gs);
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
        std::lock_guard<std::mutex> lock(merge_mutex);
        if (first_error.ok()) first_error = s;
        abandon.store(true, std::memory_order_relaxed);
        break;
      }
    }
    std::lock_guard<std::mutex> lock(merge_mutex);
    totals.instructions += acc.instructions;
    totals.batch_steps += acc.batch_steps;
    totals.fused_steps += acc.fused_steps;
    totals.simd_steps += acc.simd_steps;
    totals.masked_steps += acc.masked_steps;
    totals.bailouts += acc.bailouts;
    totals.groups += acc.groups;
  };
  ExecPool::Instance().Run(work, width);
  if (stats != nullptr) *stats = totals;
  return first_error;
}

}  // namespace haocl::oclc
