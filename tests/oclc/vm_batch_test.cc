// Lane-batch engine specifics: dispatch amortization visible in VmStats,
// trace fusion firing on MAC loops, divergence bail-out to the
// interpreter, budget-trap parity between the engines, the counted-loop
// superop and the shapes it must leave to stepping, which loads fuse and
// which step, the kernel-aware ChooseLocalSize widening, the compute-unit
// -> pool-width mapping, and the shared exec pool under concurrent and
// trapping launches.
// Bit-identity of results is covered exhaustively by vm_differential_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include "oclc/program.h"
#include "oclc/vm.h"
#include "sim/device_model.h"

namespace haocl::oclc {
namespace {

std::shared_ptr<const Module> MustCompile(const std::string& source) {
  auto module = Compile(source);
  EXPECT_TRUE(module.ok()) << module.status().ToString();
  return module.ok() ? *module : nullptr;
}

Status RunWithStats(const Module& module, const std::string& kernel,
                    const std::vector<ArgBinding>& args, std::uint64_t global,
                    const LaunchOptions& options, VmStats* stats) {
  const CompiledFunction* fn = module.FindKernel(kernel);
  if (fn == nullptr) {
    return Status(ErrorCode::kInvalidKernelName, "no kernel " + kernel);
  }
  NDRange range;
  range.work_dim = 1;
  range.global[0] = global;
  return LaunchKernel(module, *fn, args, range, options, stats);
}

constexpr char kMacLoop[] = R"(
  __kernel void mac(__global const float* a, __global const float* b,
                    __global float* c, int n) {
    int i = get_global_id(0);
    float acc = 0.0f;
    for (int k = 0; k < n; k++) {
      acc += a[i * n + k] * b[k];
    }
    c[i] = acc;
  })";

TEST(VmBatchTest, BatchStepsAmortizeDispatchAcrossLanes) {
  auto module = MustCompile(kMacLoop);
  ASSERT_NE(module, nullptr);
  const int n = 64;
  std::vector<float> a(64 * n, 1.5f), b(n, 2.0f), c(64, 0.0f);
  std::vector<ArgBinding> args = {
      ArgBinding::Buffer(a.data(), a.size() * 4),
      ArgBinding::Buffer(b.data(), b.size() * 4),
      ArgBinding::Buffer(c.data(), c.size() * 4), ArgBinding::Int(n)};

  LaunchOptions options;
  options.num_threads = 1;
  VmStats stats;
  ASSERT_TRUE(RunWithStats(*module, "mac", args, 64, options, &stats).ok());
  EXPECT_GT(stats.instructions, 0u);
  EXPECT_GT(stats.batch_steps, 0u);
  EXPECT_EQ(stats.bailouts, 0u);  // Uniform trip count: no divergence.
  EXPECT_EQ(stats.groups, 1u);    // 64 items fit one wide group.
  // The whole point: far fewer dispatches than retired instructions.
  EXPECT_LT(stats.batch_steps * 8, stats.instructions);
}

TEST(VmBatchTest, TraceFusionFiresOnMacLoopAndPreservesBits) {
  auto module = MustCompile(kMacLoop);
  ASSERT_NE(module, nullptr);
  const int n = 32;
  std::vector<float> a(128 * n), b(n), c_fused(128, -1.0f),
      c_interp(128, -1.0f);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = 0.001f * static_cast<float>(i % 97) - 0.3f;
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = 0.05f * static_cast<float>(i) - 0.7f;
  }

  LaunchOptions fused;
  fused.num_threads = 1;
  VmStats fused_stats;
  ASSERT_TRUE(RunWithStats(*module, "mac",
                           {ArgBinding::Buffer(a.data(), a.size() * 4),
                            ArgBinding::Buffer(b.data(), b.size() * 4),
                            ArgBinding::Buffer(c_fused.data(), 128 * 4),
                            ArgBinding::Int(n)},
                           128, fused, &fused_stats)
                  .ok());
  EXPECT_GT(fused_stats.fused_steps, 0u);

  LaunchOptions interp;
  interp.num_threads = 1;
  interp.engine = VmEngine::kInterpreter;
  VmStats interp_stats;
  ASSERT_TRUE(RunWithStats(*module, "mac",
                           {ArgBinding::Buffer(a.data(), a.size() * 4),
                            ArgBinding::Buffer(b.data(), b.size() * 4),
                            ArgBinding::Buffer(c_interp.data(), 128 * 4),
                            ArgBinding::Int(n)},
                           128, interp, &interp_stats)
                  .ok());
  // The interpreter's retired work and bit-identical floats.
  EXPECT_EQ(fused_stats.instructions, interp_stats.instructions);
  EXPECT_EQ(0, std::memcmp(c_fused.data(), c_interp.data(), 128 * 4));
}

TEST(VmBatchTest, DivergentBranchBailsOutToInterpreter) {
  auto module = MustCompile(R"(
    __kernel void collatz(__global const int* in, __global int* out) {
      int i = get_global_id(0);
      int x = in[i];
      int steps = 0;
      while (x != 1) {
        if (x % 2 == 0) { x = x / 2; } else { x = 3 * x + 1; }
        steps++;
      }
      out[i] = steps;
    })");
  ASSERT_NE(module, nullptr);
  std::vector<std::int32_t> in(64), out(64, -1);
  for (int i = 0; i < 64; ++i) in[i] = i + 1;  // Divergent trip counts.

  LaunchOptions options;
  options.num_threads = 1;
  VmStats stats;
  ASSERT_TRUE(RunWithStats(*module, "collatz",
                           {ArgBinding::Buffer(in.data(), in.size() * 4),
                            ArgBinding::Buffer(out.data(), out.size() * 4)},
                           64, options, &stats)
                  .ok());
  EXPECT_GT(stats.bailouts, 0u);
  EXPECT_EQ(out[0], 0);   // 1 is already there.
  EXPECT_EQ(out[1], 1);   // 2 -> 1.
  EXPECT_EQ(out[26], 111);  // 27: the classic long orbit.
}

TEST(VmBatchTest, MaskedGuardAvoidsBailout) {
  // A divergent straight-line guard (bitwise &, no short-circuit jump)
  // must run under a partial-lane mask — zero bail-outs — and write what
  // the interpreter writes.
  auto module = MustCompile(R"(
    __kernel void guard(__global const int* sel, __global int* out, int n) {
      int i = get_global_id(0);
      if ((sel[i] != 0) & (i < n)) {
        out[i] = sel[i] * 3;
      }
    })");
  ASSERT_NE(module, nullptr);
  const int n = 256;
  std::vector<std::int32_t> sel(n), out_masked(n, -1), out_interp(n, -1);
  for (int i = 0; i < n; ++i) sel[i] = i % 3 == 0 ? 1 : 0;

  LaunchOptions masked;
  masked.num_threads = 1;
  VmStats masked_stats;
  ASSERT_TRUE(RunWithStats(*module, "guard",
                           {ArgBinding::Buffer(sel.data(), n * 4),
                            ArgBinding::Buffer(out_masked.data(), n * 4),
                            ArgBinding::Int(n)},
                           n, masked, &masked_stats)
                  .ok());
  EXPECT_EQ(masked_stats.bailouts, 0u);
  EXPECT_GT(masked_stats.masked_steps, 0u);

  LaunchOptions interp;
  interp.num_threads = 1;
  interp.engine = VmEngine::kInterpreter;
  VmStats interp_stats;
  ASSERT_TRUE(RunWithStats(*module, "guard",
                           {ArgBinding::Buffer(sel.data(), n * 4),
                            ArgBinding::Buffer(out_interp.data(), n * 4),
                            ArgBinding::Int(n)},
                           n, interp, &interp_stats)
                  .ok());
  EXPECT_EQ(masked_stats.instructions, interp_stats.instructions);
  EXPECT_EQ(0, std::memcmp(out_masked.data(), out_interp.data(), n * 4));
}

TEST(VmBatchTest, MaskedBudgetChargesMatchInterpreterAtEveryTrapPoint) {
  // The lockstep runaway budget must charge a divergent guard run masked
  // exactly as the interpreter charges it: sweep the budget across the
  // feasible range and demand the same ok/trap outcome (and message).
  auto module = MustCompile(R"(
    __kernel void guarded_spin(__global const int* sel, __global int* out,
                               int iters) {
      int i = get_global_id(0);
      int acc = 0;
      for (int k = 0; k < iters; k++) {
        if ((sel[i] & 1) == (k & 1)) { acc = acc + 13; }
      }
      out[i] = acc;
    })");
  ASSERT_NE(module, nullptr);
  const int n = 64;
  const int iters = 40;
  std::vector<std::int32_t> sel(n);
  for (int i = 0; i < n; ++i) sel[i] = i;  // Half the lanes flip each step.

  for (std::uint64_t budget : {60u, 150u, 300u, 450u, 600u, 5000u}) {
    std::string outcome[2];
    int idx = 0;
    for (VmEngine engine : {VmEngine::kBatched, VmEngine::kInterpreter}) {
      std::vector<std::int32_t> out(n, 0);
      LaunchOptions options;
      options.num_threads = 1;
      options.engine = engine;
      options.max_instructions_per_item = budget;
      Status s = RunWithStats(*module, "guarded_spin",
                              {ArgBinding::Buffer(sel.data(), n * 4),
                               ArgBinding::Buffer(out.data(), n * 4),
                               ArgBinding::Int(iters)},
                              n, options, nullptr);
      outcome[idx++] = s.ok() ? "ok" : s.ToString();
    }
    EXPECT_EQ(outcome[0], outcome[1]) << "budget " << budget;
  }
}

TEST(VmBatchTest, SimdStepsReportedOnEveryBackend) {
  // The vector tier runs on every build, the forced-scalar one included,
  // and writes what the interpreter writes.
  auto module = MustCompile(kMacLoop);
  ASSERT_NE(module, nullptr);
  const int n = 32;
  std::vector<float> a(128 * n), b(n);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = 0.01f * static_cast<float>(i % 89) - 0.4f;
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = 0.03f * static_cast<float>(i) - 0.5f;
  }
  std::vector<float> c[2] = {std::vector<float>(128, -1.0f),
                             std::vector<float>(128, -1.0f)};
  VmStats stats[2];
  int idx = 0;
  for (VmEngine engine : {VmEngine::kBatched, VmEngine::kInterpreter}) {
    LaunchOptions options;
    options.num_threads = 1;
    options.engine = engine;
    ASSERT_TRUE(RunWithStats(*module, "mac",
                             {ArgBinding::Buffer(a.data(), a.size() * 4),
                              ArgBinding::Buffer(b.data(), b.size() * 4),
                              ArgBinding::Buffer(c[idx].data(), 128 * 4),
                              ArgBinding::Int(n)},
                             128, options, &stats[idx])
                    .ok());
    ++idx;
  }
  EXPECT_GT(stats[0].simd_steps, 0u);
  EXPECT_EQ(stats[0].instructions, stats[1].instructions);
  EXPECT_EQ(0, std::memcmp(c[0].data(), c[1].data(), 128 * 4));
}

TEST(VmBatchTest, InterpreterEngineRunsWithoutBatchDispatch) {
  auto module = MustCompile(kMacLoop);
  ASSERT_NE(module, nullptr);
  const int n = 8;
  std::vector<float> a(16 * n, 1.0f), b(n, 1.0f), c(16, 0.0f);
  LaunchOptions options;
  options.num_threads = 1;
  options.engine = VmEngine::kInterpreter;
  VmStats stats;
  ASSERT_TRUE(RunWithStats(*module, "mac",
                           {ArgBinding::Buffer(a.data(), a.size() * 4),
                            ArgBinding::Buffer(b.data(), b.size() * 4),
                            ArgBinding::Buffer(c.data(), c.size() * 4),
                            ArgBinding::Int(n)},
                           16, options, &stats)
                  .ok());
  EXPECT_GT(stats.instructions, 0u);
  EXPECT_EQ(stats.batch_steps, 0u);
  EXPECT_EQ(stats.fused_steps, 0u);
  EXPECT_EQ(c[0], static_cast<float>(n));
}

TEST(VmBatchTest, BudgetTrapIsIdenticalAcrossEngines) {
  auto module = MustCompile(R"(
    __kernel void spin(__global int* out) {
      int x = 0;
      while (x >= 0) { x = x + 1; if (x < 0) break; x = 0; }
      out[0] = x;
    })");
  ASSERT_NE(module, nullptr);
  std::int32_t sink = 0;
  for (VmEngine engine : {VmEngine::kBatched, VmEngine::kInterpreter}) {
    LaunchOptions options;
    options.num_threads = 1;
    options.engine = engine;
    options.max_instructions_per_item = 5000;
    Status s = RunWithStats(*module, "spin",
                            {ArgBinding::Buffer(&sink, sizeof(sink))}, 4,
                            options, nullptr);
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.ToString().find("budget"), std::string::npos) << s.ToString();
  }
}

TEST(VmBatchTest, ChooseLocalSizeWidensBarrierFreeKernels) {
  auto wide = MustCompile(kMacLoop);
  ASSERT_NE(wide, nullptr);
  const CompiledFunction* mac = wide->FindKernel("mac");
  ASSERT_NE(mac, nullptr);
  EXPECT_FALSE(mac->uses_barrier);

  NDRange range;
  range.global[0] = 1024;
  ChooseLocalSize(range, mac);
  EXPECT_EQ(range.local[0], 256u);

  // Odd extents still get the largest divisor <= 256.
  NDRange odd;
  odd.global[0] = 3 * 7 * 11;  // 231.
  ChooseLocalSize(odd, mac);
  EXPECT_EQ(odd.local[0], 231u);

  // Vector-width alignment: 500's largest divisor <= 256 is 250, but every
  // build prefers 100 — the largest multiple of the vector width — so no
  // group runs a permanent scalar tail, and get_local_size() is the same
  // on every host ISA.
  NDRange vec;
  vec.global[0] = 500;
  ChooseLocalSize(vec, mac);
  EXPECT_EQ(vec.local[0], 100u);

  // Kernel-less (legacy callers) and barrier kernels keep the 64 cap.
  NDRange legacy;
  legacy.global[0] = 1024;
  ChooseLocalSize(legacy);
  EXPECT_EQ(legacy.local[0], 64u);

  auto barrier = MustCompile(R"(
    __kernel void rev(__global int* data, __local int* tmp) {
      int l = get_local_id(0);
      int size = get_local_size(0);
      tmp[l] = data[get_global_id(0)];
      barrier(1);
      data[get_global_id(0)] = tmp[size - 1 - l];
    })");
  ASSERT_NE(barrier, nullptr);
  const CompiledFunction* rev = barrier->FindKernel("rev");
  ASSERT_NE(rev, nullptr);
  EXPECT_TRUE(rev->uses_barrier);
  NDRange brange;
  brange.global[0] = 1024;
  ChooseLocalSize(brange, rev);
  EXPECT_EQ(brange.local[0], 64u);
}

TEST(VmBatchTest, ExecPoolWidthMapsComputeUnitsToHostThreads) {
  sim::DeviceSpec cpu = sim::XeonE52686();
  EXPECT_EQ(cpu.compute_units, 16);
  EXPECT_EQ(sim::ExecPoolWidth(cpu, 64), 16);
  EXPECT_EQ(sim::ExecPoolWidth(cpu, 8), 8);  // Clamped to host silicon.
  sim::DeviceSpec gpu = sim::TeslaP4();
  EXPECT_EQ(gpu.compute_units, 20);
  sim::DeviceSpec legacy;  // Pre-compute-unit spec: single-threaded.
  EXPECT_EQ(sim::ExecPoolWidth(legacy, 64), 1);
}

TEST(VmBatchTest, MultiThreadedPoolMatchesSingleThread) {
  auto module = MustCompile(kMacLoop);
  ASSERT_NE(module, nullptr);
  const int n = 16;
  const std::uint64_t global = 1024;
  std::vector<float> a(global * n), b(n), c1(global, 0.0f), c8(global, 0.0f);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = 0.01f * static_cast<float>(i % 53);
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = 0.1f * static_cast<float>(i + 1);
  }
  for (int threads : {1, 8}) {
    auto& c = threads == 1 ? c1 : c8;
    LaunchOptions options;
    options.num_threads = threads;
    VmStats stats;
    ASSERT_TRUE(RunWithStats(*module, "mac",
                             {ArgBinding::Buffer(a.data(), a.size() * 4),
                              ArgBinding::Buffer(b.data(), b.size() * 4),
                              ArgBinding::Buffer(c.data(), global * 4),
                              ArgBinding::Int(n)},
                             global, options, &stats)
                    .ok());
    // The launch's width: num_threads capped by its group count.
    EXPECT_EQ(stats.threads_used,
              static_cast<int>(std::min<std::uint64_t>(threads, stats.groups)));
    EXPECT_GT(stats.groups, 1u);
  }
  EXPECT_EQ(0, std::memcmp(c1.data(), c8.data(), global * 4));
}

// Runs kMacLoop over c.size() items in 32-lane groups into `c`.
Status RunMac(const Module& module, std::vector<float>& a,
              std::vector<float>& b, std::vector<float>& c, int n,
              int threads, VmStats* stats = nullptr) {
  LaunchOptions options;
  options.num_threads = threads;
  const std::vector<ArgBinding> args = {
      ArgBinding::Buffer(a.data(), a.size() * 4),
      ArgBinding::Buffer(b.data(), b.size() * 4),
      ArgBinding::Buffer(c.data(), c.size() * 4), ArgBinding::Int(n)};
  NDRange range;
  range.global[0] = c.size();
  range.local[0] = 32;
  range.local_specified = true;
  return LaunchKernel(module, *module.FindKernel("mac"), args, range, options,
                      stats);
}

TEST(VmBatchTest, ConcurrentLaunchesShareThePoolAndMatchOneThread) {
  auto module = MustCompile(kMacLoop);
  ASSERT_NE(module, nullptr);
  const int n = 24;
  const std::size_t global = 1024;
  std::vector<float> a(global * n), b(n), want(global, 0.0f);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = 0.03f * static_cast<float>(i % 41) - 0.5f;
  }
  for (int k = 0; k < n; ++k) b[k] = 0.25f * static_cast<float>(k % 7);
  ASSERT_TRUE(RunMac(*module, a, b, want, n, 1).ok());

  constexpr int kCallers = 4;
  constexpr int kLaunches = 25;
  std::vector<int> mismatches(kCallers, 0);
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (int i = 0; i < kLaunches; ++i) {
        std::vector<float> c(global, -1.0f);
        VmStats stats;
        const Status s = RunMac(*module, a, b, c, n, 4, &stats);
        if (!s.ok() || stats.threads_used != 4 || stats.groups != 32 ||
            std::memcmp(c.data(), want.data(), global * 4) != 0) {
          ++mismatches[t];
        }
      }
    });
  }
  for (auto& caller : callers) caller.join();
  for (int t = 0; t < kCallers; ++t) EXPECT_EQ(mismatches[t], 0) << t;
}

TEST(VmBatchTest, TrapInAMiddleGroupReturnsAndThePoolRecovers) {
  // Group `bad` reads far past `in`; every other group is in bounds.
  auto module = MustCompile(R"(
    __kernel void trap_mid(__global float* out, __global const float* in,
                           int bad) {
      int i = get_global_id(0);
      int at = get_group_id(0) == bad ? i + (1 << 20) : i;
      out[i] = in[at] * 2.0f;
    })");
  ASSERT_NE(module, nullptr);
  const std::size_t global = 2048;
  std::vector<float> in(global);
  for (std::size_t i = 0; i < global; ++i) in[i] = static_cast<float>(i);
  auto launch = [&](int bad, int threads, std::vector<float>* out) {
    LaunchOptions options;
    options.num_threads = threads;
    NDRange range;
    range.global[0] = global;
    range.local[0] = 64;
    range.local_specified = true;
    return LaunchKernel(*module, *module->FindKernel("trap_mid"),
                        {ArgBinding::Buffer(out->data(), global * 4),
                         ArgBinding::Buffer(in.data(), global * 4),
                         ArgBinding::Int(bad)},
                        range, options);
  };
  std::vector<float> want(global, 0.0f);
  ASSERT_TRUE(launch(-1, 1, &want).ok());
  std::vector<float> scratch(global);
  const Status oracle = launch(13, 1, &scratch);
  ASSERT_FALSE(oracle.ok());

  // The trapping launch runs beside clean launches from other threads.
  std::atomic<int> clean_mismatches{0};
  std::thread neighbour([&] {
    for (int i = 0; i < 20; ++i) {
      std::vector<float> out(global, -1.0f);
      if (!launch(-1, 4, &out).ok() || out != want) ++clean_mismatches;
    }
  });
  for (int i = 0; i < 20; ++i) {
    std::vector<float> out(global, -1.0f);
    const Status s = launch(13, 4, &out);
    EXPECT_EQ(s.ToString(), oracle.ToString());
  }
  neighbour.join();
  EXPECT_EQ(clean_mismatches.load(), 0);

  std::vector<float> after(global, -1.0f);
  ASSERT_TRUE(launch(-1, 4, &after).ok());
  EXPECT_EQ(after, want);
}

// ------------------------------------------------- Counted-loop superop

// `count` seeded values in [-1, 1) of type T, as raw bytes.
template <class T = float>
std::vector<std::uint8_t> RandomBytes(std::size_t count, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<T> val(-1, 1);
  std::vector<T> v(count);
  for (T& x : v) x = val(rng);
  std::vector<std::uint8_t> bytes(count * sizeof(T));
  std::memcpy(bytes.data(), v.data(), bytes.size());
  return bytes;
}

// One launch on private copies of `buffers` (bound in order, then
// `scalars`), single-threaded.
struct EngineRun {
  Status status;
  std::vector<std::vector<std::uint8_t>> buffers;
  VmStats stats;
};

EngineRun RunOn(VmEngine engine, const Module& module,
                const std::string& kernel,
                std::vector<std::vector<std::uint8_t>> buffers,
                const std::vector<ArgBinding>& scalars, const NDRange& range,
                std::uint64_t budget = 1ULL << 33) {
  LaunchOptions options;
  options.num_threads = 1;
  options.max_instructions_per_item = budget;
  options.engine = engine;
  std::vector<ArgBinding> args;
  for (auto& buf : buffers) {
    args.push_back(ArgBinding::Buffer(buf.data(), buf.size()));
  }
  args.insert(args.end(), scalars.begin(), scalars.end());
  EngineRun run;
  const CompiledFunction* fn = module.FindKernel(kernel);
  run.status = fn == nullptr
                   ? Status(ErrorCode::kInvalidKernelName, kernel)
                   : LaunchKernel(module, *fn, args, range, options,
                                  &run.stats);
  run.buffers = std::move(buffers);
  return run;
}

// Runs both engines and demands the interpreter's status (the whole
// message), output bytes and retired instruction count from the batched
// one, whose every fused dispatch is a vector one. Returns the batched
// engine's stats.
VmStats ExpectEnginesAgree(
    const Module& module, const std::string& kernel,
    const std::vector<std::vector<std::uint8_t>>& buffers,
    const std::vector<ArgBinding>& scalars, const NDRange& range,
    std::uint64_t budget = 1ULL << 33) {
  const EngineRun oracle = RunOn(VmEngine::kInterpreter, module, kernel,
                                 buffers, scalars, range, budget);
  const EngineRun run = RunOn(VmEngine::kBatched, module, kernel, buffers,
                              scalars, range, budget);
  EXPECT_EQ(run.status.ToString(), oracle.status.ToString())
      << kernel << ", budget " << budget;
  EXPECT_LE(run.stats.fused_steps, run.stats.simd_steps) << kernel;
  // A trap leaves engine-specific partial writes: items run one after
  // another in the interpreter, all at once in a lane batch.
  if (oracle.status.ok()) {
    EXPECT_TRUE(run.buffers == oracle.buffers) << kernel;
    EXPECT_EQ(run.stats.instructions, oracle.stats.instructions) << kernel;
  }
  return run.stats;
}

NDRange Range1D(std::uint64_t global, std::uint64_t local,
                std::uint64_t offset = 0) {
  NDRange range;
  range.global[0] = global;
  range.local[0] = local;
  range.offset[0] = offset;
  range.local_specified = true;
  return range;
}

TEST(VmBatchTest, StepByConstantFusesAndRunsAsOneCountedLoop) {
  // `k += 2` keeps its literal's i64 tag with no convert; the step must
  // still fuse, so the whole loop becomes one superop dispatch.
  auto module = MustCompile(R"(
    __kernel void odd_k(__global const float* a, __global float* c, int n) {
      int j = get_global_id(0);
      float acc = 0.0f;
      for (int k = 1; k < n; k += 2) acc = acc + a[j*n+k] * a[k*n+j];
      c[j] = acc;
    })");
  ASSERT_NE(module, nullptr);
  const int n = 64;
  const int trips = n / 2;
  const VmStats batched = ExpectEnginesAgree(
      *module, "odd_k",
      {RandomBytes(n * n, 1), std::vector<std::uint8_t>(n * 4)},
      {ArgBinding::Int(n)}, Range1D(n, 16));
  ASSERT_EQ(batched.groups, 4u);
  EXPECT_LT(batched.batch_steps / batched.groups,
            static_cast<std::uint64_t>(trips));
}

TEST(VmBatchTest, CountedLoopBudgetTrapsMatchInterpreterAtEveryCount) {
  // Every budget from the first instruction through the loop's first trip,
  // its last trip, its exit and past the kernel's end: the superop may only
  // fire when the budget covers the whole loop, and stepping must then trap
  // at the interpreter's pc.
  auto module = MustCompile(kMacLoop);
  ASSERT_NE(module, nullptr);
  const int n = 12;
  const std::vector<std::vector<std::uint8_t>> buffers = {
      RandomBytes(16 * n, 2), RandomBytes(n, 3),
      std::vector<std::uint8_t>(16 * 4)};
  const EngineRun full = RunOn(VmEngine::kInterpreter, *module, "mac", buffers,
                               {ArgBinding::Int(n)}, Range1D(16, 16));
  ASSERT_TRUE(full.status.ok());
  const std::uint64_t per_item = full.stats.instructions / 16;
  for (std::uint64_t budget = 1; budget <= per_item + 1; ++budget) {
    ExpectEnginesAgree(*module, "mac", buffers, {ArgBinding::Int(n)},
                       Range1D(16, 16), budget);
  }
  const VmStats batched = ExpectEnginesAgree(
      *module, "mac", buffers, {ArgBinding::Int(n)}, Range1D(16, 16), per_item);
  // Stepping takes at least 5 dispatches per trip.
  EXPECT_LT(batched.batch_steps, static_cast<std::uint64_t>(5 * n));
}

TEST(VmBatchTest, CountedLoopReadingOutOfBoundsLateTrapsLikeInterpreter) {
  auto module = MustCompile(R"(
    __kernel void late(__global const float* w, __global const float* x,
                       __global float* c, int n, int s) {
      int i = get_global_id(0);
      float acc = 0.0f;
      for (int k = 0; k < n; k++) acc = acc + w[k] * x[k * s + i];
      c[i] = acc;
    })");
  ASSERT_NE(module, nullptr);
  const int n = 24;
  const std::vector<ArgBinding> scalars = {ArgBinding::Int(n),
                                           ArgBinding::Int(64)};
  // In bounds the loop runs as one superop.
  const VmStats fired = ExpectEnginesAgree(
      *module, "late",
      {RandomBytes(n, 4), RandomBytes(n * 64, 5),
       std::vector<std::uint8_t>(64 * 4)},
      scalars, Range1D(64, 64));
  EXPECT_LT(fired.batch_steps, 5u * n);
  // Every lane reads w[20] first at trip 20: one offset, one message.
  ExpectEnginesAgree(*module, "late",
                     {RandomBytes(20, 4), RandomBytes(n * 64, 5),
                      std::vector<std::uint8_t>(64 * 4)},
                     scalars, Range1D(64, 64));
  // Lanes 10.. leave x at trip 20, lane 0 only at trip 21. Lockstep
  // reports lane 10's offset, item order item 0's: the same error code.
  const std::vector<std::vector<std::uint8_t>> buffers = {
      RandomBytes(n, 6), RandomBytes(20 * 64 + 10, 7),
      std::vector<std::uint8_t>(64 * 4)};
  const EngineRun oracle = RunOn(VmEngine::kInterpreter, *module, "late",
                                 buffers, scalars, Range1D(64, 64));
  ASSERT_FALSE(oracle.status.ok());
  const EngineRun run = RunOn(VmEngine::kBatched, *module, "late", buffers,
                              scalars, Range1D(64, 64));
  EXPECT_EQ(run.status.code(), oracle.status.code());
  EXPECT_NE(run.status.ToString().find("out-of-bounds global access"),
            std::string::npos)
      << run.status.ToString();
}

constexpr char kLoopShapes[] = R"(
  __kernel void le_bound(__global const float* a, __global const float* b,
                         __global float* c, int n) {
    int i = get_global_id(0);
    int m = n + 1;
    float acc = 0.0f;
    for (int k = 0; k <= n; k++) acc = acc + a[i * m + k] * b[k];
    c[i] = acc;
  }
  __kernel void down(__global const float* a, __global const float* b,
                     __global float* c, int n) {
    int i = get_global_id(0);
    float acc = 0.0f;
    for (int k = n - 1; k >= 0; k--) acc = acc + a[i * n + k] * b[k];
    c[i] = acc;
  }
  __kernel void from(__global const float* a, __global const float* b,
                     __global float* c, int n, int k0) {
    int i = get_global_id(0);
    float acc = 1.0f;
    for (int k = k0; k < n; k += 3) acc = acc + a[i * 4 + k] * b[k];
    c[i] = acc;
  }
  __kernel void near_max(__global const float* a, __global const float* b,
                         __global float* c, int n, int k0) {
    int i = get_global_id(0);
    int z = 0;
    float acc = 0.0f;
    for (int k = k0; k < n; k += 4) acc = acc + a[i] * b[z];
    c[i] = acc;
  }
  __kernel void varying_bound(__global const float* a, __global const float* b,
                              __global float* c, int n) {
    int i = get_global_id(0);
    int lim = n - (i & 3);
    float acc = 0.0f;
    for (int k = 0; k < lim; k++) acc = acc + a[i * n + k] * b[k];
    c[i] = acc;
  }
  __kernel void varying_mult(__global const float* a, __global const float* b,
                             __global float* c, int n) {
    int i = get_global_id(0);
    int s = n + (i & 1);
    float acc = 0.0f;
    for (int k = 0; k < n; k++) acc = acc + a[k * s + i] * b[k];
    c[i] = acc;
  }
  __kernel void acc_index(__global const float* a, __global const float* b,
                          __global float* c, int n) {
    int i = get_global_id(0);
    float acc = 0.0f;
    for (int k = 0; k < n; k++) acc = acc + a[i * n + k] * b[((int)acc) & 7];
    c[i] = acc;
  }
  __kernel void strided(__global const float* a, __global const float* b,
                        __global float* c, int n, int j) {
    int i = get_global_id(0);
    float acc = 0.0f;
    for (int k = 0; k < n; k++) acc = acc + a[i * n + k] * b[k * n + j];
    c[i] = acc;
  }
  __kernel void offset_base(__global const float* a, __global const float* b,
                            __global float* c, int n) {
    int i = get_global_id(0);
    __global const float* p = a + 3;
    float acc = 0.0f;
    for (int k = 0; k < n; k++) acc = acc + p[i * n + k] * b[k];
    c[i] = acc;
  }
  __kernel void swapped(__global const float* a, __global const float* b,
                        __global float* c, int n) {
    int i = get_global_id(0);
    int p = i ^ 1;
    float acc = 0.0f;
    for (int k = 0; k < n; k++) acc = acc + a[k * n + p] * b[k];
    c[i] = acc;
  }
  __kernel void k_after(__global const float* a, __global const float* b,
                        __global float* c, int n) {
    int i = get_global_id(0);
    int k;
    float acc = 0.0f;
    for (k = 1; k < n; k += 3) acc = acc + a[i * n + k] * b[k];
    c[i] = acc + (float)k;
  }
  __kernel void mac64(__global const double* a, __global const double* b,
                      __global double* c, int n) {
    int i = get_global_id(0);
    int w = get_global_size(0);
    double acc = 0.5;
    for (int k = 0; k < n; k++) acc = acc + a[k * w + i] * b[k];
    c[i] = acc;
  })";

TEST(VmBatchTest, LoopShapesOutsideTheSuperopStayBitIdentical) {
  auto module = MustCompile(kLoopShapes);
  ASSERT_NE(module, nullptr);
  const int n = 16;
  const auto a = RandomBytes(128 * (n + 1) + 8, 8);
  const auto b = RandomBytes(n * n + 1, 9);
  const std::vector<std::uint8_t> c(128 * 4);
  const NDRange range = Range1D(128, 64);
  for (const char* kernel :
       {"le_bound", "down", "varying_bound", "varying_mult", "acc_index"}) {
    ExpectEnginesAgree(*module, kernel, {a, b, c}, {ArgBinding::Int(n)}, range);
  }
  // Loops the superop does run: a strided (gathered) A with a broadcast
  // B, a pair-swapped lane order that spans a ramp's range but is no ramp,
  // a base pointer with an offset, k read after the loop, f64.
  std::vector<VmStats> fired = {
      ExpectEnginesAgree(*module, "strided", {a, b, c},
                         {ArgBinding::Int(n), ArgBinding::Int(5)}, range),
      ExpectEnginesAgree(*module, "swapped", {a, b, c}, {ArgBinding::Int(n)},
                         range),
      ExpectEnginesAgree(*module, "offset_base", {a, b, c},
                         {ArgBinding::Int(n)}, range),
      ExpectEnginesAgree(*module, "k_after", {a, b, c}, {ArgBinding::Int(n)},
                         range),
      ExpectEnginesAgree(*module, "mac64",
                         {RandomBytes<double>(128 * n, 10),
                          RandomBytes<double>(n, 11),
                          std::vector<std::uint8_t>(128 * 8)},
                         {ArgBinding::Int(n)}, range)};
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_LT(fired[i].batch_steps / fired[i].groups, 5u * n) << "case " << i;
  }
  // Zero trips (k0 == n and k0 > n) and a short trip count.
  for (int k0 : {n, n + 5, n - 2}) {
    ExpectEnginesAgree(*module, "from", {a, b, c},
                       {ArgBinding::Int(n), ArgBinding::Int(k0)}, range);
  }
  // Near INT32_MAX: two trips end exactly below it; one more and k would
  // wrap, so stepping runs on to the budget trap at the interpreter's pc.
  ExpectEnginesAgree(
      *module, "near_max", {a, b, c},
      {ArgBinding::Int(INT_MAX - 1), ArgBinding::Int(INT_MAX - 9)}, range);
  ExpectEnginesAgree(*module, "near_max", {a, b, c},
                     {ArgBinding::Int(INT_MAX), ArgBinding::Int(INT_MAX - 5)},
                     range, 4000);
}

TEST(VmBatchTest, CountedLoopCoversTailLanesAndShardOffsets) {
  auto module = MustCompile(kMacLoop);
  ASSERT_NE(module, nullptr);
  const int n = 9;
  // Group widths narrower than one 4-lane vector, and around it and the
  // 32-lane register block.
  for (std::uint64_t local : {1u, 2u, 3u, 4u, 6u, 32u, 36u, 38u, 100u}) {
    const std::uint64_t global = 2 * local;
    const VmStats batched = ExpectEnginesAgree(
        *module, "mac",
        {RandomBytes(global * n, 12), RandomBytes(n, 13),
         std::vector<std::uint8_t>(global * 4)},
        {ArgBinding::Int(n)}, Range1D(global, local));
    EXPECT_LT(batched.batch_steps / batched.groups,
              static_cast<std::uint64_t>(5 * n))
        << "local " << local;
  }
  // A shard of a larger launch: get_global_id starts at the offset.
  const std::uint64_t offset = 40;
  ExpectEnginesAgree(*module, "mac",
                     {RandomBytes((offset + 64) * n, 14),
                      RandomBytes(n, 15),
                      std::vector<std::uint8_t>((offset + 64) * 4)},
                     {ArgBinding::Int(n)}, Range1D(64, 32, offset));
}

TEST(VmBatchTest, MatmulBatchStepsPerGroupDoNotGrowWithN) {
  auto module = MustCompile(R"(
    __kernel void pb_matmul(__global const float* a, __global const float* x,
                            __global float* y, int n) {
      int row = get_global_id(0);
      int col = get_global_id(1);
      float acc = 0.0f;
      for (int k = 0; k < n; k++) {
        acc = acc + a[row * n + k] * x[k * n + col];
      }
      y[row * n + col] = acc;
    })");
  ASSERT_NE(module, nullptr);
  std::uint64_t steps_per_group[2] = {0, 0};
  int idx = 0;
  for (int n : {64, 256}) {
    NDRange range;
    range.work_dim = 2;
    range.global[0] = 2;
    range.global[1] = n;
    range.local[1] = 64;
    range.local_specified = true;
    const VmStats batched = ExpectEnginesAgree(
        *module, "pb_matmul",
        {RandomBytes(n * n, 16), RandomBytes(n * n, 17),
         std::vector<std::uint8_t>(n * n * 4)},
        {ArgBinding::Int(n)}, range);
    steps_per_group[idx++] = batched.batch_steps / batched.groups;
  }
  EXPECT_EQ(steps_per_group[0], steps_per_group[1]);
  EXPECT_LT(steps_per_group[1], 64u);
}

TEST(VmBatchTest, PointerWithOffsetBaseReadsFromItsOffset) {
  // A base pointer local carrying an offset (p = a + 4) must be read from
  // that offset by both engines, including the vectorized indexed load.
  auto module = MustCompile(R"(
    __kernel void shifted(__global const float* a, __global float* out) {
      int i = get_global_id(0);
      __global const float* p = a + 4;
      out[i] = p[i];
    })");
  ASSERT_NE(module, nullptr);
  std::vector<float> a(80);
  for (int i = 0; i < 80; ++i) a[i] = static_cast<float>(i);
  std::vector<std::uint8_t> bytes(a.size() * 4);
  std::memcpy(bytes.data(), a.data(), bytes.size());
  const EngineRun batched = RunOn(VmEngine::kBatched, *module, "shifted",
                                  {bytes, std::vector<std::uint8_t>(64 * 4)},
                                  {}, Range1D(64, 64));
  ASSERT_TRUE(batched.status.ok());
  float first;
  std::memcpy(&first, batched.buffers[1].data(), 4);
  EXPECT_EQ(first, 4.0f);
  ExpectEnginesAgree(*module, "shifted",
                     {bytes, std::vector<std::uint8_t>(64 * 4)}, {},
                     Range1D(64, 64));
}

// ------------------------------------------------------ Fused loads

TEST(VmBatchTest, SaxpyLoadsBothOperandsThroughTheVectorIndexedLoad) {
  // y[i] = a * x[i] + y[i] (perfbench's saxpy): both subscripts fuse as
  // kIndexedLoad's contiguous vector load. A 256-lane group takes 16
  // dispatches, 2 of them fused and 4 through the vector tier (the two
  // loads, the multiply and the add).
  auto module = MustCompile(R"(
    __kernel void saxpy(__global float* y, __global const float* x,
                        float a) {
      int i = get_global_id(0);
      y[i] = a * x[i] + y[i];
    })");
  ASSERT_NE(module, nullptr);
  const VmStats batched = ExpectEnginesAgree(
      *module, "saxpy", {RandomBytes(256, 18), RandomBytes(256, 19)},
      {ArgBinding::Float(1.5f)}, Range1D(256, 256));
  EXPECT_EQ(batched.groups, 1u);
  EXPECT_EQ(batched.batch_steps, 16u);
  EXPECT_EQ(batched.fused_steps, 2u);
  EXPECT_EQ(batched.simd_steps, 4u);
}

TEST(VmBatchTest, WideIndexLoadStepsAndTrapsLikeInterpreter) {
  // A ulong subscript is no i32 index, so its load steps: reading only the
  // index's low word would load in[i] for in[i + 2^32] and succeed where
  // the interpreter traps out of bounds.
  auto module = MustCompile(R"(
    __kernel void wide(__global float* out, __global const float* in,
                       ulong off) {
      int i = get_global_id(0);
      ulong j = (ulong)i + off;
      out[i] = in[j];
    })");
  ASSERT_NE(module, nullptr);
  for (std::uint64_t off : {0ull, 1ull << 32}) {
    Value v;
    v.u = off;
    ExpectEnginesAgree(*module, "wide",
                       {std::vector<std::uint8_t>(64 * 4), RandomBytes(64, 20)},
                       {ArgBinding::Scalar(v, ScalarType::kU64)},
                       Range1D(64, 64));
  }
}

}  // namespace
}  // namespace haocl::oclc
