// Ablation: the scheduling policies on a mixed kernel stream (DESIGN.md
// §5). A 4 GPU + 2 FPGA + 2 CPU cluster services 120 kernels with varied
// cost profiles (regular compute-bound, irregular memory-bound, small
// latency-bound) under each built-in policy; we report the virtual
// makespan and modeled energy. No placement instructions are given — the
// policy decides everything (preferred_node = -1).
//
// Second scenario: adaptive re-splitting on a mis-calibrated cluster.
// Two spec-identical CPU nodes, one really running at 1/3 of its spec
// sheet; chained partitioned launches under static `hetero_split` vs
// `adaptive_split`. Emits BENCH_adaptive.json with the per-iteration
// makespans and the oracle-split ratio — the scheduler-feedback
// convergence trajectory — and exits nonzero (bench::Gates) when adaptive
// ends above 1.10x the oracle or static below 1.5x.
#include <cstdio>
#include <random>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "driver/native_registry.h"
#include "host/sim_cluster.h"
#include "workloads/workload.h"

namespace {

constexpr char kStreamSource[] = R"(
__kernel void stream_task(__global float* data, int n, int reps) {
  int i = get_global_id(0);
  if (i >= n) return;
  float x = data[i];
  for (int r = 0; r < reps; r++) {
    x = x * 1.000001f + 0.5f;
  }
  data[i] = x;
})";

struct TaskShape {
  double gflops;
  double gbytes;
  bool irregular;
};

// Chained partitioned launches of one kernel on a 2-CPU cluster whose
// second node really runs at `slow_factor` of its spec. Returns the
// per-iteration aggregate makespans (slowest shard per launch) and, via
// the out-params, the observed per-node rates after the run.
std::vector<double> RunResplitChain(const char* policy, double slow_factor,
                                    int iterations, double* rate_fast,
                                    double* rate_slow) {
  using namespace haocl;
  auto cluster = host::SimCluster::Create(
      {.cpu_nodes = 2}, {}, host::SimCluster::PeerTopology::kFullMesh,
      {1.0, slow_factor});
  if (!cluster.ok()) std::exit(1);
  auto& runtime = (*cluster)->runtime();
  if (!runtime.SetScheduler(policy).ok()) std::exit(1);

  constexpr int kN = 4096;
  auto program = runtime.BuildProgram(R"(
__kernel void resplit_task(__global float* data, int n) {
  int i = get_global_id(0);
  if (i < n) data[i] = data[i] * 1.5f + 1.0f;
})");
  if (!program.ok()) std::exit(1);
  auto buffer = runtime.CreateBuffer(kN * 4);
  if (!buffer.ok()) std::exit(1);
  std::vector<float> data(kN, 1.0f);
  if (!runtime.WriteBuffer(*buffer, 0, data.data(), kN * 4).ok()) {
    std::exit(1);
  }

  host::ClusterRuntime::LaunchSpec spec;
  spec.program = *program;
  spec.kernel_name = "resplit_task";
  spec.args = {host::KernelArgValue::PartitionedBuffer(*buffer, 4),
               host::KernelArgValue::Scalar<std::int32_t>(kN)};
  spec.global[0] = kN;
  sim::KernelCost cost;
  cost.flops = 2e9;  // Compute-bound so the shard split drives makespan.
  cost.bytes = 1e6;
  cost.work_items = kN;
  spec.cost_hint = cost;

  std::vector<double> makespans;
  for (int i = 0; i < iterations; ++i) {
    auto result = runtime.LaunchKernel(spec);
    if (!result.ok()) {
      std::fprintf(stderr, "%s iteration %d: %s\n", policy, i,
                   result.status().ToString().c_str());
      std::exit(1);
    }
    makespans.push_back(result->modeled_seconds);
  }
  *rate_fast = runtime.ObservedKernelRate(0, "resplit_task").seconds_per_flop;
  *rate_slow = runtime.ObservedKernelRate(1, "resplit_task").seconds_per_flop;
  return makespans;
}

// Returns the adaptive and static final makespans over the oracle's.
std::pair<double, double> RunAdaptiveResplitScenario() {
  constexpr double kSlowFactor = 1.0 / 3.0;
  constexpr int kIterations = 6;
  double static_fast = 0.0;
  double static_slow = 0.0;
  const std::vector<double> statics = RunResplitChain(
      "hetero_split", kSlowFactor, kIterations, &static_fast, &static_slow);
  double rate_fast = 0.0;
  double rate_slow = 0.0;
  const std::vector<double> adaptive = RunResplitChain(
      "adaptive_split", kSlowFactor, kIterations, &rate_fast, &rate_slow);
  // Oracle split from the ADAPTIVE run's converged observed rates: both
  // shards finish together, total throughput = sum of node speeds. (Both
  // runs observe the same silicon; the static run's rates are unused.)
  const double oracle =
      2e9 / (1.0 / rate_fast + 1.0 / rate_slow);

  std::printf("\nAdaptive re-splitting: 2 CPU nodes, node 1 at 1/3 spec, "
              "%d chained launches\n", kIterations);
  std::printf("%-6s %16s %16s\n", "iter", "hetero_split(s)",
              "adaptive_split(s)");
  for (int i = 0; i < kIterations; ++i) {
    std::printf("%-6d %16.6f %16.6f\n", i, statics[i], adaptive[i]);
  }
  std::printf("oracle split makespan: %.6f s  (adaptive final %.2fx, "
              "static final %.2fx)\n", oracle, adaptive.back() / oracle,
              statics.back() / oracle);

  FILE* json = std::fopen("BENCH_adaptive.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"scenario\": \"adaptive_resplit\",\n"
                 "  \"cluster\": \"2 cpu nodes, node 1 at 1/3 of spec\",\n"
                 "  \"iterations\": %d,\n",
                 kIterations);
    auto write_series = [json](const char* key,
                               const std::vector<double>& series) {
      std::fprintf(json, "  \"%s\": [", key);
      for (std::size_t i = 0; i < series.size(); ++i) {
        std::fprintf(json, "%s%.9f", i == 0 ? "" : ", ", series[i]);
      }
      std::fprintf(json, "],\n");
    };
    write_series("hetero_split_makespans_s", statics);
    write_series("adaptive_split_makespans_s", adaptive);
    std::fprintf(json,
                 "  \"oracle_makespan_s\": %.9f,\n"
                 "  \"adaptive_final_over_oracle\": %.4f,\n"
                 "  \"static_final_over_oracle\": %.4f,\n"
                 "  \"adaptive_speedup_vs_static\": %.4f\n"
                 "}\n",
                 oracle, adaptive.back() / oracle, statics.back() / oracle,
                 statics.back() / adaptive.back());
    std::fclose(json);
    std::printf("wrote BENCH_adaptive.json\n");
  }
  return {adaptive.back() / oracle, statics.back() / oracle};
}

}  // namespace

int main() {
  haocl::workloads::RegisterAllNativeKernels();
  // The stream kernel needs an FPGA "bitstream" so FPGA nodes are
  // eligible (it reuses the interpreter-equivalent native path).
  haocl::driver::NativeKernelRegistry::Instance().Register(
      "stream_task",
      [](const std::vector<haocl::oclc::ArgBinding>& args,
         const haocl::oclc::NDRange& range) {
        auto* data = reinterpret_cast<float*>(args[0].data);
        const auto n = static_cast<int>(args[1].scalar.i);
        const auto reps = static_cast<int>(args[2].scalar.i);
        for (std::uint64_t i = 0; i < range.global[0]; ++i) {
          if (static_cast<int>(i) >= n) continue;
          float x = data[i];
          for (int r = 0; r < reps; ++r) x = x * 1.000001f + 0.5f;
          data[i] = x;
        }
        return haocl::Status::Ok();
      });

  std::printf("Scheduler ablation: 120 mixed kernels, 4 GPU + 2 FPGA + 2 "
              "CPU\n");
  std::printf("%-14s %14s %12s %16s\n", "policy", "makespan(s)", "energy(J)",
              "max-node-load(s)");

  for (const char* policy :
       {"roundrobin", "leastloaded", "hetero", "power"}) {
    auto cluster = haocl::host::SimCluster::Create(
        {.gpu_nodes = 4, .fpga_nodes = 2, .cpu_nodes = 2});
    if (!cluster.ok()) return 1;
    auto& runtime = (*cluster)->runtime();
    if (!runtime.SetScheduler(policy).ok()) return 1;

    auto program = runtime.BuildProgram(kStreamSource);
    if (!program.ok()) return 1;
    const int n = 4096;
    auto buffer = runtime.CreateBuffer(n * 4);
    if (!buffer.ok()) return 1;
    std::vector<float> data(n, 1.0f);
    if (!runtime.WriteBuffer(*buffer, 0, data.data(), n * 4).ok()) return 1;

    std::mt19937 rng(7);
    const TaskShape shapes[] = {
        {50.0, 0.5, false},   // Regular compute-bound (GPU territory).
        {5.0, 8.0, true},     // Irregular memory-bound (FPGA territory).
        {0.05, 0.01, false},  // Tiny latency-bound.
    };
    // Asynchronous stream: every kernel is submitted up front, so the
    // load-aware policies see the in-flight backlog the earlier
    // submissions charged (a blocking stream drains it between
    // launches, leaving nothing to balance on).
    std::vector<haocl::host::CommandHandle> handles;
    for (int task = 0; task < 120; ++task) {
      const TaskShape& shape = shapes[task % 3];
      haocl::host::ClusterRuntime::LaunchSpec spec;
      spec.program = *program;
      spec.kernel_name = "stream_task";
      spec.args = {haocl::host::KernelArgValue::Buffer(*buffer),
                   haocl::host::KernelArgValue::Scalar<std::int32_t>(n),
                   haocl::host::KernelArgValue::Scalar<std::int32_t>(
                       1 + static_cast<int>(rng() % 4))};
      spec.global[0] = n;
      spec.preferred_node = -1;  // The policy decides.
      haocl::sim::KernelCost cost;
      cost.flops = shape.gflops * 1e9;
      cost.bytes = shape.gbytes * 1e9;
      cost.irregular = shape.irregular;
      cost.work_items = n;
      spec.cost_hint = cost;
      auto handle = runtime.SubmitLaunch(spec);
      if (!handle.ok()) {
        std::fprintf(stderr, "%s: %s\n", policy,
                     handle.status().ToString().c_str());
        return 1;
      }
      handles.push_back(*handle);
    }
    for (const auto& handle : handles) {
      if (!runtime.Wait(handle).ok()) {
        std::fprintf(stderr, "%s: launch failed\n", policy);
        return 1;
      }
      (void)runtime.ReleaseCommand(handle);
    }

    // Max per-node modeled load = the makespan driver.
    std::printf("%-14s %14.3f %12.0f %16.3f\n", policy,
                runtime.timeline().Makespan(),
                runtime.timeline().TotalEnergyJoules(),
                runtime.timeline().MaxNodeComputeSeconds());
  }

  std::printf(
      "\nExpected shape: hetero < leastloaded < roundrobin on makespan\n"
      "(cost-model placement beats load counting beats blind rotation);\n"
      "power trades some makespan for the lowest energy.\n");
  haocl::driver::NativeKernelRegistry::Instance().Unregister("stream_task");

  // Modeled time, so the ratios are deterministic: adaptive must converge
  // onto the oracle split, and the static baseline must stay far enough
  // off it that the scenario still discriminates.
  const auto [adaptive_ratio, static_ratio] = RunAdaptiveResplitScenario();
  haocl::bench::Gates gates;
  gates.Check(adaptive_ratio <= 1.10,
              "adaptive_split final makespan <= 1.10x oracle");
  gates.Check(static_ratio >= 1.5,
              "hetero_split final makespan >= 1.5x oracle");
  return gates.ExitCode();
}
