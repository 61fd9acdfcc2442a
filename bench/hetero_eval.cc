// Reproduces the heterogeneity evaluation (§IV-C): MatrixMul and SpMV on
// hybrid GPU+FPGA clusters, normalized to a single GPU node and to a
// single FPGA node.
//   - MatrixMul: the same kernel everywhere, different data portions;
//   - SpMV: stage-partitioned — the data-partition kernel on the GPUs and
//     the compute kernel on the FPGAs.
//   - Co-execution: ONE partitioned matmul launch split by the
//     "hetero_split" placement plan vs the best single-node placement;
//     emits machine-readable BENCH_coexec.json for the perf trajectory.
//   - Chained partitioned launches: producer/consumer ping-pong over one
//     buffer with node-to-node slice exchange vs the gather-through-host
//     star (no node-to-node links); emits BENCH_p2p.json with the host
//     payload bytes moved and the modeled walltimes.
//   - Out-of-core staging: a working set ~4x the device's memory tier,
//     decomposed into pipelined stages (stage k+1's transfer overlaps
//     stage k's compute) vs naive serial staging; emits BENCH_ooc.json.
// Exits nonzero if a co-executed launch does not plan one shard per node
// or is not faster than its single-node run, a chained launch moves any
// host payload bytes in the steady state, or pipelined staging beats
// serial staging by less than 1.4x.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/log.h"
#include "workloads/spmv_staged.h"

namespace {

using haocl::bench::Amplification;
using haocl::bench::PaperScale;

// One whole-matrix matmul launch, rows annotated kPartitionedDim0; the
// active policy decides whether it runs on one node or co-executes.
double RunMatmulOnce(haocl::host::SimCluster::Shape shape,
                     const char* policy, std::uint32_t* shards) {
  using namespace haocl;
  constexpr int kN = 128;
  auto cluster = host::SimCluster::Create(shape);
  if (!cluster.ok()) std::exit(1);
  auto& runtime = (*cluster)->runtime();
  if (!runtime.SetScheduler(policy).ok()) std::exit(1);
  const double ratio = 10000.0 / kN;  // Model the paper's N=10000.
  runtime.timeline().SetAmplification(ratio * ratio, ratio * ratio * ratio);

  auto workload = workloads::MakeMatrixMul();
  auto program = runtime.BuildProgram(workload->kernel_source());
  if (!program.ok()) std::exit(1);
  std::vector<float> a(static_cast<std::size_t>(kN) * kN, 0.5f);
  auto a_buf = runtime.CreateBuffer(a.size() * 4);
  auto b_buf = runtime.CreateBuffer(a.size() * 4);
  auto c_buf = runtime.CreateBuffer(a.size() * 4);
  if (!a_buf.ok() || !b_buf.ok() || !c_buf.ok()) std::exit(1);
  if (!runtime.WriteBuffer(*a_buf, 0, a.data(), a.size() * 4).ok() ||
      !runtime.WriteBuffer(*b_buf, 0, a.data(), a.size() * 4).ok()) {
    std::exit(1);
  }

  host::ClusterRuntime::LaunchSpec spec;
  spec.program = *program;
  spec.kernel_name = "matmul_partition";
  const std::uint64_t row_bytes = static_cast<std::uint64_t>(kN) * 4;
  spec.args = {host::KernelArgValue::PartitionedBuffer(*a_buf, row_bytes),
               host::KernelArgValue::Buffer(*b_buf),
               host::KernelArgValue::PartitionedBuffer(*c_buf, row_bytes),
               host::KernelArgValue::Scalar<std::int32_t>(kN),
               host::KernelArgValue::Scalar<std::int32_t>(kN)};
  spec.work_dim = 2;
  spec.global[0] = kN;
  spec.global[1] = kN;
  sim::KernelCost cost;
  cost.flops = 2.0 * kN * static_cast<double>(kN) * kN;
  cost.bytes = cost.flops * 4.0;
  cost.work_items = static_cast<std::uint64_t>(kN) * kN;
  spec.cost_hint = cost;

  auto result = runtime.LaunchKernel(spec);
  if (!result.ok()) std::exit(1);
  if (shards != nullptr) *shards = result->shard_count;
  return result->virtual_completion;
}

double RunSpmvStagedSeconds(std::size_t gpus, std::size_t fpgas,
                            double scale, const Amplification& amp) {
  auto cluster = haocl::host::SimCluster::Create(
      {.gpu_nodes = gpus, .fpga_nodes = fpgas});
  if (!cluster.ok()) std::exit(1);
  auto& runtime = (*cluster)->runtime();
  runtime.timeline().SetAmplification(amp.transfer, amp.compute);
  std::vector<std::size_t> gpu_nodes;
  std::vector<std::size_t> fpga_nodes;
  for (std::size_t i = 0; i < gpus; ++i) gpu_nodes.push_back(i);
  for (std::size_t i = 0; i < fpgas; ++i) fpga_nodes.push_back(gpus + i);
  // Homogeneous fallbacks when one class is absent.
  if (gpu_nodes.empty()) gpu_nodes = fpga_nodes;
  if (fpga_nodes.empty()) fpga_nodes = gpu_nodes;
  auto report = haocl::workloads::RunSpmvStaged(runtime, gpu_nodes,
                                                fpga_nodes, scale);
  if (!report.ok() || !report->verified) {
    std::fprintf(stderr, "SpMV staged failed\n");
    std::exit(1);
  }
  return haocl::bench::ComputeSeconds(*report, amp);
}

// Chained partitioned launches over ONE buffer: even iterations run the
// whole kernel on node 0 (user-directed), odd iterations co-execute it
// split across the cluster — every iteration after the first moves slices
// between nodes, never new data from the host. Returns the steady-state
// metrics (warmup iterations, which legitimately scatter from the host,
// excluded).
struct ChainedResult {
  double virtual_seconds = 0.0;     // Modeled makespan of the steady state.
  double wall_seconds = 0.0;
  std::uint64_t host_payload = 0;   // Bytes through the host, steady state.
  std::uint64_t p2p_bytes = 0;
  std::uint64_t relay_bytes = 0;
};

ChainedResult RunChainedOnce(haocl::host::SimCluster::Shape shape,
                             haocl::host::SimCluster::PeerTopology peers) {
  using namespace haocl;
  constexpr int kN = 64 << 10;  // 256 KiB of int32.
  constexpr int kIterations = 8;
  constexpr int kWarmup = 2;
  auto cluster = host::SimCluster::Create(shape, {}, peers);
  if (!cluster.ok()) std::exit(1);
  auto& runtime = (*cluster)->runtime();
  auto program = runtime.BuildProgram(R"(
    __kernel void doubler(__global int* data, int n) {
      int i = get_global_id(0);
      if (i < n) data[i] = data[i] * 2;
    })");
  if (!program.ok()) std::exit(1);
  auto buffer = runtime.CreateBuffer(static_cast<std::uint64_t>(kN) * 4);
  if (!buffer.ok()) std::exit(1);
  std::vector<std::int32_t> values(kN, 1);
  if (!runtime.WriteBuffer(*buffer, 0, values.data(), values.size() * 4)
           .ok()) {
    std::exit(1);
  }

  ChainedResult result;
  double virtual_start = 0.0;
  host::TransferStats start_stats;
  const auto wall_start = std::chrono::steady_clock::now();
  for (int iter = 0; iter < kIterations; ++iter) {
    if (iter == kWarmup) {
      virtual_start = runtime.timeline().Makespan();
      auto snapshot = runtime.DirectorySnapshotOf(*buffer);
      if (!snapshot.ok()) std::exit(1);
      start_stats = snapshot->stats;
    }
    const bool whole = iter % 2 == 0;
    if (!runtime.SetScheduler(whole ? "user" : "hetero_split").ok()) {
      std::exit(1);
    }
    host::ClusterRuntime::LaunchSpec spec;
    spec.program = *program;
    spec.kernel_name = "doubler";
    spec.args = {host::KernelArgValue::PartitionedBuffer(*buffer, 4),
                 host::KernelArgValue::Scalar<std::int32_t>(kN)};
    spec.global[0] = kN;
    spec.preferred_node = whole ? 0 : -1;
    auto launched = runtime.LaunchKernel(spec);
    if (!launched.ok()) std::exit(1);
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  result.virtual_seconds = runtime.timeline().Makespan() - virtual_start;
  auto snapshot = runtime.DirectorySnapshotOf(*buffer);
  if (!snapshot.ok()) std::exit(1);
  result.host_payload = snapshot->stats.host_payload_bytes() -
                        start_stats.host_payload_bytes();
  result.p2p_bytes = snapshot->stats.p2p_bytes - start_stats.p2p_bytes;
  result.relay_bytes = snapshot->stats.relay_bytes - start_stats.relay_bytes;
  return result;
}

// Out-of-core staging: one row-sum launch whose working set is ~4x the
// GPU's memory tier. The compute hint is sized so per-stage compute
// roughly matches the per-stage slice transfer — the regime where
// overlapping them pays.
struct OocResult {
  double virtual_seconds = 0.0;
  std::uint32_t stages = 0;
  std::uint64_t spill_bytes = 0;
};

OocResult RunOocOnce(bool pipelined) {
  using namespace haocl;
  constexpr std::uint64_t kRows = 16384;
  constexpr std::uint64_t kCols = 16;
  constexpr std::uint64_t kCapacity = 256 << 10;  // The GPU tier.
  host::RuntimeOptions options;
  options.stage_pipeline = pipelined;
  // The CPU node only provides cluster-wide capacity headroom; the launch
  // is pinned to the starved GPU.
  auto cluster = host::SimCluster::Create(
      {.gpu_nodes = 1, .cpu_nodes = 1}, options,
      host::SimCluster::PeerTopology::kFullMesh, {},
      {kCapacity, 64 << 20});
  if (!cluster.ok()) std::exit(1);
  auto& runtime = (*cluster)->runtime();
  auto program = runtime.BuildProgram(R"(
    __kernel void rowsum_ooc(__global const float* in, __global float* out,
                             int m) {
      int i = get_global_id(0);
      float s = 0.0f;
      for (int j = 0; j < m; j++) {
        s = s + in[i * m + j];
      }
      out[i] = s;
    })");
  if (!program.ok()) std::exit(1);
  const std::uint64_t in_bytes = kRows * kCols * 4;
  auto in = runtime.CreateBuffer(in_bytes);
  auto out = runtime.CreateBuffer(kRows * 4);
  if (!in.ok() || !out.ok()) std::exit(1);
  std::vector<float> host_in(kRows * kCols, 1.0f);
  if (!runtime.WriteBuffer(*in, 0, host_in.data(), in_bytes).ok()) {
    std::exit(1);
  }
  host::ClusterRuntime::LaunchSpec spec;
  spec.program = *program;
  spec.kernel_name = "rowsum_ooc";
  spec.args = {host::KernelArgValue::PartitionedBuffer(*in, kCols * 4),
               host::KernelArgValue::PartitionedBuffer(*out, 4),
               host::KernelArgValue::Scalar<std::int32_t>(
                   static_cast<std::int32_t>(kCols))};
  spec.global[0] = kRows;
  spec.preferred_node = 0;
  sim::KernelCost cost;
  cost.flops = 4.7e10;  // ~1 ms of modeled GPU compute per stage.
  cost.bytes = static_cast<double>(in_bytes);
  spec.cost_hint = cost;
  const double start = runtime.timeline().Makespan();
  auto result = runtime.LaunchKernel(spec);
  if (!result.ok()) {
    std::fprintf(stderr, "OOC launch failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  std::vector<float> host_out(kRows);
  if (!runtime.ReadBuffer(*out, 0, host_out.data(), kRows * 4).ok()) {
    std::exit(1);
  }
  for (float v : host_out) {
    if (v != static_cast<float>(kCols)) std::exit(1);  // Bit-exact check.
  }
  if (!runtime.Finish().ok()) std::exit(1);
  OocResult ooc;
  ooc.virtual_seconds = runtime.timeline().Makespan() - start;
  ooc.stages = result->stage_count;
  ooc.spill_bytes = runtime.transfer_stats().spill_bytes;
  return ooc;
}

}  // namespace

int main() {
  haocl::workloads::RegisterAllNativeKernels();
  const double scale = 0.25;

  struct Config {
    const char* label;
    std::size_t gpus;
    std::size_t fpgas;
  };
  const Config configs[] = {
      {"1 GPU", 1, 0},   {"2 GPU", 2, 0},   {"4 GPU", 4, 0},
      {"1 FPGA", 0, 1},  {"2 FPGA", 0, 2},  {"4 FPGA", 0, 4},
      {"1G+1F", 1, 1},   {"2G+2F", 2, 2},   {"4G+4F", 4, 4},
  };

  // ---- MatrixMul: data-partitioned across the hybrid cluster -----------
  auto matmul = haocl::workloads::MakeMatrixMul();
  auto probe = haocl::bench::MustRun(*matmul, 1, 0, scale, {});
  const Amplification mm_amp =
      PaperScale(matmul->paper_input_bytes(), probe.input_bytes, true);

  std::printf("Heterogeneity evaluation (steady-state seconds, and\n");
  std::printf("performance normalized to 1 GPU and to 1 FPGA)\n\n");
  std::printf("MatrixMul (same kernel, different data portions)\n");
  std::printf("%-8s %12s %10s %10s\n", "cluster", "seconds", "vs 1GPU",
              "vs 1FPGA");
  double mm_gpu1 = 0.0;
  double mm_fpga1 = 0.0;
  std::vector<double> mm_seconds;
  for (const Config& config : configs) {
    auto report = haocl::bench::MustRun(*matmul, config.gpus, config.fpgas,
                                        scale, mm_amp);
    const double seconds = haocl::bench::ComputeSeconds(report, mm_amp);
    mm_seconds.push_back(seconds);
    if (std::string(config.label) == "1 GPU") mm_gpu1 = seconds;
    if (std::string(config.label) == "1 FPGA") mm_fpga1 = seconds;
  }
  for (std::size_t i = 0; i < mm_seconds.size(); ++i) {
    std::printf("%-8s %12.2f %10.2f %10.2f\n", configs[i].label,
                mm_seconds[i], mm_gpu1 / mm_seconds[i],
                mm_fpga1 / mm_seconds[i]);
  }

  // ---- SpMV: partition kernel on GPUs, compute kernel on FPGAs ---------
  auto spmv = haocl::workloads::MakeSpmv();
  auto spmv_probe = haocl::bench::MustRun(*spmv, 1, 0, scale, {});
  const Amplification sp_amp =
      PaperScale(spmv->paper_input_bytes(), spmv_probe.input_bytes, false);

  std::printf("\nSpMV (stage-partitioned: partition on GPU, compute on "
              "FPGA)\n");
  std::printf("%-8s %12s %10s %10s\n", "cluster", "seconds", "vs 1GPU",
              "vs 1FPGA");
  std::vector<double> sp_seconds;
  double sp_gpu1 = 0.0;
  double sp_fpga1 = 0.0;
  for (const Config& config : configs) {
    const double seconds =
        RunSpmvStagedSeconds(config.gpus, config.fpgas, scale, sp_amp);
    sp_seconds.push_back(seconds);
    if (std::string(config.label) == "1 GPU") sp_gpu1 = seconds;
    if (std::string(config.label) == "1 FPGA") sp_fpga1 = seconds;
  }
  for (std::size_t i = 0; i < sp_seconds.size(); ++i) {
    std::printf("%-8s %12.4f %10.2f %10.2f\n", configs[i].label,
                sp_seconds[i], sp_gpu1 / sp_seconds[i],
                sp_fpga1 / sp_seconds[i]);
  }

  std::printf(
      "\nExpected shape: performance scales with device count for both\n"
      "apps; on SpMV (irregular, memory-bound) the FPGA's streaming\n"
      "pipelines close most of the gap to the GPU, so hybrid clusters use\n"
      "both device classes productively — the paper's takeaway that \"the\n"
      "heterogeneity of the devices in the cluster is well utilized\".\n");

  // ---- Co-execution: one launch split across the cluster ---------------
  std::printf("\nMatrixMul co-execution (ONE launch, hetero_split placement"
              " plan)\n");
  std::printf("%-12s %14s %14s %9s %7s\n", "cluster", "1-node(s)",
              "co-exec(s)", "speedup", "shards");
  struct CoexecShape {
    const char* label;
    haocl::host::SimCluster::Shape shape;
  };
  const CoexecShape coexec_shapes[] = {
      {"1G+1C", {.gpu_nodes = 1, .cpu_nodes = 1}},
      {"2G+1C", {.gpu_nodes = 2, .cpu_nodes = 1}},
      {"2G+2F", {.gpu_nodes = 2, .fpga_nodes = 2}},
      {"4G+4F", {.gpu_nodes = 4, .fpga_nodes = 4}},
  };
  haocl::bench::Gates gates;
  FILE* json = std::fopen("BENCH_coexec.json", "w");
  if (json != nullptr) std::fprintf(json, "{\n  \"scenarios\": [\n");
  for (std::size_t i = 0; i < std::size(coexec_shapes); ++i) {
    const CoexecShape& shape = coexec_shapes[i];
    const double single = RunMatmulOnce(shape.shape, "hetero", nullptr);
    std::uint32_t shards = 0;
    const double coexec =
        RunMatmulOnce(shape.shape, "hetero_split", &shards);
    // Per shape only: the modeled co-exec seconds move from run to run
    // (the single-node seconds do not), so the order across shapes is not
    // a stable target.
    const std::size_t nodes = shape.shape.gpu_nodes +
                              shape.shape.fpga_nodes + shape.shape.cpu_nodes;
    gates.Check(shards == nodes, std::string("BENCH_coexec ") + shape.label +
                                     ": one shard per node (" +
                                     std::to_string(nodes) + ")");
    gates.Check(single / coexec > 1.0,
                std::string("BENCH_coexec ") + shape.label +
                    ": co-exec speedup over the single node > 1.0");
    std::printf("%-12s %14.3f %14.3f %8.2fx %7u\n", shape.label, single,
                coexec, single / coexec, shards);
    if (json != nullptr) {
      std::fprintf(json,
                   "    {\"cluster\": \"%s\", \"single_node_seconds\": %.6f,"
                   " \"coexec_seconds\": %.6f, \"speedup\": %.4f,"
                   " \"shards\": %u}%s\n",
                   shape.label, single, coexec, single / coexec, shards,
                   i + 1 < std::size(coexec_shapes) ? "," : "");
    }
  }
  if (json != nullptr) {
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_coexec.json\n");
  }

  // ---- Chained partitioned launches: P2P slice exchange vs host star ----
  std::printf("\nChained partitioned launches (steady state: host payload"
              " bytes and modeled seconds)\n");
  std::printf("%-12s %12s %12s %12s %12s %8s\n", "cluster", "p2p:hostB",
              "p2p:moved", "star:hostB", "p2p(s)", "speedup");
  FILE* p2p_json = std::fopen("BENCH_p2p.json", "w");
  if (p2p_json != nullptr) std::fprintf(p2p_json, "{\n  \"scenarios\": [\n");
  for (std::size_t i = 0; i < std::size(coexec_shapes); ++i) {
    const CoexecShape& shape = coexec_shapes[i];
    const ChainedResult p2p = RunChainedOnce(
        shape.shape, haocl::host::SimCluster::PeerTopology::kFullMesh);
    // Every star pull fails by construction and relays through the host;
    // keep the runtime's per-pull warning out of the report.
    const haocl::LogLevel log_level = haocl::GetLogLevel();
    haocl::SetLogLevel(haocl::LogLevel::kError);
    const ChainedResult star = RunChainedOnce(
        shape.shape, haocl::host::SimCluster::PeerTopology::kNone);
    haocl::SetLogLevel(log_level);
    gates.Check(p2p.host_payload == 0,
                std::string("BENCH_p2p ") + shape.label +
                    ": p2p_host_payload_bytes == 0");
    std::printf("%-12s %12llu %12llu %12llu %12.4f %7.2fx\n", shape.label,
                static_cast<unsigned long long>(p2p.host_payload),
                static_cast<unsigned long long>(p2p.p2p_bytes),
                static_cast<unsigned long long>(star.host_payload),
                p2p.virtual_seconds,
                star.virtual_seconds / p2p.virtual_seconds);
    if (p2p_json != nullptr) {
      std::fprintf(
          p2p_json,
          "    {\"cluster\": \"%s\", \"p2p_host_payload_bytes\": %llu,"
          " \"p2p_bytes\": %llu, \"star_host_payload_bytes\": %llu,"
          " \"star_relay_bytes\": %llu, \"p2p_virtual_seconds\": %.6f,"
          " \"star_virtual_seconds\": %.6f, \"p2p_wall_seconds\": %.6f,"
          " \"star_wall_seconds\": %.6f, \"speedup\": %.4f}%s\n",
          shape.label,
          static_cast<unsigned long long>(p2p.host_payload),
          static_cast<unsigned long long>(p2p.p2p_bytes),
          static_cast<unsigned long long>(star.host_payload),
          static_cast<unsigned long long>(star.relay_bytes),
          p2p.virtual_seconds, star.virtual_seconds, p2p.wall_seconds,
          star.wall_seconds,
          star.virtual_seconds / p2p.virtual_seconds,
          i + 1 < std::size(coexec_shapes) ? "," : "");
    }
  }
  if (p2p_json != nullptr) {
    std::fprintf(p2p_json, "  ]\n}\n");
    std::fclose(p2p_json);
    std::printf("\nwrote BENCH_p2p.json\n");
  }

  // ---- Out-of-core staging: pipelined vs naive serial ------------------
  std::printf("\nOut-of-core staging (working set ~4x the GPU tier,"
              " modeled seconds)\n");
  const OocResult serial = RunOocOnce(/*pipelined=*/false);
  const OocResult pipelined = RunOocOnce(/*pipelined=*/true);
  const double speedup = serial.virtual_seconds / pipelined.virtual_seconds;
  gates.Check(speedup >= 1.4,
              "BENCH_ooc: pipelined-vs-serial staging speedup >= 1.4");
  std::printf("%-10s %8s %12s %12s %8s\n", "cluster", "stages",
              "pipelined(s)", "serial(s)", "speedup");
  std::printf("%-10s %8u %12.4f %12.4f %7.2fx\n", "1G(256KiB)",
              pipelined.stages, pipelined.virtual_seconds,
              serial.virtual_seconds, speedup);
  FILE* ooc_json = std::fopen("BENCH_ooc.json", "w");
  if (ooc_json != nullptr) {
    std::fprintf(
        ooc_json,
        "{\n  \"scenarios\": [\n"
        "    {\"cluster\": \"1G (256 KiB tier)\","
        " \"working_set_bytes\": %llu, \"capacity_bytes\": %llu,"
        " \"stages\": %u, \"pipelined_seconds\": %.6f,"
        " \"serial_seconds\": %.6f, \"spill_bytes\": %llu,"
        " \"speedup\": %.4f}\n  ]\n}\n",
        static_cast<unsigned long long>(16384ull * 16 * 4 + 16384ull * 4),
        static_cast<unsigned long long>(256 << 10), pipelined.stages,
        pipelined.virtual_seconds, serial.virtual_seconds,
        static_cast<unsigned long long>(pipelined.spill_bytes), speedup);
    std::fclose(ooc_json);
    std::printf("\nwrote BENCH_ooc.json\n");
  }
  return gates.ExitCode();
}
