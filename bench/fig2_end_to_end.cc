// Reproduces Fig. 2: end-to-end speedup over a single GPU node for every
// Table-I application, across node counts and cluster compositions:
//   HaoCL-GPU    : k GPU nodes
//   HaoCL-FPGA   : k FPGA nodes (the paper had 4)
//   HaoCL-Hetero : k/2 GPU + k/2 FPGA
//   SnuCL-D      : the comparator model, GPU-only (CFD unsupported)
//
// Two speedup flavours are reported (EXPERIMENTS.md):
//   steady : recurring work only (compute + per-iteration communication),
//            the regime where the paper's "near-liner" speedups live;
//   e2e    : including one-time data creation + initial distribution.
#include <cstdio>

#include "baseline/snucl_d.h"
#include "bench/bench_util.h"

namespace {

using haocl::bench::Amplification;
using haocl::bench::ComputeSeconds;
using haocl::bench::MustRun;
using haocl::bench::PaperScale;

struct SeriesPoint {
  double steady;
  double e2e;
};

}  // namespace

int main() {
  haocl::workloads::RegisterAllNativeKernels();
  const double scale = 0.25;
  const std::size_t node_counts[] = {1, 2, 4, 8, 16};

  std::printf(
      "Fig. 2: end-to-end speedup over a single GPU node (compute / e2e)\n");

  for (const auto& workload : haocl::workloads::AllWorkloads()) {
    // Probe run to learn the generated size -> amplification factors.
    auto probe = MustRun(*workload, 1, 0, scale, {});
    const bool superlinear = workload->name() == "MatrixMul";
    const Amplification amp = PaperScale(workload->paper_input_bytes(),
                                         probe.input_bytes, superlinear);

    // Baseline: single GPU node.
    auto base = MustRun(*workload, 1, 0, scale, amp);
    const double base_steady = ComputeSeconds(base, amp);
    const double base_e2e = base.virtual_seconds;

    std::printf("\n%s (paper size %.0f MB; modeled at paper scale)\n",
                workload->name().c_str(),
                static_cast<double>(workload->paper_input_bytes()) /
                    (1 << 20));
    std::printf("  %-14s", "nodes:");
    for (std::size_t k : node_counts) std::printf(" %11zu", k);
    std::printf("\n");

    enum class Mix { kGpuOnly, kFpgaOnly, kHetero };
    auto run_series = [&](const char* label, Mix mix, std::size_t max_k) {
      std::printf("  %-14s", label);
      for (std::size_t k : node_counts) {
        if (k > max_k) {
          std::printf(" %11s", "-");
          continue;
        }
        std::size_t gpus = 0;
        std::size_t fpgas = 0;
        switch (mix) {
          case Mix::kGpuOnly: gpus = k; break;
          case Mix::kFpgaOnly: fpgas = k; break;
          case Mix::kHetero:
            gpus = (k + 1) / 2;
            fpgas = k / 2;
            break;
        }
        auto report = MustRun(*workload, gpus, fpgas, scale, amp);
        const double steady =
            base_steady / ComputeSeconds(report, amp);
        const double e2e = base_e2e / report.virtual_seconds;
        std::printf(" %5.2f/%5.2f", steady, e2e);
      }
      std::printf("\n");
    };

    run_series("HaoCL-GPU", Mix::kGpuOnly, 16);
    run_series("HaoCL-FPGA", Mix::kFpgaOnly, 4);  // Paper had 4 FPGA nodes.
    run_series("HaoCL-Hetero", Mix::kHetero, 16);

    // SnuCL-D comparator (GPU-only; steady-state style model).
    haocl::baseline::SnuClDModel snucl;
    auto profile = haocl::baseline::ProfileFor(workload->name(), scale);
    // Project the profile to paper scale with the same factors.
    profile.input_bytes = static_cast<std::uint64_t>(
        static_cast<double>(profile.input_bytes) * amp.transfer);
    profile.output_bytes = static_cast<std::uint64_t>(
        static_cast<double>(profile.output_bytes) * amp.transfer);
    profile.total_flops *= amp.compute;
    profile.total_mem_bytes *= amp.compute;
    const auto snucl_base = snucl.Run(profile, 1);
    std::printf("  %-14s", "SnuCL-D");
    for (std::size_t k : node_counts) {
      const auto result = snucl.Run(profile, k);
      if (!result.supported || !snucl_base.supported) {
        std::printf(" %11s", "n/a");
      } else {
        std::printf(" %11.2f", snucl_base.seconds / result.seconds);
      }
    }
    std::printf("\n");
  }

  std::printf(
      "\nExpected shape: HaoCL series scale near-linearly in the steady\n"
      "regime (compute-bound apps best, BFS worst); SnuCL-D scales\n"
      "sub-linearly (data replication + coarse static partitioning) and\n"
      "cannot run CFD; FPGA/Hetero series track GPU within their device\n"
      "models' throughput ratios.\n");
  return 0;
}
