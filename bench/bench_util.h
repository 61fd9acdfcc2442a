// Shared helpers for the figure-reproduction harnesses.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "host/sim_cluster.h"
#include "workloads/workload.h"

namespace haocl::bench {

// Paper-scale amplification factors for one workload: execute at laptop
// scale, model the paper's input sizes (DESIGN.md §2, EXPERIMENTS.md).
struct Amplification {
  double transfer = 1.0;
  double compute = 1.0;
};

// exec_bytes: the bytes the laptop-scale run actually generates;
// superlinear_compute: true for MatrixMul (flops ~ bytes^1.5).
inline Amplification PaperScale(std::uint64_t paper_bytes,
                                std::uint64_t exec_bytes,
                                bool superlinear_compute) {
  Amplification amp;
  amp.transfer = static_cast<double>(paper_bytes) /
                 static_cast<double>(exec_bytes);
  amp.compute = superlinear_compute
                    ? amp.transfer * std::sqrt(amp.transfer)
                    : amp.transfer;
  return amp;
}

// Runs `workload` on a fresh cluster of the given shape and returns the
// report; dies loudly on error (bench harness).
inline workloads::RunReport MustRun(workloads::Workload& workload,
                                    std::size_t gpu_nodes,
                                    std::size_t fpga_nodes, double scale,
                                    const Amplification& amp) {
  auto cluster = host::SimCluster::Create(
      {.gpu_nodes = gpu_nodes, .fpga_nodes = fpga_nodes});
  if (!cluster.ok()) {
    std::fprintf(stderr, "cluster: %s\n", cluster.status().ToString().c_str());
    std::exit(1);
  }
  auto& runtime = (*cluster)->runtime();
  runtime.timeline().SetAmplification(amp.transfer, amp.compute);
  std::vector<std::size_t> nodes;
  for (std::size_t i = 0; i < gpu_nodes + fpga_nodes; ++i) nodes.push_back(i);
  auto report = workload.Run(runtime, nodes, scale);
  if (!report.ok()) {
    std::fprintf(stderr, "%s: %s\n", workload.name().c_str(),
                 report.status().ToString().c_str());
    std::exit(1);
  }
  if (!report->verified) {
    std::fprintf(stderr, "%s: numerics diverged!\n", workload.name().c_str());
    std::exit(1);
  }
  return *report;
}

// "Compute" seconds: the longest per-node accelerator busy time — the
// parallel compute makespan, measured from the virtual timeline's
// per-node resources (it includes straggling from imbalanced partitions).
// Fig. 2's near-linear speedups live in this regime, where the problem
// "exceeds the capacity of a single node" and one-time data staging is
// amortized; end-to-end including staging is what Fig. 3 breaks down.
inline double ComputeSeconds(const workloads::RunReport& report,
                             const Amplification& /*amp*/) {
  return report.compute_parallel_seconds > 1e-12
             ? report.compute_parallel_seconds
             : report.virtual_seconds;
}

// Exit-code gates: each Check names one target the bench must hit and
// reports a miss on stderr; ExitCode() is nonzero when any missed. Benches
// check every target and still write their BENCH_*.json before exiting,
// so a CI failure comes with the numbers that caused it.
class Gates {
 public:
  void Check(bool ok, const std::string& target) {
    if (ok) return;
    std::fprintf(stderr, "BENCH GATE MISSED: %s\n", target.c_str());
    missed_ = true;
  }
  [[nodiscard]] int ExitCode() const { return missed_ ? 1 : 0; }

 private:
  bool missed_ = false;
};

}  // namespace haocl::bench
