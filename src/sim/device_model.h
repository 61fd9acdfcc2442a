// Analytical performance/power models for the three device classes the
// paper deploys: Intel Xeon E5-2686 CPUs, NVIDIA Tesla P4 GPUs and Xilinx
// VU9P FPGAs. A kernel invocation is summarized as a KernelCost (flops,
// bytes moved, work-items); the device model converts that into virtual
// seconds with a roofline-style bound plus device-specific overheads.
//
// The FPGA is modelled as the paper describes it: "a streaming processor
// with different performance characteristics from CPU or GPU" whose tasks
// are "pre-built as executable binaries with the bitstreams". Every
// kernel's bitstream is taken as resident (no reconfiguration time is
// charged): kernels stream with a pipeline-fill latency and high
// sustained efficiency.
#pragma once

#include <cstdint>
#include <string>

#include "common/config.h"
#include "sim/virtual_time.h"

namespace haocl::sim {

// Static description of one device's capabilities.
struct DeviceSpec {
  std::string model_name;
  NodeType type = NodeType::kCpu;

  double compute_gflops = 1.0;     // Peak sustained FP32 throughput.
  double mem_bandwidth_gbps = 1.0; // Device memory bandwidth, GB/s.
  // Independent compute units (CPU cores / GPU SMs / FPGA kernel
  // pipelines). The driver sizes the VM's work-group thread pool from
  // this: one host thread stands in for one compute unit. 0 = unknown
  // (legacy spec); the driver falls back to a single thread.
  int compute_units = 0;
  double launch_overhead_s = 0.0;  // Per-kernel-launch fixed cost.
  double power_watts = 0.0;        // Active power draw.
  // Device memory capacity. This is what the tiered memory subsystem
  // budgets against: resident buffer regions on a node may never exceed
  // it, and launches whose working set does not fit are staged
  // out-of-core. 0 = unbounded (legacy behaviour, and the host's view of
  // a node that predates capacity reporting).
  std::uint64_t mem_capacity_bytes = 0;

  // Fraction of peak reachable by irregular (branchy / gather-scatter)
  // kernels. GPUs degrade sharply on divergent code; FPGAs keep pipelines
  // full; CPUs sit in between.
  double irregular_efficiency = 1.0;

  // FPGA-only streaming parameter (ignored for CPU/GPU).
  double pipeline_fill_s = 0.0;    // Latency to fill the pipeline once.
};

// Per-invocation cost summary produced by the workload layer (or measured
// by the runtime profiler for the heterogeneity-aware scheduler).
struct KernelCost {
  double flops = 0.0;          // Arithmetic work.
  double bytes = 0.0;          // Device-memory traffic (read + write).
  std::uint64_t work_items = 0;
  bool irregular = false;      // Divergent control flow / random access.

  KernelCost Scaled(double fraction) const {
    KernelCost c = *this;
    c.flops *= fraction;
    c.bytes *= fraction;
    c.work_items = static_cast<std::uint64_t>(
        static_cast<double>(c.work_items) * fraction);
    return c;
  }
};

// Virtual seconds for `cost` on `spec`.
SimTime ModelKernelTime(const DeviceSpec& spec, const KernelCost& cost) noexcept;

// Work-group thread-pool width for executing on `spec`: one host thread
// per compute unit, clamped to `host_threads` (the silicon we actually
// have). Specs that predate compute-unit reporting get 1.
int ExecPoolWidth(const DeviceSpec& spec, int host_threads) noexcept;

// Calibrated presets matching the paper's testbed (Section IV-A).
DeviceSpec XeonE52686();   // CPU node.
DeviceSpec TeslaP4();      // GPU node.
DeviceSpec XilinxVU9P();   // FPGA node.
DeviceSpec SpecForType(NodeType type);

}  // namespace haocl::sim
