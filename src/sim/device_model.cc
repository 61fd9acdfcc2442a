#include "sim/device_model.h"

#include <algorithm>

namespace haocl::sim {

SimTime ModelKernelTime(const DeviceSpec& spec,
                        const KernelCost& cost) noexcept {
  const double efficiency = cost.irregular ? spec.irregular_efficiency : 1.0;
  const double gflops = std::max(1e-9, spec.compute_gflops * efficiency);
  const double bw = std::max(1e-9, spec.mem_bandwidth_gbps);

  const double compute_s = cost.flops / (gflops * 1e9);
  const double memory_s = cost.bytes / (bw * 1e9);

  // Roofline: the slower of the two ceilings bounds the kernel.
  double time = std::max(compute_s, memory_s) + spec.launch_overhead_s;
  if (spec.type == NodeType::kFpga) {
    time += spec.pipeline_fill_s;
  }
  return time;
}

int ExecPoolWidth(const DeviceSpec& spec, int host_threads) noexcept {
  if (spec.compute_units <= 0) return 1;
  return std::max(1, std::min(spec.compute_units, host_threads));
}

DeviceSpec XeonE52686() {
  DeviceSpec spec;
  spec.model_name = "Intel Xeon E5-2686 v4";
  spec.type = NodeType::kCpu;
  // 16 usable cores x 2.3 GHz x AVX2 (8 FP32 FMA lanes x 2) ~= 590 GFLOPs
  // peak; we model ~40% sustained for OpenCL workloads.
  spec.compute_gflops = 235.0;
  spec.compute_units = 16;  // Physical cores.
  spec.mem_bandwidth_gbps = 60.0;
  spec.launch_overhead_s = 5e-6;
  spec.power_watts = 145.0;
  spec.irregular_efficiency = 0.55;  // OoO cores tolerate divergence well.
  spec.mem_capacity_bytes = 64ull << 30;  // Host DRAM share.
  return spec;
}

DeviceSpec TeslaP4() {
  DeviceSpec spec;
  spec.model_name = "NVIDIA Tesla P4";
  spec.type = NodeType::kGpu;
  spec.compute_gflops = 5500.0;      // 5.5 TFLOPs FP32 peak.
  spec.compute_units = 20;           // Pascal GP104 SM count.
  spec.mem_bandwidth_gbps = 192.0;   // GDDR5.
  spec.launch_overhead_s = 10e-6;
  spec.power_watts = 75.0;
  spec.irregular_efficiency = 0.12;  // Divergence + uncoalesced access hurt.
  spec.mem_capacity_bytes = 8ull << 30;  // 8 GB GDDR5.
  return spec;
}

DeviceSpec XilinxVU9P() {
  DeviceSpec spec;
  spec.model_name = "Xilinx Virtex UltraScale+ VU9P";
  spec.type = NodeType::kFpga;
  // Custom dataflow pipelines: lower peak than the GPU but the pipeline
  // stays full on irregular kernels.
  spec.compute_gflops = 900.0;
  spec.compute_units = 8;            // Replicated kernel pipelines (CUs).
  spec.mem_bandwidth_gbps = 77.0;    // 4x DDR4-2400 channels on the shell.
  spec.launch_overhead_s = 20e-6;
  spec.power_watts = 45.0;
  spec.irregular_efficiency = 0.85;  // Streaming pipelines mask irregularity.
  spec.pipeline_fill_s = 50e-6;
  spec.mem_capacity_bytes = 16ull << 30;  // 4x DDR4 channels on the shell.
  return spec;
}

DeviceSpec SpecForType(NodeType type) {
  switch (type) {
    case NodeType::kCpu: return XeonE52686();
    case NodeType::kGpu: return TeslaP4();
    case NodeType::kFpga: return XilinxVU9P();
  }
  return XeonE52686();
}

}  // namespace haocl::sim
