// DeviceDriver: the vendor-driver boundary behind the ICD.
//
// A driver owns functional execution (really running the kernel over real
// bytes) and timing (the calibrated device model that stands in for the
// silicon we don't have). Launch returns both: mutated buffers plus a
// LaunchProfile with the modeled seconds that flow back to the host
// scheduler as "runtime information of the kernel on the nodes" (paper
// §III-B). Energy is the host's to model: busy time x power
// (host::VirtualTimeline::TotalEnergyJoules).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "oclc/program.h"
#include "oclc/vm.h"
#include "sim/device_model.h"

namespace haocl::driver {

struct LaunchProfile {
  double modeled_seconds = 0.0;
  std::uint64_t flops = 0;
  bool used_native_binary = false;
  // VM execution counters (zero when the launch ran a native binary).
  // `vm_instructions` is the exact retired work-item instruction count —
  // unlike `flops`, which is a static-mix estimate — so sessions can
  // report real dynamic work per kernel.
  std::uint64_t vm_instructions = 0;
  std::uint64_t vm_batch_steps = 0;   // Batched dispatches (per group).
  std::uint64_t vm_fused_steps = 0;   // Dispatches through fused ops.
  std::uint64_t vm_simd_steps = 0;    // Dispatches that took a vector path.
  std::uint64_t vm_bailouts = 0;      // Groups that diverged to the oracle.
};

class DeviceDriver {
 public:
  virtual ~DeviceDriver() = default;

  [[nodiscard]] virtual const sim::DeviceSpec& spec() const = 0;

  // Compiles OpenCL C for this device. Drivers may reject programs (e.g.
  // the FPGA driver rejects nothing at build time — bitstream presence is
  // checked per-kernel at launch, matching how HLS flows ship prebuilt
  // xclbin containers).
  virtual Expected<std::shared_ptr<const oclc::Module>> Build(
      const std::string& source, std::string* build_log) = 0;

  // Executes `kernel_name` and fills `profile`. `cost_hint`, when
  // non-null, is the caller's analytic work estimate (already scaled to
  // this launch's range); the timing model uses it instead of the static
  // instruction-mix estimate, which cannot see data-dependent trip
  // counts. Functional execution never depends on it.
  virtual Status Launch(const oclc::Module& module,
                        const std::string& kernel_name,
                        const std::vector<oclc::ArgBinding>& args,
                        const oclc::NDRange& range, LaunchProfile* profile,
                        const sim::KernelCost* cost_hint = nullptr) = 0;
};

// Estimates the work a launch performs, for the device timing model. Uses
// instruction counts from the compiled kernel body scaled by the NDRange
// (an admitted simplification: data-dependent loops are estimated from the
// static instruction mix).
sim::KernelCost EstimateKernelCost(const oclc::Module& module,
                                   const oclc::CompiledFunction& kernel,
                                   const std::vector<oclc::ArgBinding>& args,
                                   const oclc::NDRange& range);

std::unique_ptr<DeviceDriver> MakeCpuDriver();
std::unique_ptr<DeviceDriver> MakeGpuDriver();
std::unique_ptr<DeviceDriver> MakeFpgaDriver();
// The simulated driver with an explicit spec — how tests and benches
// model silicon whose real throughput diverges from the stock presets
// (e.g. a node 3x off its spec sheet for scheduler-convergence runs).
std::unique_ptr<DeviceDriver> MakeSimulatedDriver(
    sim::DeviceSpec spec, bool require_native_binary = false);

}  // namespace haocl::driver
