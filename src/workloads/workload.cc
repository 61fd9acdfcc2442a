#include "workloads/workload.h"

#include <mutex>

namespace haocl::workloads {

// Defined in the per-app translation units.
void RegisterMatrixMulNative();
void RegisterCfdNative();
void RegisterKnnNative();
void RegisterBfsNative();
void RegisterSpmvNative();

std::vector<std::unique_ptr<Workload>> AllWorkloads() {
  std::vector<std::unique_ptr<Workload>> all;
  all.push_back(MakeMatrixMul());
  all.push_back(MakeCfd());
  all.push_back(MakeKnn());
  all.push_back(MakeBfs());
  all.push_back(MakeSpmv());
  return all;
}

void RegisterAllNativeKernels() {
  static std::once_flag once;
  std::call_once(once, [] {
    RegisterMatrixMulNative();
    RegisterCfdNative();
    RegisterKnnNative();
    RegisterBfsNative();
    RegisterSpmvNative();
  });
}

RunReport ReportFromTimeline(host::ClusterRuntime& runtime,
                             std::uint64_t input_bytes, bool verified) {
  RunReport report;
  report.verified = verified;
  report.input_bytes = input_bytes;
  report.virtual_seconds = runtime.timeline().Makespan();
  const PhaseAccumulator& phases = runtime.timeline().phases();
  report.data_create_seconds = phases.Get(host::kPhaseDataCreate);
  report.data_transfer_seconds = phases.Get(host::kPhaseDataTransfer);
  report.compute_seconds = phases.Get(host::kPhaseCompute);
  report.compute_parallel_seconds = runtime.timeline().MaxNodeComputeSeconds();
  report.energy_joules = runtime.timeline().TotalEnergyJoules();
  report.wire_bytes = runtime.TotalBytesSent();
  return report;
}

}  // namespace haocl::workloads
