// Virtual-time accounting on the host side.
//
// Wall-clock time in this repository measures a laptop, not the paper's
// 20-node cluster; virtual time measures the modeled cluster, and this
// class is that cluster: it owns the host NIC, each node's NIC and
// accelerator (sim::SerialResource) and the one link every NIC sends over.
// The host runtime reports every transfer and kernel launch here; the
// timeline charges those resources and buckets durations into the
// paper's Fig. 3 phases: DataCreate / DataTransfer / ComputeTime (+ Init,
// which the paper notes is negligible and omits).
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/stopwatch.h"
#include "sim/network_model.h"
#include "sim/virtual_time.h"

namespace haocl::host {

inline constexpr const char* kPhaseDataCreate = "DataCreate";
inline constexpr const char* kPhaseDataTransfer = "DataTransfer";
inline constexpr const char* kPhaseCompute = "ComputeTime";
inline constexpr const char* kPhaseInit = "Init";

class VirtualTimeline {
 public:
  // One modeled node per entry of `node_types`, in node order, each drawing
  // its type's power (sim::SpecForType) while its accelerator is busy.
  explicit VirtualTimeline(const std::vector<NodeType>& node_types);

  // Paper-scale projection: the functional run uses laptop-scale inputs,
  // but the *modeled* experiment can amplify every transferred byte and
  // every kernel-second so virtual times reflect the paper's input sizes
  // (e.g. MatrixMul N=10000 while executing N=256: transfer x (10000/256)^2,
  // compute x (10000/256)^3). Survives Reset(); bench::PaperScale
  // (bench/bench_util.h) derives the factors per figure.
  void SetAmplification(double transfer_factor, double compute_factor) {
    std::lock_guard<std::mutex> lock(mutex_);
    transfer_amp_ = transfer_factor;
    compute_amp_ = compute_factor;
  }
  [[nodiscard]] double transfer_amplification() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return transfer_amp_;
  }
  [[nodiscard]] double compute_amplification() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return compute_amp_;
  }

  // ---- Recording (called by the cluster runtime) -------------------------

  // Host-side data generation: advances host time, bucket DataCreate.
  void RecordDataCreate(double seconds);

  // Host -> node payload transfer; returns arrival time at the node.
  sim::SimTime RecordTransferToNode(std::size_t node, std::uint64_t bytes);

  // Replication of a buffer that other nodes already hold: the backbone
  // relays from whichever replica's NIC frees up first (host included), so
  // broadcasting to k nodes builds a multicast tree instead of serializing
  // k transfers on the host uplink — one of the paper's "complex
  // inter-node data transfer schemes in the OpenCL API". With no other
  // holder it charges exactly what RecordTransferToNode does.
  sim::SimTime RecordReplicationToNode(
      std::size_t node, std::uint64_t bytes,
      const std::vector<std::size_t>& replica_holders);

  // Node -> host payload transfer (result gather).
  sim::SimTime RecordTransferFromNode(std::size_t node, std::uint64_t bytes);

  // Node -> node transfer (e.g. migrating a buffer between owners).
  sim::SimTime RecordTransferBetween(std::size_t from, std::size_t to,
                                     std::uint64_t bytes);

  // Kernel execution of `modeled_seconds` on `node`.
  sim::SimTime RecordKernel(std::size_t node, double modeled_seconds);

  // ---- Staged out-of-core pipelining -------------------------------------
  // A prefetch rides the NICs as DMA, overlapping the node's compute: it
  // chains on the node's DMA engine, NOT on the node's command chain.
  // Returns the arrival time; the consuming stage passes it to
  // RecordKernelAfter so compute starts only once its slice has landed —
  // libhclooc's transfer/compute overlap, expressed in virtual time.
  sim::SimTime RecordPrefetchToNode(std::size_t node, std::uint64_t bytes);
  // Stage writeback / eviction spill node -> host shadow: DMA out,
  // overlapping the next stage's compute (same DMA chain).
  sim::SimTime RecordSpillFromNode(std::size_t node, std::uint64_t bytes);
  // Kernel execution that must not start before `not_before` (its
  // prefetched slice's arrival) in addition to the node's compute chain.
  sim::SimTime RecordKernelAfter(std::size_t node, double modeled_seconds,
                                 sim::SimTime not_before);

  // Small control message (API-call forwarding overhead).
  void RecordControlMessage(std::size_t node);

  // ---- Reporting ---------------------------------------------------------

  // Completion time of everything recorded so far (the experiment's
  // virtual makespan).
  [[nodiscard]] sim::SimTime Makespan() const;

  // The reference accessors are not internally synchronized: drain the
  // runtime (Finish / clFinish) before reading them.
  [[nodiscard]] const PhaseAccumulator& phases() const { return phases_; }
  // Each accelerator's busy time x its node type's power, summed in node
  // order: the one modeled energy total.
  [[nodiscard]] double TotalEnergyJoules() const;
  // The largest busy time of any one node's accelerator.
  [[nodiscard]] sim::SimTime MaxNodeComputeSeconds() const;

  void Reset();

 private:
  // One modeled device node.
  struct Node {
    double power_watts = 0.0;
    sim::SerialResource nic;
    sim::SerialResource accelerator;
    sim::SimTime ready = 0.0;      // In-order command chain.
    sim::SimTime dma_ready = 0.0;  // Prefetch/spill DMA chain.
  };

  // Recording happens from command-graph workers concurrently with host
  // threads reading Makespan(); every mutating/scalar entry point locks.
  sim::SimTime RecordTransferToNodeLocked(std::size_t node,
                                          std::uint64_t bytes);
  // Wire transfers of `bytes` starting at `now`, each returning the
  // arrival. The sending NIC serializes concurrent sends (the host uplink
  // serializes a scatter); the receiving NIC then completes the transfer.
  // Wire time is charged on both NICs.
  sim::SimTime HostToNode(std::size_t node, std::uint64_t bytes,
                          sim::SimTime now);
  sim::SimTime NodeToHost(std::size_t node, std::uint64_t bytes,
                          sim::SimTime now);
  sim::SimTime NodeToNode(std::size_t from, std::size_t to,
                          std::uint64_t bytes, sim::SimTime now);
  [[nodiscard]] std::uint64_t AmpBytes(std::uint64_t bytes) const {
    return static_cast<std::uint64_t>(static_cast<double>(bytes) *
                                      transfer_amp_);
  }

  mutable std::mutex mutex_;
  const sim::LinkSpec link_ = sim::GigabitEthernet();
  std::vector<Node> nodes_;
  sim::SerialResource host_nic_;
  sim::SimTime host_ready_ = 0.0;
  PhaseAccumulator phases_;
  double transfer_amp_ = 1.0;
  double compute_amp_ = 1.0;
};

}  // namespace haocl::host
