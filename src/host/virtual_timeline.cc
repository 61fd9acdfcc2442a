#include "host/virtual_timeline.h"

#include <algorithm>

#include "sim/device_model.h"

namespace haocl::host {

VirtualTimeline::VirtualTimeline(const std::vector<NodeType>& node_types)
    : nodes_(node_types.size()) {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i].power_watts = sim::SpecForType(node_types[i]).power_watts;
  }
}

sim::SimTime VirtualTimeline::HostToNode(std::size_t node, std::uint64_t bytes,
                                         sim::SimTime now) {
  const sim::SimTime wire = link_.TransferTime(bytes);
  const sim::SimTime sent = host_nic_.Acquire(now, wire);
  return nodes_[node].nic.Acquire(sent - wire, wire);
}

sim::SimTime VirtualTimeline::NodeToHost(std::size_t node, std::uint64_t bytes,
                                         sim::SimTime now) {
  const sim::SimTime wire = link_.TransferTime(bytes);
  const sim::SimTime sent = nodes_[node].nic.Acquire(now, wire);
  return host_nic_.Acquire(sent - wire, wire);
}

sim::SimTime VirtualTimeline::NodeToNode(std::size_t from, std::size_t to,
                                         std::uint64_t bytes,
                                         sim::SimTime now) {
  const sim::SimTime wire = link_.TransferTime(bytes);
  const sim::SimTime sent = nodes_[from].nic.Acquire(now, wire);
  return nodes_[to].nic.Acquire(sent - wire, wire);
}

void VirtualTimeline::RecordDataCreate(double seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Data creation is proportional to the input volume, so the paper-scale
  // projection amplifies it with the transfer factor.
  const double scaled = seconds * transfer_amp_;
  host_ready_ += scaled;
  phases_.Add(kPhaseDataCreate, scaled);
}

sim::SimTime VirtualTimeline::RecordTransferToNodeLocked(std::size_t node,
                                                         std::uint64_t bytes) {
  const sim::SimTime start = std::max(host_ready_, nodes_[node].ready);
  const sim::SimTime arrival = HostToNode(node, AmpBytes(bytes), start);
  phases_.Add(kPhaseDataTransfer, arrival - start);
  nodes_[node].ready = arrival;
  return arrival;
}

sim::SimTime VirtualTimeline::RecordTransferToNode(std::size_t node,
                                                   std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  return RecordTransferToNodeLocked(node, bytes);
}

sim::SimTime VirtualTimeline::RecordReplicationToNode(
    std::size_t node, std::uint64_t bytes,
    const std::vector<std::size_t>& replica_holders) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Pick the source whose NIC is free earliest; the host uplink competes
  // as one more candidate.
  sim::SimTime best_free = host_nic_.busy_until();
  std::size_t best_src = nodes_.size();  // Sentinel: host.
  for (std::size_t holder : replica_holders) {
    if (holder == node) continue;
    const sim::SimTime free_at = nodes_[holder].nic.busy_until();
    if (free_at < best_free) {
      best_free = free_at;
      best_src = holder;
    }
  }
  if (best_src == nodes_.size()) {
    return RecordTransferToNodeLocked(node, bytes);
  }
  // Only the destination's command chain gates the transfer: the source
  // relays from its NIC (DMA) while its accelerator keeps computing. The
  // source NIC's own serialization is handled inside NodeToNode.
  const sim::SimTime start = nodes_[node].ready;
  const sim::SimTime arrival =
      NodeToNode(best_src, node, AmpBytes(bytes), start);
  phases_.Add(kPhaseDataTransfer, arrival - start);
  nodes_[node].ready = arrival;
  return arrival;
}

sim::SimTime VirtualTimeline::RecordTransferFromNode(std::size_t node,
                                                     std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  const sim::SimTime start = nodes_[node].ready;
  const sim::SimTime arrival = NodeToHost(node, AmpBytes(bytes), start);
  phases_.Add(kPhaseDataTransfer, arrival - start);
  nodes_[node].ready = arrival;
  host_ready_ = std::max(host_ready_, arrival);
  return arrival;
}

sim::SimTime VirtualTimeline::RecordTransferBetween(std::size_t from,
                                                    std::size_t to,
                                                    std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  const sim::SimTime start = std::max(nodes_[from].ready, nodes_[to].ready);
  const sim::SimTime arrival = NodeToNode(from, to, AmpBytes(bytes), start);
  phases_.Add(kPhaseDataTransfer, arrival - start);
  nodes_[from].ready = arrival;
  nodes_[to].ready = arrival;
  return arrival;
}

sim::SimTime VirtualTimeline::RecordKernel(std::size_t node,
                                           double modeled_seconds) {
  // Compute amplification is applied by the caller against the kernel's
  // COST (flops/bytes), not here: a flat multiplier would also inflate
  // constant per-launch overheads, which do not grow with problem size.
  // Every chain time is >= 0, so not_before = 0 gates nothing.
  return RecordKernelAfter(node, modeled_seconds, 0.0);
}

sim::SimTime VirtualTimeline::RecordPrefetchToNode(std::size_t node,
                                                   std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  // DMA: contends for the NICs and the per-node DMA chain, but NOT for
  // the accelerator — the whole point is that stage k+1's slice lands
  // while stage k computes.
  const sim::SimTime start = std::max(host_ready_, nodes_[node].dma_ready);
  const sim::SimTime arrival = HostToNode(node, AmpBytes(bytes), start);
  phases_.Add(kPhaseDataTransfer, arrival - start);
  nodes_[node].dma_ready = arrival;
  return arrival;
}

sim::SimTime VirtualTimeline::RecordSpillFromNode(std::size_t node,
                                                  std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  const sim::SimTime start = nodes_[node].dma_ready;
  const sim::SimTime arrival = NodeToHost(node, AmpBytes(bytes), start);
  phases_.Add(kPhaseDataTransfer, arrival - start);
  nodes_[node].dma_ready = arrival;
  // The host shadow copy is usable once it lands, but the host's own
  // command chain is not blocked by a background spill.
  return arrival;
}

sim::SimTime VirtualTimeline::RecordKernelAfter(std::size_t node,
                                                double modeled_seconds,
                                                sim::SimTime not_before) {
  std::lock_guard<std::mutex> lock(mutex_);
  Node& n = nodes_[node];
  const sim::SimTime start = std::max(n.ready, not_before);
  const sim::SimTime done = n.accelerator.Acquire(start, modeled_seconds);
  phases_.Add(kPhaseCompute, modeled_seconds);
  n.ready = done;
  return done;
}

void VirtualTimeline::RecordControlMessage(std::size_t node) {
  std::lock_guard<std::mutex> lock(mutex_);
  // A control frame is ~100 bytes; latency-dominated.
  const sim::SimTime start = std::max(host_ready_, nodes_[node].ready);
  const sim::SimTime arrival = HostToNode(node, 100, start);
  phases_.Add(kPhaseInit, arrival - start);
  nodes_[node].ready = arrival;
}

sim::SimTime VirtualTimeline::Makespan() const {
  std::lock_guard<std::mutex> lock(mutex_);
  sim::SimTime makespan = host_ready_;
  for (const Node& n : nodes_) {
    makespan = std::max({makespan, n.ready, n.dma_ready});
  }
  return makespan;
}

double VirtualTimeline::TotalEnergyJoules() const {
  std::lock_guard<std::mutex> lock(mutex_);
  double joules = 0.0;
  for (const Node& n : nodes_) {
    joules += n.accelerator.busy_total() * n.power_watts;
  }
  return joules;
}

sim::SimTime VirtualTimeline::MaxNodeComputeSeconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  sim::SimTime longest = 0.0;
  for (const Node& n : nodes_) {
    longest = std::max(longest, n.accelerator.busy_total());
  }
  return longest;
}

void VirtualTimeline::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  host_nic_.Reset();
  for (Node& n : nodes_) {
    n.nic.Reset();
    n.accelerator.Reset();
    n.ready = 0.0;
    n.dma_ready = 0.0;
  }
  phases_.Clear();
  host_ready_ = 0.0;
}

}  // namespace haocl::host
