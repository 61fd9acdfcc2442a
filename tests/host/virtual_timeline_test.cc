// VirtualTimeline: phase accounting, resource serialization, paper-scale
// amplification, the peer-to-peer replication model, and the modeled
// cluster's NICs and accelerators the timeline owns.
#include "host/virtual_timeline.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "sim/device_model.h"

namespace haocl::host {
namespace {

VirtualTimeline MakeTimeline(std::size_t gpus) {
  return VirtualTimeline(std::vector<NodeType>(gpus, NodeType::kGpu));
}

TEST(VirtualTimelineTest, PhasesAccumulate) {
  VirtualTimeline timeline = MakeTimeline(2);
  timeline.RecordDataCreate(1.5);
  timeline.RecordTransferToNode(0, 1'000'000);
  timeline.RecordKernel(0, 0.25);
  timeline.RecordTransferFromNode(0, 1'000'000);
  EXPECT_DOUBLE_EQ(timeline.phases().Get(kPhaseDataCreate), 1.5);
  EXPECT_GT(timeline.phases().Get(kPhaseDataTransfer), 0.0);
  EXPECT_DOUBLE_EQ(timeline.phases().Get(kPhaseCompute), 0.25);
  EXPECT_GT(timeline.Makespan(), 1.75);
}

TEST(VirtualTimelineTest, PerNodeChainsAreIndependent) {
  VirtualTimeline timeline = MakeTimeline(2);
  timeline.RecordKernel(0, 1.0);
  timeline.RecordKernel(1, 1.0);
  // Two kernels on different nodes overlap: makespan 1s, not 2s.
  EXPECT_NEAR(timeline.Makespan(), 1.0, 1e-9);
  timeline.RecordKernel(0, 1.0);  // Same node serializes.
  EXPECT_NEAR(timeline.Makespan(), 2.0, 1e-9);
}

TEST(VirtualTimelineTest, TransferAmplificationScalesBytes) {
  VirtualTimeline small = MakeTimeline(1);
  small.RecordTransferToNode(0, 1'000'000);
  VirtualTimeline big = MakeTimeline(1);
  big.SetAmplification(/*transfer=*/100.0, /*compute=*/1.0);
  big.RecordTransferToNode(0, 1'000'000);
  // 100x the bytes: wire time grows ~100x (minus the constant latency).
  EXPECT_GT(big.phases().Get(kPhaseDataTransfer),
            50.0 * small.phases().Get(kPhaseDataTransfer));
}

TEST(VirtualTimelineTest, DataCreateAmplifiesWithTransferFactor) {
  VirtualTimeline timeline = MakeTimeline(1);
  timeline.SetAmplification(8.0, 1.0);
  timeline.RecordDataCreate(1.0);
  EXPECT_DOUBLE_EQ(timeline.phases().Get(kPhaseDataCreate), 8.0);
}

TEST(VirtualTimelineTest, KernelSecondsAreNotAmplifiedByTimeline) {
  // Compute amplification is the caller's job (cost-based), so constant
  // launch overheads are not inflated; RecordKernel must take the seconds
  // it is given.
  VirtualTimeline timeline = MakeTimeline(1);
  timeline.SetAmplification(10.0, 10.0);
  timeline.RecordKernel(0, 0.5);
  EXPECT_DOUBLE_EQ(timeline.phases().Get(kPhaseCompute), 0.5);
}

TEST(VirtualTimelineTest, ReplicationBuildsMulticastTree) {
  // Broadcasting B bytes to 8 nodes: host-only scatter serializes 8 wire
  // times on the uplink; with peers relaying, later copies come from
  // earlier receivers in parallel, so completion is ~tree depth.
  const std::uint64_t bytes = 100'000'000;  // ~0.85 s on GbE.
  VirtualTimeline serial = MakeTimeline(8);
  for (std::size_t node = 0; node < 8; ++node) {
    serial.RecordTransferToNode(node, bytes);
  }
  VirtualTimeline tree = MakeTimeline(8);
  std::vector<std::size_t> holders;
  for (std::size_t node = 0; node < 8; ++node) {
    tree.RecordReplicationToNode(node, bytes, holders);
    holders.push_back(node);
  }
  EXPECT_LT(tree.Makespan(), 0.7 * serial.Makespan());
}

TEST(VirtualTimelineTest, ReplicationWithNoHoldersFallsBackToHost) {
  // With no other holder a replication is a host -> node transfer, bit
  // for bit: the runtime's demand path always replicates.
  VirtualTimeline replicated = MakeTimeline(2);
  VirtualTimeline shipped = MakeTimeline(2);
  EXPECT_EQ(replicated.RecordReplicationToNode(1, 1'000'000, {}),
            shipped.RecordTransferToNode(1, 1'000'000));
  EXPECT_EQ(replicated.phases().Get(kPhaseDataTransfer),
            shipped.phases().Get(kPhaseDataTransfer));
  EXPECT_EQ(replicated.phases().Total(), shipped.phases().Total());
  EXPECT_EQ(replicated.Makespan(), shipped.Makespan());
  EXPECT_GT(replicated.Makespan(), 0.0);
}

TEST(VirtualTimelineTest, ResetPreservesAmplification) {
  VirtualTimeline timeline = MakeTimeline(1);
  timeline.SetAmplification(4.0, 9.0);
  timeline.RecordDataCreate(1.0);
  timeline.Reset();
  EXPECT_DOUBLE_EQ(timeline.Makespan(), 0.0);
  EXPECT_DOUBLE_EQ(timeline.phases().Total(), 0.0);
  EXPECT_DOUBLE_EQ(timeline.transfer_amplification(), 4.0);
  EXPECT_DOUBLE_EQ(timeline.compute_amplification(), 9.0);
}

TEST(VirtualTimelineTest, EnergyTracksComputeBusyTime) {
  VirtualTimeline timeline = MakeTimeline(1);  // One Tesla P4 at 75 W.
  timeline.RecordKernel(0, 2.0);
  EXPECT_NEAR(timeline.TotalEnergyJoules(), 150.0, 1.0);
}

TEST(VirtualTimelineTest, GatherSynchronizesHostClock) {
  VirtualTimeline timeline = MakeTimeline(2);
  timeline.RecordKernel(1, 3.0);
  timeline.RecordTransferFromNode(1, 1000);
  // The host waited for node 1's result, so a later host-side create
  // starts after the gather.
  timeline.RecordDataCreate(0.5);
  EXPECT_GT(timeline.Makespan(), 3.5);
}

// The modeled cluster's topology as the timeline charges it: one host
// uplink, and a NIC and an accelerator per node.

TEST(TopologyTest, HostUplinkSerializesScatter) {
  // Scattering the same bytes to N nodes serializes on the host NIC, so
  // the finish time grows ~linearly with N — the Fig. 3 transfer shape.
  VirtualTimeline timeline = MakeTimeline(4);
  const std::uint64_t chunk = 10'000'000;  // 10 MB each.
  sim::SimTime last = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    last = std::max(last, timeline.RecordTransferToNode(i, chunk));
  }
  const sim::SimTime one = sim::GigabitEthernet().TransferTime(chunk);
  EXPECT_GT(last, 3.9 * one);
  EXPECT_LT(last, 4.5 * one);
}

TEST(TopologyTest, GatherSerializesOnHostNic) {
  VirtualTimeline timeline = MakeTimeline(4);
  const std::uint64_t chunk = 10'000'000;
  sim::SimTime last = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    last = std::max(last, timeline.RecordTransferFromNode(i, chunk));
  }
  const sim::SimTime one = sim::GigabitEthernet().TransferTime(chunk);
  EXPECT_GT(last, 3.9 * one);
  EXPECT_LT(last, 4.5 * one);
}

TEST(TopologyTest, NodeToNodeDoesNotTouchHostNic) {
  VirtualTimeline timeline = MakeTimeline(4);
  const std::uint64_t bytes = 1'000'000;
  timeline.RecordTransferBetween(0, 1, bytes);
  // The host uplink is still free: a host -> node 2 transfer right after
  // arrives in one transfer time.
  EXPECT_DOUBLE_EQ(timeline.RecordTransferToNode(2, bytes),
                   sim::GigabitEthernet().TransferTime(bytes));
}

// The modeled seconds of a kernel of `flops` on a GPU node, as the driver
// reports them for `RecordKernel`.
double GpuKernelSeconds(double flops) {
  sim::KernelCost cost;
  cost.flops = flops;
  return sim::ModelKernelTime(sim::SpecForType(NodeType::kGpu), cost);
}

TEST(TopologyTest, KernelsOnDistinctNodesRunConcurrently) {
  VirtualTimeline timeline = MakeTimeline(2);
  const double seconds = GpuKernelSeconds(5.5e12);  // ~1 s on a P4.
  const sim::SimTime t0 = timeline.RecordKernel(0, seconds);
  const sim::SimTime t1 = timeline.RecordKernel(1, seconds);
  EXPECT_NEAR(t0, 1.0, 0.05);
  EXPECT_NEAR(t1, 1.0, 0.05);  // Parallel, not 2.0.
}

TEST(TopologyTest, SameNodeKernelsSerialize) {
  VirtualTimeline timeline = MakeTimeline(1);
  const double seconds = GpuKernelSeconds(5.5e12);
  timeline.RecordKernel(0, seconds);
  const sim::SimTime t = timeline.RecordKernel(0, seconds);
  EXPECT_NEAR(t, 2.0, 0.1);
}

TEST(TopologyTest, EnergyAccounting) {
  // Each accelerator draws its own node type's power while busy.
  VirtualTimeline timeline({NodeType::kGpu, NodeType::kFpga});
  timeline.RecordKernel(0, 1.0);
  timeline.RecordKernel(1, 2.0);
  EXPECT_DOUBLE_EQ(
      timeline.TotalEnergyJoules(),
      1.0 * sim::SpecForType(NodeType::kGpu).power_watts +
          2.0 * sim::SpecForType(NodeType::kFpga).power_watts);
  EXPECT_DOUBLE_EQ(timeline.MaxNodeComputeSeconds(), 2.0);
}

TEST(TopologyTest, ResetTimeClearsEverything) {
  VirtualTimeline timeline({NodeType::kGpu, NodeType::kFpga});
  const std::uint64_t bytes = 1'000'000;
  timeline.RecordTransferToNode(1, bytes);  // Host NIC, node 1's NIC.
  timeline.RecordKernel(0, 1.0);            // Node 0's accelerator.
  timeline.Reset();
  EXPECT_DOUBLE_EQ(timeline.TotalEnergyJoules(), 0.0);
  EXPECT_DOUBLE_EQ(timeline.MaxNodeComputeSeconds(), 0.0);
  // Every resource is free from time 0 again: node 0's accelerator, then
  // node 1's NIC and the host NIC.
  EXPECT_DOUBLE_EQ(timeline.RecordKernel(0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(timeline.RecordTransferFromNode(1, bytes),
                   sim::GigabitEthernet().TransferTime(bytes));
}

}  // namespace
}  // namespace haocl::host
