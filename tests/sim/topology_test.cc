#include "sim/topology.h"

#include <gtest/gtest.h>

namespace haocl::sim {
namespace {

// Charges `cost` to node `i` the way the runtime charges a kernel
// (host::VirtualTimeline::RecordKernel): the node's serial compute
// resource for the device model's time.
SimTime RunOn(ClusterTopology& topo, std::size_t i, const KernelCost& cost,
              SimTime now) {
  SimNode& node = topo.node(i);
  return node.compute.Acquire(now, ModelKernelTime(node.device, cost));
}

TEST(SerialResourceTest, SerializesOverlappingRequests) {
  SerialResource r;
  EXPECT_DOUBLE_EQ(r.Acquire(0.0, 1.0), 1.0);
  // Second request arrives at t=0.5 but the resource is busy until 1.0.
  EXPECT_DOUBLE_EQ(r.Acquire(0.5, 1.0), 2.0);
  // A request after the busy period starts immediately.
  EXPECT_DOUBLE_EQ(r.Acquire(5.0, 1.0), 6.0);
  EXPECT_DOUBLE_EQ(r.busy_total(), 3.0);
}

TEST(TopologyTest, MakeBuildsRequestedShape) {
  auto topo = ClusterTopology::Make(16, 4, 2);
  EXPECT_EQ(topo.size(), 22u);
  EXPECT_EQ(topo.NodesOfType(NodeType::kGpu).size(), 16u);
  EXPECT_EQ(topo.NodesOfType(NodeType::kFpga).size(), 4u);
  EXPECT_EQ(topo.NodesOfType(NodeType::kCpu).size(), 2u);
  EXPECT_EQ(topo.node(0).device.type, NodeType::kGpu);
  EXPECT_EQ(topo.node(16).device.type, NodeType::kFpga);
}

TEST(TopologyTest, FromConfig) {
  ClusterConfig config;
  config.AddNode({"a", NodeType::kGpu, "127.0.0.1", 9000});
  config.AddNode({"b", NodeType::kFpga, "127.0.0.1", 9001});
  auto topo = ClusterTopology::FromConfig(config);
  ASSERT_EQ(topo.size(), 2u);
  EXPECT_EQ(topo.node(0).name, "a");
  EXPECT_EQ(topo.node(1).device.type, NodeType::kFpga);
}

TEST(TopologyTest, HostUplinkSerializesScatter) {
  // Scattering the same bytes to N nodes serializes on the host NIC, so
  // the finish time grows ~linearly with N — the Fig. 3 transfer shape.
  auto topo = ClusterTopology::Make(4, 0);
  const std::uint64_t chunk = 10'000'000;  // 10 MB each.
  SimTime last = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    last = std::max(last, topo.HostToNode(i, chunk, 0.0));
  }
  const SimTime one = GigabitEthernet().TransferTime(chunk);
  EXPECT_GT(last, 3.9 * one);
  EXPECT_LT(last, 4.5 * one);
}

TEST(TopologyTest, GatherSerializesOnHostNic) {
  auto topo = ClusterTopology::Make(4, 0);
  const std::uint64_t chunk = 10'000'000;
  SimTime last = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    last = std::max(last, topo.NodeToHost(i, chunk, 0.0));
  }
  const SimTime one = GigabitEthernet().TransferTime(chunk);
  EXPECT_GT(last, 3.9 * one);
}

TEST(TopologyTest, NodeToNodeDoesNotTouchHostNic) {
  auto topo = ClusterTopology::Make(4, 0);
  topo.NodeToNode(0, 1, 1'000'000, 0.0);
  EXPECT_DOUBLE_EQ(topo.host_nic().busy_total(), 0.0);
  EXPECT_GT(topo.node(0).nic.busy_total(), 0.0);
  EXPECT_GT(topo.node(1).nic.busy_total(), 0.0);
}

TEST(TopologyTest, KernelsOnDistinctNodesRunConcurrently) {
  auto topo = ClusterTopology::Make(2, 0);
  KernelCost cost;
  cost.flops = 5.5e12;  // ~1 s on a P4.
  const SimTime t0 = RunOn(topo, 0, cost, 0.0);
  const SimTime t1 = RunOn(topo, 1, cost, 0.0);
  EXPECT_NEAR(t0, 1.0, 0.05);
  EXPECT_NEAR(t1, 1.0, 0.05);  // Parallel, not 2.0.
}

TEST(TopologyTest, SameNodeKernelsSerialize) {
  auto topo = ClusterTopology::Make(1, 0);
  KernelCost cost;
  cost.flops = 5.5e12;
  RunOn(topo, 0, cost, 0.0);
  const SimTime t = RunOn(topo, 0, cost, 0.0);
  EXPECT_NEAR(t, 2.0, 0.1);
}

TEST(TopologyTest, EnergyAccounting) {
  auto topo = ClusterTopology::Make(1, 1);
  KernelCost cost;
  cost.flops = 5.5e12;
  RunOn(topo, 0, cost, 0.0);  // ~1 s on GPU at 75 W.
  const double joules = topo.TotalEnergyJoules();
  EXPECT_NEAR(joules, 75.0, 5.0);
}

TEST(TopologyTest, ResetTimeClearsEverything) {
  auto topo = ClusterTopology::Make(1, 1);
  KernelCost cost;
  cost.flops = 1e9;
  RunOn(topo, 0, cost, 0.0);
  topo.HostToNode(0, 1000, 0.0);
  topo.ResetTime();
  EXPECT_DOUBLE_EQ(topo.host_nic().busy_total(), 0.0);
  EXPECT_DOUBLE_EQ(topo.node(0).compute.busy_total(), 0.0);
  EXPECT_DOUBLE_EQ(topo.TotalEnergyJoules(), 0.0);
}

}  // namespace
}  // namespace haocl::sim
