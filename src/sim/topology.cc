#include "sim/topology.h"

#include <algorithm>

namespace haocl::sim {
namespace {

SimNode MakeNode(std::string name, NodeType type, LinkSpec link) {
  SimNode node;
  node.name = std::move(name);
  node.device = SpecForType(type);
  node.link = link;
  return node;
}

}  // namespace

ClusterTopology ClusterTopology::Make(std::size_t gpu_nodes,
                                      std::size_t fpga_nodes,
                                      std::size_t cpu_nodes, LinkSpec link) {
  ClusterTopology topo;
  topo.host_link_ = link;
  for (std::size_t i = 0; i < gpu_nodes; ++i) {
    topo.nodes_.push_back(
        MakeNode("gpu" + std::to_string(i), NodeType::kGpu, link));
  }
  for (std::size_t i = 0; i < fpga_nodes; ++i) {
    topo.nodes_.push_back(
        MakeNode("fpga" + std::to_string(i), NodeType::kFpga, link));
  }
  for (std::size_t i = 0; i < cpu_nodes; ++i) {
    topo.nodes_.push_back(
        MakeNode("cpu" + std::to_string(i), NodeType::kCpu, link));
  }
  return topo;
}

ClusterTopology ClusterTopology::FromConfig(const ClusterConfig& config,
                                            LinkSpec link) {
  ClusterTopology topo;
  topo.host_link_ = link;
  for (const NodeEntry& entry : config.nodes()) {
    topo.nodes_.push_back(MakeNode(entry.name, entry.type, link));
  }
  return topo;
}

std::vector<std::size_t> ClusterTopology::NodesOfType(NodeType type) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].device.type == type) out.push_back(i);
  }
  return out;
}

SimTime ClusterTopology::HostToNode(std::size_t node_index,
                                    std::uint64_t bytes, SimTime now) {
  SimNode& node = nodes_.at(node_index);
  // The host uplink serializes concurrent scatters; the receiving NIC then
  // completes the transfer. Wire time is charged on both resources.
  const SimTime wire = host_link_.TransferTime(bytes);
  const SimTime sent = host_nic_.Acquire(now, wire);
  return node.nic.Acquire(sent - wire, wire);
}

SimTime ClusterTopology::NodeToHost(std::size_t node_index,
                                    std::uint64_t bytes, SimTime now) {
  SimNode& node = nodes_.at(node_index);
  const SimTime wire = node.link.TransferTime(bytes);
  const SimTime sent = node.nic.Acquire(now, wire);
  return host_nic_.Acquire(sent - wire, wire);
}

SimTime ClusterTopology::NodeToNode(std::size_t from, std::size_t to,
                                    std::uint64_t bytes, SimTime now) {
  SimNode& src = nodes_.at(from);
  SimNode& dst = nodes_.at(to);
  const SimTime wire = src.link.TransferTime(bytes);
  const SimTime sent = src.nic.Acquire(now, wire);
  return dst.nic.Acquire(sent - wire, wire);
}

double ClusterTopology::TotalEnergyJoules() const {
  double joules = 0.0;
  for (const SimNode& node : nodes_) {
    joules += node.compute.busy_total() * node.device.power_watts;
  }
  return joules;
}

void ClusterTopology::ResetTime() {
  host_nic_.Reset();
  for (SimNode& node : nodes_) {
    node.nic.Reset();
    node.compute.Reset();
  }
}

}  // namespace haocl::sim
