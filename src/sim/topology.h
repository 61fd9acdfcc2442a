// Virtual cluster topology: the host node plus a set of device nodes, each
// with a device model and a NIC, joined by a link model. This is the
// substrate the NMP daemons, the scheduler's cost model, and the benchmark
// harness all consult for virtual-time accounting.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "sim/device_model.h"
#include "sim/network_model.h"
#include "sim/virtual_time.h"

namespace haocl::sim {

// One device node in the virtual cluster.
struct SimNode {
  std::string name;
  DeviceSpec device;
  LinkSpec link;             // Link between this node and the switch.
  SerialResource nic;        // The node's NIC (serial).
  SerialResource compute;    // The node's accelerator (serial).
};

// The whole virtual cluster. Nodes are identified by dense indices; the
// host's uplink is modelled as its own serial resource.
class ClusterTopology {
 public:
  ClusterTopology() = default;

  // Build a homogeneous or hybrid cluster: `gpu_nodes` GPU nodes followed by
  // `fpga_nodes` FPGA nodes followed by `cpu_nodes` CPU nodes.
  static ClusterTopology Make(std::size_t gpu_nodes, std::size_t fpga_nodes,
                              std::size_t cpu_nodes = 0,
                              LinkSpec link = GigabitEthernet());

  // Build from a parsed cluster configuration file.
  static ClusterTopology FromConfig(const ClusterConfig& config,
                                    LinkSpec link = GigabitEthernet());

  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] SimNode& node(std::size_t i) { return nodes_.at(i); }
  [[nodiscard]] const SimNode& node(std::size_t i) const {
    return nodes_.at(i);
  }
  [[nodiscard]] SerialResource& host_nic() noexcept { return host_nic_; }
  [[nodiscard]] const LinkSpec& host_link() const noexcept {
    return host_link_;
  }

  [[nodiscard]] std::vector<std::size_t> NodesOfType(NodeType type) const;

  // --- Virtual-time operations -------------------------------------------

  // Host -> node transfer of `bytes` starting at `now`; occupies the host
  // NIC then the node NIC. Returns arrival time at the node.
  SimTime HostToNode(std::size_t node_index, std::uint64_t bytes, SimTime now);

  // Node -> host transfer (result gathering).
  SimTime NodeToHost(std::size_t node_index, std::uint64_t bytes, SimTime now);

  // Node -> node transfer (inter-node data exchange, e.g. BFS frontiers).
  SimTime NodeToNode(std::size_t from, std::size_t to, std::uint64_t bytes,
                     SimTime now);

  // Total energy in joules across all device nodes (busy time x power).
  [[nodiscard]] double TotalEnergyJoules() const;

  void ResetTime();

 private:
  std::vector<SimNode> nodes_;
  SerialResource host_nic_;
  LinkSpec host_link_ = GigabitEthernet();
};

}  // namespace haocl::sim
