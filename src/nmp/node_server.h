// Node Management Process (NMP).
//
// "The daemon process runs on each device (accelerator) node for the actual
// execution of OpenCL API calls" (paper §III-D). The NMP:
//  - accepts a connection from the host's communication backbone,
//  - decodes each message, executes it against the per-session
//    DeviceSession (multi-user isolation: resources are keyed by the
//    session id carried in every frame),
//  - replies with the matching reply type, preserving the request seq.
//
// Commands within a connection are serviced in arrival order by one worker
// thread — the in-order command-queue semantics a device gives OpenCL —
// while the message listener stays asynchronous, mirroring the paper's
// acceptor design. A write, launch or read the host issued behind earlier
// requests names the first of them (after_seq); the connection remembers
// the highest seq it answered with a failure or a skip and answers such a
// request at or below it kDependencyFailed without running it.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "broker/node_broker.h"
#include "common/config.h"
#include "common/sync.h"
#include "driver/device_driver.h"
#include "net/rpc.h"
#include "net/transport.h"
#include "runtime/device_session.h"

namespace haocl::nmp {

class NodeServer {
 public:
  // Creates the server for one device node; the driver comes from the ICD
  // for `type` unless an explicit driver is injected (tests).
  static Expected<std::unique_ptr<NodeServer>> Create(std::string name,
                                                      NodeType type);
  NodeServer(std::string name, NodeType type,
             std::unique_ptr<driver::DeviceDriver> driver);
  ~NodeServer();

  NodeServer(const NodeServer&) = delete;
  NodeServer& operator=(const NodeServer&) = delete;

  // Attaches a transport connection and starts servicing it. The server
  // owns the connection. May be called for multiple connections (multiple
  // hosts sharing the node: the "shared device" flag in the paper).
  void Serve(net::ConnectionPtr connection);

  // Registers a direct link to peer node `peer_index` (the host's node
  // numbering) used to serve kPullSlice without routing the payload
  // through the host. The other end of the connection is Serve()d by the
  // peer. Pull requests naming an unregistered peer fail with
  // kPeerUnreachable, which makes the host fall back to relaying.
  void ConnectPeer(std::size_t peer_index, net::ConnectionPtr connection);

  // Stops all workers and closes all connections.
  void Shutdown();

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] NodeType type() const { return type_; }
  [[nodiscard]] const sim::DeviceSpec& spec() const { return driver_->spec(); }

  // Test hook: total kernels run across all sessions.
  [[nodiscard]] std::uint64_t kernels_executed() const;
  // Test hook: bytes resident across all sessions' ledger views.
  [[nodiscard]] std::uint64_t bytes_resident() const;

  // The node's resource broker: shared memory ledger, launch admission +
  // fair-share arbitration, and the cross-session kernel-rate table.
  // Exposed so embedders (SimCluster tests, benches) can set limits and
  // read tenant stats directly.
  [[nodiscard]] broker::NodeBroker& broker() { return broker_; }
  [[nodiscard]] const broker::NodeBroker& broker() const { return broker_; }

 private:
  struct Channel;  // One served connection.

  void WorkerLoop(Channel* channel);
  // `channel`'s FrameSink: a kWriteBuffer lands straight in the replica
  // when it is the next thing the connection would run and its range
  // passes DeviceSession::ClaimWrite; any other frame is declined.
  net::Landing LandWrite(Channel& channel, const net::Message::Header& header,
                         std::span<const std::uint8_t> prefix);
  // Runs one request of `channel` and builds its reply; a failure raises
  // the channel's failed_through.
  net::Message HandleMessage(const net::Message& request, Channel& channel);
  // True when a request issued behind `after_seq` must be skipped.
  static bool Skips(const Channel& channel, std::uint64_t after_seq);
  // Messages answered on the receive path, ahead of the per-connection
  // inbox: kHeartbeat, so it gets through while the worker is busy, and
  // the kWriteBuffer that LandWrite already received into the replica.
  net::Message HandleControlMessage(const net::Message& request);
  runtime::DeviceSession& SessionFor(std::uint64_t session_id);
  // The RPC client for `peer_index`, or nullptr when no link exists.
  net::RpcClient* PeerClient(std::size_t peer_index);

  std::string name_;
  NodeType type_;
  std::unique_ptr<driver::DeviceDriver> driver_;
  // Declared before sessions_: sessions (whose ledgers point into the
  // broker) are destroyed first.
  broker::NodeBroker broker_;

  std::mutex sessions_mutex_;
  std::unordered_map<std::uint64_t, std::unique_ptr<runtime::DeviceSession>>
      sessions_;

  std::mutex channels_mutex_;
  std::vector<std::unique_ptr<Channel>> channels_;
  std::mutex peers_mutex_;
  std::unordered_map<std::size_t, std::unique_ptr<net::RpcClient>> peers_;
  std::atomic<bool> shutting_down_{false};
  std::atomic<std::uint32_t> queue_depth_{0};
};

// Dials every OTHER node of `config` over TCP and registers the links as
// peer channels on `server` (which is config.nodes()[self_index]), so a
// multi-machine deployment gets real node-to-node slice exchange instead
// of the host-relay fallback. Nodes whose address is not a dialable
// host:port (the "sim" placeholder, an empty address, or port 0) are
// skipped — their pulls keep failing with kPeerUnreachable and the host
// relays, exactly the degraded-network behaviour. Each NMP process calls
// this once after its own listener is up; the dialed connection arrives at
// the peer as one more Serve()d channel.
Status ConnectPeersFromConfig(NodeServer& server, std::size_t self_index,
                              const ClusterConfig& config);

}  // namespace haocl::nmp
