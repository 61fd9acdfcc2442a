#include "nmp/node_server.h"

#include "common/log.h"
#include "driver/icd.h"
#include "net/protocol.h"
#include "net/tcp_transport.h"

namespace haocl::nmp {

using net::Message;
using net::MsgType;

namespace {

// The request type a one-argument handler lambda takes.
template <class Handler>
struct RequestOf : RequestOf<decltype(&Handler::operator())> {};
template <class Lambda, class Request>
struct RequestOf<void (Lambda::*)(const Request&) const> {
  using type = Request;
};

// The node's one decode: parses the request payload as the type `handle`
// takes and runs `handle` on it, or answers a malformed payload with its
// kProtocolError status and returns false.
template <class Handler>
bool DecodeAndHandle(const std::string& node, const Message& request,
                     Message& reply, Handler handle) {
  auto decoded =
      net::Decode<typename RequestOf<Handler>::type>(request.payload);
  if (!decoded.ok()) {
    HAOCL_WARN << "NMP " << node << ": " << decoded.status().ToString();
    reply.type = MsgType::kStatusReply;
    reply.payload =
        net::Encode(net::StatusReply::FromStatus(decoded.status()));
    return false;
  }
  handle(*decoded);
  return true;
}

}  // namespace

// One served connection: its queue and worker thread.
struct NodeServer::Channel {
  net::ConnectionPtr connection;
  BlockingQueue<Message> inbox;
  std::thread worker;
  // Requests queued, running or awaiting their reply's send. Raised by
  // the receive path, lowered by the worker once the reply is out.
  std::atomic<std::uint32_t> unanswered{0};
  // The highest seq this connection answered with a failure or a skip: a
  // request issued behind one at or below it (after_seq) is skipped.
  // Written by the worker before it lowers `unanswered`.
  std::atomic<std::uint64_t> failed_through{0};
};

Expected<std::unique_ptr<NodeServer>> NodeServer::Create(std::string name,
                                                         NodeType type) {
  auto driver = driver::IcdRegistry::Instance().Create(type);
  if (!driver.ok()) return driver.status();
  return std::make_unique<NodeServer>(std::move(name), type,
                                      *std::move(driver));
}

NodeServer::NodeServer(std::string name, NodeType type,
                       std::unique_ptr<driver::DeviceDriver> driver)
    : name_(std::move(name)),
      type_(type),
      driver_(std::move(driver)),
      broker_(driver_->spec().mem_capacity_bytes) {}

NodeServer::~NodeServer() { Shutdown(); }

void NodeServer::Serve(net::ConnectionPtr connection) {
  auto channel = std::make_unique<Channel>();
  channel->connection = std::move(connection);
  Channel* raw = channel.get();
  raw->connection->SetSink(
      {[this, raw](const Message::Header& header,
                   std::span<const std::uint8_t> prefix) {
         return LandWrite(*raw, header, prefix);
       },
       // A write cut off mid-tail leaves its range reserved and its bytes
       // unspecified; the host never marks this node an owner of a range
       // whose write call failed.
       [](const Message::Header&) {}});
  // Asynchronous listener: enqueue and return to listening, exactly the
  // paper's accept-then-listen-again loop. A heartbeat is handled right
  // here on the receive path, BEFORE the inbox, so it gets answered even
  // while the worker is busy executing a long kernel. So is a write that
  // landed in place (non-empty tail): it was the next thing this
  // connection would run, and its bytes are already in the replica.
  raw->connection->Start([this, raw](Message msg) {
    if (msg.type == MsgType::kHeartbeat || !msg.tail.empty()) {
      Message reply = HandleControlMessage(msg);
      reply.seq = msg.seq;
      reply.session = msg.session;
      if (msg.seq != 0) (void)raw->connection->Send(reply);
      return;
    }
    queue_depth_.fetch_add(1, std::memory_order_relaxed);
    raw->unanswered.fetch_add(1, std::memory_order_relaxed);
    raw->inbox.Push(std::move(msg));
  });
  raw->worker = std::thread([this, raw] { WorkerLoop(raw); });
  // Publish only the fully-initialized channel: Shutdown swaps the list
  // out and touches `worker`, so the thread must be assigned before the
  // channel is reachable. If shutdown already swapped, nobody will ever
  // join this channel — tear it down here instead of publishing.
  std::unique_lock<std::mutex> lock(channels_mutex_);
  if (shutting_down_.load()) {
    lock.unlock();
    raw->inbox.Close();
    raw->connection->Close();
    raw->worker.join();
    return;
  }
  channels_.push_back(std::move(channel));
}

void NodeServer::WorkerLoop(Channel* channel) {
  while (auto msg = channel->inbox.Pop()) {
    queue_depth_.fetch_sub(1, std::memory_order_relaxed);
    if (msg->type == MsgType::kShutdown) {
      // A client that vanishes with kShutdown but never kCloseSession must
      // not leak its session or its broker tenancy (session-churn fix).
      {
        std::lock_guard<std::mutex> lock(sessions_mutex_);
        sessions_.erase(msg->session);
      }
      broker_.UnregisterTenant(msg->session);
      break;
    }
    Message reply = HandleMessage(*msg, *channel);
    reply.seq = msg->seq;
    reply.session = msg->session;
    // One-way messages (seq 0) want no reply.
    const Status sent =
        msg->seq == 0 ? Status::Ok() : channel->connection->Send(reply);
    // Release: a write landing next sees everything this request did.
    channel->unanswered.fetch_sub(1, std::memory_order_release);
    if (!sent.ok()) {
      HAOCL_WARN << "NMP " << name_ << ": reply failed: " << sent.ToString();
      break;
    }
  }
}

net::Landing NodeServer::LandWrite(Channel& channel,
                                   const Message::Header& header,
                                   std::span<const std::uint8_t> prefix) {
  // Only the next thing this connection would run may land: anything
  // queued, running or awaiting its reply's send would see the write too
  // early. Such a write waits its turn on the copy path.
  if (header.type != MsgType::kWriteBuffer ||
      channel.unanswered.load(std::memory_order_acquire) != 0) {
    return {};
  }
  std::uint64_t buffer_id = 0;
  std::uint64_t offset = 0;
  std::uint64_t after_seq = 0;
  std::uint64_t size = 0;
  WireReader reader(prefix.data(), prefix.size());
  reader(buffer_id, offset, after_seq, size);
  if (!reader.status().ok() || size != header.payload_size - prefix.size()) {
    return {};
  }
  // A write the copy path will skip must not land.
  if (Skips(channel, after_seq)) return {};
  // A failed check fails again on the copy path, which answers it.
  auto range = SessionFor(header.session).ClaimWrite(buffer_id, offset, size);
  if (!range.ok()) return {};
  return {range->bytes, std::move(range->owner)};
}

void NodeServer::ConnectPeer(std::size_t peer_index,
                             net::ConnectionPtr connection) {
  std::lock_guard<std::mutex> lock(peers_mutex_);
  peers_[peer_index] = std::make_unique<net::RpcClient>(std::move(connection));
}

net::RpcClient* NodeServer::PeerClient(std::size_t peer_index) {
  std::lock_guard<std::mutex> lock(peers_mutex_);
  auto it = peers_.find(peer_index);
  return it == peers_.end() ? nullptr : it->second.get();
}

runtime::DeviceSession& NodeServer::SessionFor(std::uint64_t session_id) {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  auto& slot = sessions_[session_id];
  if (slot == nullptr) {
    // Every session charges the node's ONE shared ledger through its own
    // broker view — capacity is enforced across all tenants, not per
    // session.
    slot = std::make_unique<runtime::DeviceSession>(
        driver_.get(), broker_.LedgerFor(session_id));
  }
  return *slot;
}

Message NodeServer::HandleControlMessage(const Message& request) {
  Message reply;
  reply.type = MsgType::kStatusReply;
  switch (request.type) {
    case MsgType::kHeartbeat: {
      // Liveness only: answering at all is the signal.
      reply.payload = net::Encode(net::StatusReply::FromStatus(Status::Ok()));
      break;
    }
    case MsgType::kWriteBuffer: {
      // Only a write that landed in place comes here (LandWrite claimed
      // and charged its range): its bytes are already in the replica.
      reply.payload = net::Encode(net::StatusReply::FromStatus(Status::Ok()));
      break;
    }
    default: {
      reply.payload = net::Encode(net::StatusReply::FromStatus(
          Status(ErrorCode::kProtocolError,
                 std::string("not a control message: ") +
                     net::MsgTypeName(request.type))));
      break;
    }
  }
  return reply;
}

bool NodeServer::Skips(const Channel& channel, std::uint64_t after_seq) {
  return after_seq != 0 &&
         after_seq <= channel.failed_through.load(std::memory_order_relaxed);
}

Message NodeServer::HandleMessage(const Message& request, Channel& channel) {
  Message reply;
  reply.type = MsgType::kStatusReply;
  // Whether the reply reports a failure, for the channel's skip rule.
  bool failed = false;

  auto status_reply = [&](const Status& status) {
    reply.type = MsgType::kStatusReply;
    reply.payload = net::Encode(net::StatusReply::FromStatus(status));
    failed = !status.ok();
  };
  auto protocol_error = [&](const Status& status) {
    HAOCL_WARN << "NMP " << name_ << ": " << status.ToString();
    status_reply(status);
  };
  auto on = [&](auto handle) {
    if (!DecodeAndHandle(name_, request, reply, handle)) failed = true;
  };
  // A request issued behind one this connection failed or skipped runs
  // nothing and touches no state.
  auto skipped = [&](std::uint64_t after_seq) {
    if (!Skips(channel, after_seq)) return false;
    status_reply(Status(ErrorCode::kDependencyFailed,
                        "request seq " + std::to_string(request.seq) +
                            " follows failed request seq " +
                            std::to_string(after_seq) + " or later"));
    return true;
  };

  runtime::DeviceSession& session = SessionFor(request.session);

  switch (request.type) {
    case MsgType::kHelloRequest:
      on([&](const net::HelloRequest& decoded) {
        if (decoded.protocol_version != net::kProtocolVersion) {
          protocol_error(Status(
              ErrorCode::kProtocolError,
              "host speaks protocol version " +
                  std::to_string(decoded.protocol_version) + ", node " +
                  name_ + " speaks " +
                  std::to_string(net::kProtocolVersion)));
          return;
        }
        net::HelloReply hello;
        hello.node_name = name_;
        hello.device_type = type_;
        hello.device_model = driver_->spec().model_name;
        hello.compute_gflops = driver_->spec().compute_gflops;
        hello.mem_bandwidth_gbps = driver_->spec().mem_bandwidth_gbps;
        hello.mem_capacity_bytes = driver_->spec().mem_capacity_bytes;
        hello.simd_width = driver_->spec().simd_width > 0
                               ? static_cast<std::uint32_t>(
                                     driver_->spec().simd_width)
                               : 1;
        reply.type = MsgType::kHelloReply;
        reply.payload = net::Encode(hello);
      });
      break;
    case MsgType::kCreateBuffer:
      on([&](const net::CreateBufferRequest& decoded) {
        status_reply(session.CreateBuffer(decoded.buffer_id, decoded.size));
      });
      break;
    case MsgType::kWriteBuffer:
      on([&](const net::WriteBufferRequest& decoded) {
        if (skipped(decoded.after_seq)) return;
        status_reply(session.WriteBuffer(decoded.buffer_id, decoded.offset,
                                         decoded.data));
      });
      break;
    case MsgType::kReadBuffer:
      on([&](const net::ReadBufferRequest& decoded) {
        if (skipped(decoded.after_seq)) return;
        auto range = session.ReadBuffer(decoded.buffer_id, decoded.offset,
                                        decoded.size);
        if (!range.ok()) {
          status_reply(range.status());
          return;
        }
        // Sent straight from the replica, pinned until Send returns.
        reply.type = MsgType::kReadReply;
        reply.tail = range->bytes;
        reply.tail_owner = std::move(range->owner);
      });
      break;
    case MsgType::kPullSlice:
      on([&](const net::PullSliceRequest& decoded) {
        // The fetch reuses the ordinary ReadBuffer protocol against the
        // peer, carrying the requesting session id so the peer resolves the
        // same logical buffer namespace. The peer's reply lands straight in
        // the claimed replica range.
        const std::uint64_t session_id = request.session;
        auto fetch = [this, session_id](std::uint32_t peer,
                                        std::uint64_t buffer_id,
                                        std::uint64_t offset,
                                        std::span<std::uint8_t> into) {
          net::RpcClient* client = PeerClient(peer);
          if (client == nullptr) {
            return Status(ErrorCode::kPeerUnreachable,
                          name_ + " has no link to peer node " +
                              std::to_string(peer));
          }
          const net::ReadBufferRequest read{buffer_id, offset, into.size()};
          return net::ReceiveReadReply(
              client->Call(MsgType::kReadBuffer, session_id,
                           net::Encode(read),
                           net::RpcClient::kDefaultCallTimeout, {}, into),
              into);
        };
        status_reply(session.PullSlice(decoded, fetch));
      });
      break;
    case MsgType::kMemoryNotice:
      on([&](const net::MemoryNoticeRequest& decoded) {
        status_reply(session.MemoryNotice(decoded));
      });
      break;
    case MsgType::kReleaseBuffer:
      on([&](const net::ReleaseBufferRequest& decoded) {
        status_reply(session.ReleaseBuffer(decoded.buffer_id));
      });
      break;
    case MsgType::kBuildProgram:
      on([&](const net::BuildProgramRequest& decoded) {
        const net::BuildProgramReply built =
            session.BuildProgram(decoded.program_id, decoded.source);
        failed = built.status_code != 0;
        reply.type = MsgType::kBuildReply;
        reply.payload = net::Encode(built);
      });
      break;
    case MsgType::kReleaseProgram:
      on([&](const net::ReleaseProgramRequest& decoded) {
        status_reply(session.ReleaseProgram(decoded.program_id));
      });
      break;
    case MsgType::kLaunchKernel:
      on([&](const net::LaunchKernelRequest& decoded) {
        if (skipped(decoded.after_seq)) return;
        // Every launch passes through the broker gate: admission control
        // may reject it (kBackpressure travels back as an ordinary launch
        // reply), and weighted fair queuing decides when an admitted
        // launch runs relative to other tenants' backlogs.
        const sim::DeviceSpec& spec = driver_->spec();
        double predicted_seconds = 0.0;
        if (decoded.has_cost_hint && spec.compute_gflops > 0.0) {
          predicted_seconds = static_cast<double>(decoded.hint_flops) /
                              (spec.compute_gflops * 1e9);
        }
        auto grant = broker_.AcquireLaunchSlot(request.session,
                                               predicted_seconds);
        net::LaunchKernelReply launch;
        if (!grant.ok()) {
          launch.status_code =
              static_cast<std::int32_t>(grant.status().code());
          launch.error_message = grant.status().message();
        } else {
          launch = session.LaunchKernel(decoded);
          const double sample_flops =
              decoded.has_cost_hint ? static_cast<double>(decoded.hint_flops)
                                    : static_cast<double>(launch.flops);
          broker_.CompleteLaunch(request.session, *grant,
                                 launch.status_code == 0,
                                 launch.modeled_seconds, decoded.kernel_name,
                                 sample_flops);
        }
        launch.node_backlog_seconds = broker_.backlog_seconds();
        launch.active_weight = broker_.active_weight();
        failed = launch.status_code != 0;
        reply.type = MsgType::kLaunchReply;
        reply.payload = net::Encode(launch);
      });
      break;
    case MsgType::kQueryLoad: {
      net::LoadReply load = session.Load();
      load.queue_depth = queue_depth_.load(std::memory_order_relaxed);
      load.node_resident_bytes = broker_.resident_bytes();
      load.node_backlog_seconds = broker_.backlog_seconds();
      load.tenant_backlog_seconds =
          broker_.backlog_seconds_of(request.session);
      load.active_weight = broker_.active_weight();
      for (const broker::BrokerKernelRate& rate : broker_.KernelRates()) {
        load.kernel_rates.push_back(
            {rate.kernel, rate.seconds_per_flop, rate.samples});
      }
      reply.type = MsgType::kLoadReply;
      reply.payload = net::Encode(load);
      break;
    }
    case MsgType::kConfigureSession:
      on([&](const net::ConfigureSessionRequest& decoded) {
        broker::TenantConfig config;
        config.name = decoded.tenant_name;
        config.weight = decoded.weight;
        config.mem_quota_bytes = decoded.mem_quota_bytes;
        broker_.RegisterTenant(request.session, std::move(config));
        status_reply(Status::Ok());
      });
      break;
    case MsgType::kQueryBroker: {
      net::BrokerStatsReply stats;
      stats.mem_capacity_bytes = broker_.capacity();
      stats.resident_bytes = broker_.resident_bytes();
      stats.backlog_seconds = broker_.backlog_seconds();
      stats.active_weight = broker_.active_weight();
      stats.max_backlog_seconds = broker_.limits().max_backlog_seconds;
      for (const broker::TenantStats& t : broker_.AllTenants()) {
        net::BrokerTenantEntry entry;
        entry.session = t.session;
        entry.name = t.name;
        entry.weight = t.weight;
        entry.mem_quota_bytes = t.mem_quota_bytes;
        entry.resident_bytes = t.resident_bytes;
        entry.backlog_seconds = t.backlog_seconds;
        entry.served_seconds = t.served_seconds;
        entry.launches_admitted = t.launches_admitted;
        entry.launches_rejected = t.launches_rejected;
        entry.kernels_completed = t.kernels_completed;
        stats.tenants.push_back(std::move(entry));
      }
      for (const broker::BrokerKernelRate& rate : broker_.KernelRates()) {
        stats.kernel_rates.push_back(
            {rate.kernel, rate.seconds_per_flop, rate.samples});
      }
      reply.type = MsgType::kBrokerReply;
      reply.payload = net::Encode(stats);
      break;
    }
    case MsgType::kOpenSession:
    case MsgType::kCloseSession: {
      if (request.type == MsgType::kCloseSession) {
        {
          std::lock_guard<std::mutex> lock(sessions_mutex_);
          sessions_.erase(request.session);
        }
        // After the session (and its ledger view) is gone: its resident
        // bytes leave the node ledger so the capacity frees up for the
        // remaining tenants.
        broker_.UnregisterTenant(request.session);
      }
      status_reply(Status::Ok());
      break;
    }
    default:
      protocol_error(Status(
          ErrorCode::kProtocolError,
          "unexpected message type " +
              std::to_string(static_cast<unsigned>(request.type)) + " (" +
              net::MsgTypeName(request.type) + ")"));
      break;
  }
  if (failed && request.seq >
                    channel.failed_through.load(std::memory_order_relaxed)) {
    channel.failed_through.store(request.seq, std::memory_order_relaxed);
  }
  return reply;
}

std::uint64_t NodeServer::kernels_executed() const {
  std::uint64_t total = 0;
  std::lock_guard<std::mutex> lock(
      const_cast<std::mutex&>(sessions_mutex_));
  for (const auto& [id, session] : sessions_) {
    total += session->Load().kernels_executed;
  }
  return total;
}

std::uint64_t NodeServer::bytes_resident() const {
  std::uint64_t total = 0;
  std::lock_guard<std::mutex> lock(
      const_cast<std::mutex&>(sessions_mutex_));
  for (const auto& [id, session] : sessions_) {
    total += session->resident_bytes();
  }
  return total;
}

Status ConnectPeersFromConfig(NodeServer& server, std::size_t self_index,
                              const ClusterConfig& config) {
  if (self_index >= config.nodes().size()) {
    return Status(ErrorCode::kInvalidValue,
                  "self index " + std::to_string(self_index) +
                      " out of range for a " +
                      std::to_string(config.nodes().size()) +
                      "-node cluster config");
  }
  for (std::size_t peer = 0; peer < config.nodes().size(); ++peer) {
    if (peer == self_index) continue;
    const NodeEntry& entry = config.nodes()[peer];
    if (entry.address.empty() || entry.address == "sim" || entry.port == 0) {
      continue;  // Not dialable; pulls from this peer fall back to relay.
    }
    auto connection = net::TcpConnect(entry.address, entry.port);
    if (!connection.ok()) {
      return Status(ErrorCode::kPeerUnreachable,
                    server.name() + " cannot dial peer node " +
                        std::to_string(peer) + " (" + entry.address + ":" +
                        std::to_string(entry.port) +
                        "): " + connection.status().message());
    }
    server.ConnectPeer(peer, *std::move(connection));
  }
  return Status::Ok();
}

void NodeServer::Shutdown() {
  if (shutting_down_.exchange(true)) return;
  // Wake any worker blocked at the broker's launch gate so it can drain
  // and join below.
  broker_.Shutdown();
  {
    // Close peer links first: a worker blocked inside a pull fails
    // fast instead of waiting out its RPC timeout.
    std::lock_guard<std::mutex> lock(peers_mutex_);
    for (auto& [index, client] : peers_) client->Close();
  }
  std::vector<std::unique_ptr<Channel>> channels;
  {
    std::lock_guard<std::mutex> lock(channels_mutex_);
    channels.swap(channels_);
  }
  for (auto& channel : channels) {
    channel->inbox.Close();
    channel->connection->Close();
    if (channel->worker.joinable()) channel->worker.join();
  }
}

}  // namespace haocl::nmp
