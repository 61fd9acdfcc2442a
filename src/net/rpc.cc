#include "net/rpc.h"

#include <string>
#include <vector>

#include "common/log.h"

namespace haocl::net {

RpcClient::RpcClient(ConnectionPtr connection)
    : connection_(std::move(connection)) {
  connection_->SetSink(
      {[this](const Message::Header& header, std::span<const std::uint8_t>) {
         return ClaimReply(header);
       },
       [this](const Message::Header& header) { AbandonReply(header); }});
  connection_->SetEndHandler([this] {
    FailAllPending(Status(ErrorCode::kNodeUnreachable, "connection ended"));
  });
  connection_->Start([this](Message msg) { OnMessage(std::move(msg)); });
}

RpcClient::~RpcClient() { Close(); }

RpcClient::ReplyFuture RpcClient::CallAsync(
    MsgType type, std::uint64_t session, std::vector<std::uint8_t> payload,
    std::span<const std::uint8_t> tail, std::span<std::uint8_t> reply_into,
    std::uint64_t seq) {
  auto future = std::make_shared<Promise<Expected<Message>>>();
  Message msg;
  msg.type = type;
  msg.session = session;
  msg.seq = seq != 0 ? seq : ReserveSeq();
  msg.payload = std::move(payload);
  msg.tail = tail;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_[msg.seq] = PendingCall{future, type, reply_into};
  }
  // Once the connection ended no reply can come, and its end handler may
  // have run before this call was pending.
  Status sent = ended()
                    ? Status(ErrorCode::kNodeUnreachable, "connection ended")
                    : connection_->Send(msg);
  if (!sent.ok()) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      pending_.erase(msg.seq);
    }
    future->Set(Expected<Message>(sent));
  }
  return future;
}

Expected<Message> RpcClient::Await(std::uint64_t seq,
                                   const ReplyFuture& future,
                                   std::chrono::milliseconds timeout) {
  if (auto reply = future->TakeFor(timeout)) return *std::move(reply);
  // Withdraw the call, first waiting out a reply that is landing in
  // reply_into: the caller may reuse it as soon as this returns.
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = pending_.find(seq);
  if (it == pending_.end()) {
    // The reply (or the connection's failure) beat the withdrawal; the
    // future is being set.
    lock.unlock();
    return future->Wait();
  }
  const MsgType type = it->second.type;
  landed_cv_.wait(lock, [this, seq] { return landing_seq_ != seq; });
  pending_.erase(seq);
  return Status(ErrorCode::kNetworkError,
                std::string("RPC timeout for ") + MsgTypeName(type));
}

Expected<Message> RpcClient::Call(MsgType type, std::uint64_t session,
                                  std::vector<std::uint8_t> payload,
                                  std::chrono::milliseconds timeout,
                                  std::span<const std::uint8_t> tail,
                                  std::span<std::uint8_t> reply_into) {
  const std::uint64_t seq = ReserveSeq();
  return Await(seq,
               CallAsync(type, session, std::move(payload), tail, reply_into,
                         seq),
               timeout);
}

Status RpcClient::Notify(MsgType type, std::uint64_t session,
                         std::vector<std::uint8_t> payload) {
  Message msg;
  msg.type = type;
  msg.session = session;
  msg.seq = 0;  // Seq 0 marks one-way traffic.
  msg.payload = std::move(payload);
  return connection_->Send(msg);
}

Landing RpcClient::ClaimReply(const Message::Header& header) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = pending_.find(header.seq);
  if (it == pending_.end() || header.type != MsgType::kReadReply ||
      it->second.reply_into.size() != header.payload_size) {
    return {};
  }
  landing_seq_ = header.seq;
  return {it->second.reply_into, nullptr};
}

void RpcClient::AbandonReply(const Message::Header& header) {
  ReplyFuture future;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    landing_seq_ = 0;
    auto it = pending_.find(header.seq);
    if (it != pending_.end()) {
      future = std::move(it->second.future);
      pending_.erase(it);
    }
  }
  landed_cv_.notify_all();
  if (future != nullptr) {
    future->Set(Expected<Message>(
        Status(ErrorCode::kNetworkError,
               std::string("connection lost mid-reply to ") +
                   MsgTypeName(header.type))));
  }
}

void RpcClient::OnMessage(Message msg) {
  ReplyFuture future;
  // A reply that landed is done writing into its call's destination.
  const bool landed = !msg.tail.empty();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (landed) landing_seq_ = 0;
    auto it = pending_.find(msg.seq);
    if (it != pending_.end()) {
      future = std::move(it->second.future);
      pending_.erase(it);
    }
  }
  if (landed) landed_cv_.notify_all();
  if (future == nullptr) {
    HAOCL_DEBUG << "orphan reply seq=" << msg.seq << " type="
                << MsgTypeName(msg.type);
    return;
  }
  future->Set(Expected<Message>(std::move(msg)));
}

void RpcClient::FailAllPending(const Status& status) {
  std::unordered_map<std::uint64_t, PendingCall> orphaned;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ended_.store(true, std::memory_order_release);
    orphaned.swap(pending_);
  }
  for (auto& [seq, call] : orphaned) {
    call.future->Set(Expected<Message>(status));
  }
}

void RpcClient::Close() {
  if (closed_.exchange(true)) return;
  connection_->Close();
  FailAllPending(Status(ErrorCode::kNodeUnreachable, "client closed"));
}

}  // namespace haocl::net
