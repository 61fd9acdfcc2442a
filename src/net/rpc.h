// Request/response matching over a Connection.
//
// The paper's host process "sends a message through the message listener,
// [then] waits for the response message and takes the next action" — a
// synchronous RPC. Device-node listeners are asynchronous. RpcClient gives
// the host both styles: CallAsync() sends and Await() waits, so a caller
// can keep several requests in flight; Call() is the two back to back.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/sync.h"
#include "net/transport.h"

namespace haocl::net {

class RpcClient {
 public:
  // Takes ownership of the connection and starts its dispatcher.
  explicit RpcClient(ConnectionPtr connection);
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  using ReplyFuture = std::shared_ptr<Promise<Expected<Message>>>;

  // Takes the seq of a request that is sent later: a caller that must name
  // a request before it leaves (the host's issue-ahead frames name the
  // request they follow) reserves it here and passes it to CallAsync.
  std::uint64_t ReserveSeq() {
    return next_seq_.fetch_add(1, std::memory_order_relaxed);
  }

  // Sends a request under `seq` (0 takes the next one) and returns the
  // future its reply arrives on. The future fails when the connection
  // drops or the client closes; it has no deadline of its own (Await's
  // timeout is the one deadline). `tail` is sent after `payload` in the
  // same frame (see Message::tail); it is borrowed only until CallAsync
  // returns.
  //
  // A kReadReply of exactly reply_into.size() bytes is received straight
  // into `reply_into` and arrives with `tail` viewing it; any other reply
  // arrives in `payload` as usual. The bytes of `reply_into` are
  // unspecified unless the call succeeds.
  ReplyFuture CallAsync(MsgType type, std::uint64_t session,
                        std::vector<std::uint8_t> payload,
                        std::span<const std::uint8_t> tail = {},
                        std::span<std::uint8_t> reply_into = {},
                        std::uint64_t seq = 0);

  static constexpr std::chrono::milliseconds kDefaultCallTimeout{30000};

  // Waits for the reply to the request sent as `seq`. A request unanswered
  // after `timeout` is withdrawn and fails with kNetworkError naming its
  // message type. The reply is moved out of the future, not copied. Await
  // never returns while the reader can still write into the call's
  // reply_into (timeout and Close included).
  Expected<Message> Await(std::uint64_t seq, const ReplyFuture& future,
                          std::chrono::milliseconds timeout);

  // CallAsync, then Await.
  Expected<Message> Call(MsgType type, std::uint64_t session,
                         std::vector<std::uint8_t> payload,
                         std::chrono::milliseconds timeout =
                             kDefaultCallTimeout,
                         std::span<const std::uint8_t> tail = {},
                         std::span<std::uint8_t> reply_into = {});

  // One-way message (no reply expected), e.g. shutdown.
  Status Notify(MsgType type, std::uint64_t session,
                std::vector<std::uint8_t> payload);

  void Close();

  [[nodiscard]] std::uint64_t bytes_sent() const {
    return connection_->bytes_sent();
  }
  [[nodiscard]] std::uint64_t messages_sent() const {
    return connection_->messages_sent();
  }

 private:
  struct PendingCall {
    ReplyFuture future;
    MsgType type;                        // For Await's timeout diagnostic.
    std::span<std::uint8_t> reply_into;  // Where a read reply lands.
  };

  // The connection's FrameSink: lands a matching kReadReply in its call's
  // reply_into, and fails the call if the connection drops mid-reply.
  Landing ClaimReply(const Message::Header& header);
  void AbandonReply(const Message::Header& header);
  void OnMessage(Message msg);
  void FailAllPending(const Status& status);

  ConnectionPtr connection_;
  std::mutex mutex_;
  std::unordered_map<std::uint64_t, PendingCall> pending_;
  // The call whose reply the reader is writing into its reply_into, or 0.
  // Guarded by mutex_; landed_cv_ signals when it clears.
  std::uint64_t landing_seq_ = 0;
  std::condition_variable landed_cv_;
  std::atomic<std::uint64_t> next_seq_{1};
  std::atomic<bool> closed_{false};
};

}  // namespace haocl::net
