// RPC call deadlines: a call to a peer that never answers fails with
// kNetworkError once its timeout expires — Call's, or Await's for a call
// sent with CallAsync — the error on which the elastic coordinator fails
// the node over. Neither the timeout nor Close returns a call while its
// reply is still landing in the caller's destination.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "common/sync.h"
#include "net/rpc.h"
#include "net/sim_transport.h"

namespace haocl::net {
namespace {

TEST(RpcDeadlineTest, UnansweredCallFailsAtItsTimeout) {
  auto [host_end, node_end] = CreateSimChannel();
  RpcClient client(std::move(host_end));
  // The "node" end never reads, never replies: a hung peer.
  const auto start = std::chrono::steady_clock::now();
  auto reply = client.Call(MsgType::kHeartbeat, /*session=*/1, {},
                           std::chrono::milliseconds(50));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), ErrorCode::kNetworkError);
  // The diagnostic names the call that died.
  EXPECT_NE(reply.status().message().find(MsgTypeName(MsgType::kHeartbeat)),
            std::string::npos)
      << reply.status().message();
  // It fired on the call's timeout, not on the 30 s default.
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(RpcDeadlineTest, UnansweredAsyncCallFailsAtAwaitsTimeout) {
  auto [host_end, node_end] = CreateSimChannel();
  RpcClient client(std::move(host_end));
  // Sent now under a reserved seq, awaited later: the deadline runs from
  // the Await.
  const std::uint64_t seq = client.ReserveSeq();
  auto future = client.CallAsync(MsgType::kLaunchKernel, 1, {}, {}, {}, seq);
  const auto start = std::chrono::steady_clock::now();
  auto reply = client.Await(seq, future, std::chrono::milliseconds(50));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), ErrorCode::kNetworkError);
  EXPECT_NE(reply.status().message().find(MsgTypeName(MsgType::kLaunchKernel)),
            std::string::npos)
      << reply.status().message();
  EXPECT_GE(elapsed, std::chrono::milliseconds(50));
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

// A connection whose peer answers a request with an 8-byte kReadReply
// that lands in two halves, parked between them until the test resumes
// it. Closing the connection resumes it too, and the landing is then
// abandoned as a dropped TCP stream would be.
class StallingConnection : public Connection {
 public:
  static constexpr std::uint64_t kReplyBytes = 8;

  ~StallingConnection() override { Close(); }

  void SetSink(FrameSink sink) override { sink_ = std::move(sink); }
  void Start(MessageHandler handler) override { handler_ = std::move(handler); }
  // The reply starts landing before Send returns, so it is in flight
  // before any timeout of the call can fire.
  Status Send(const Message& request) override {
    const Message::Header header{MsgType::kReadReply, request.seq, 0,
                                 kReplyBytes};
    Landing landing = sink_.claim(header, {});
    if (landing.bytes.size() != kReplyBytes) {
      half_landed.Set(false);
      return Status::Ok();
    }
    std::fill_n(landing.bytes.begin(), kReplyBytes / 2, 0xAB);
    replier_ = std::thread(
        [this, header, bytes = landing.bytes] { Finish(header, bytes); });
    half_landed.Set(true);
    return Status::Ok();
  }
  void Close() override {
    closing_ = true;
    resume.Set(true);
    if (replier_.joinable()) replier_.join();
  }
  [[nodiscard]] std::uint64_t bytes_sent() const override { return 0; }
  [[nodiscard]] std::uint64_t messages_sent() const override { return 0; }

  Promise<bool> half_landed;  // False when the sink declined.
  Promise<bool> resume;
  std::atomic<bool> stopped{false};  // The replier wrote its last byte.

 private:
  void Finish(const Message::Header& header, std::span<std::uint8_t> bytes) {
    resume.Wait();
    if (closing_) {
      stopped = true;
      sink_.abandon(header);
      return;
    }
    std::fill(bytes.begin() + kReplyBytes / 2, bytes.end(), 0xAB);
    stopped = true;
    Message reply;
    reply.type = MsgType::kReadReply;
    reply.seq = header.seq;
    reply.tail = bytes;
    handler_(std::move(reply));
  }

  FrameSink sink_;
  MessageHandler handler_;
  std::thread replier_;
  std::atomic<bool> closing_{false};
};

// Runs `call` on its own thread once the fake's reply is half landed and
// reports whether it returned before the test resumed the replier.
struct LandingCall {
  std::vector<std::uint8_t> dest =
      std::vector<std::uint8_t>(StallingConnection::kReplyBytes, 0);
  Expected<Message> reply = Status(ErrorCode::kInternal, "not returned");
  std::atomic<bool> returned{false};
  bool stopped_first = false;
  std::thread thread;

  // `async`: CallAsync, then Await, instead of Call.
  void Start(RpcClient& client, StallingConnection& fake,
             std::chrono::milliseconds timeout, bool async = false) {
    thread = std::thread([this, &client, &fake, timeout, async] {
      if (async) {
        const std::uint64_t seq = client.ReserveSeq();
        auto future =
            client.CallAsync(MsgType::kReadBuffer, 1, {}, {}, dest, seq);
        reply = client.Await(seq, future, timeout);
      } else {
        reply = client.Call(MsgType::kReadBuffer, 1, {}, timeout, {}, dest);
      }
      stopped_first = fake.stopped.load();
      returned = true;
    });
  }
};

TEST(RpcDeadlineTest, CallTimeoutWaitsOutALandingReply) {
  auto connection = std::make_unique<StallingConnection>();
  StallingConnection& fake = *connection;
  RpcClient client(std::move(connection));
  LandingCall call;
  call.Start(client, fake, std::chrono::milliseconds(20));
  ASSERT_TRUE(fake.half_landed.Wait());
  // Far past the call's own timeout: it still must not return.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_FALSE(call.returned.load());
  fake.resume.Set(true);
  call.thread.join();
  EXPECT_TRUE(call.stopped_first);
  EXPECT_EQ(call.reply.code(), ErrorCode::kNetworkError);
  client.Close();
}

TEST(RpcDeadlineTest, AwaitTimeoutWaitsOutALandingReply) {
  auto connection = std::make_unique<StallingConnection>();
  StallingConnection& fake = *connection;
  RpcClient client(std::move(connection));
  LandingCall call;
  call.Start(client, fake, std::chrono::milliseconds(20), /*async=*/true);
  ASSERT_TRUE(fake.half_landed.Wait());
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_FALSE(call.returned.load());
  fake.resume.Set(true);
  call.thread.join();
  EXPECT_TRUE(call.stopped_first);
  EXPECT_EQ(call.reply.code(), ErrorCode::kNetworkError);
  client.Close();
}

TEST(RpcDeadlineTest, CloseWaitsOutALandingReply) {
  auto connection = std::make_unique<StallingConnection>();
  StallingConnection& fake = *connection;
  RpcClient client(std::move(connection));
  LandingCall call;
  call.Start(client, fake, RpcClient::kDefaultCallTimeout);
  ASSERT_TRUE(fake.half_landed.Wait());
  EXPECT_FALSE(call.returned.load());
  client.Close();  // Resumes the replier, which abandons the landing.
  call.thread.join();
  EXPECT_TRUE(call.stopped_first);
  EXPECT_EQ(call.reply.code(), ErrorCode::kNetworkError);
}

}  // namespace
}  // namespace haocl::net
