// RPC call deadlines: a peer that never answers must fail pending calls
// with kNodeLost once the armed timeout expires — the liveness signal the
// elastic failure-recovery loop keys on — while answered calls are
// untouched and a disarmed client keeps the legacy wait-forever contract.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "net/protocol.h"
#include "net/rpc.h"
#include "net/sim_transport.h"

namespace haocl::net {
namespace {

TEST(RpcDeadlineTest, UnansweredCallFailsWithNodeLost) {
  auto [host_end, node_end] = CreateSimChannel();
  RpcClient client(std::move(host_end));
  client.SetCallTimeout(std::chrono::milliseconds(50));
  // The "node" end never reads, never replies: a hung peer.
  const auto start = std::chrono::steady_clock::now();
  auto reply = client.Call(MsgType::kHeartbeat, /*session=*/1, {});
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), ErrorCode::kNodeLost);
  // The diagnostic names the call that died.
  EXPECT_NE(reply.status().message().find("deadline"), std::string::npos)
      << reply.status().message();
  // It fired on the deadline, not on the synchronous Call's 30s fallback.
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(RpcDeadlineTest, AsyncFutureFailsOnDeadline) {
  auto [host_end, node_end] = CreateSimChannel();
  RpcClient client(std::move(host_end));
  client.SetCallTimeout(std::chrono::milliseconds(30));
  auto future = client.CallAsync(MsgType::kQueryLoad, 1, {});
  auto reply = future->Wait();
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), ErrorCode::kNodeLost);
}

TEST(RpcDeadlineTest, AnsweredCallUnaffectedByDeadline) {
  auto [host_end, node_end] = CreateSimChannel();
  // Echo server: answer every request with an empty kStatusReply.
  node_end->Start([&](Message msg) {
    StatusReply ok_reply;
    ok_reply.status_code = 0;
    Message reply;
    reply.type = MsgType::kStatusReply;
    reply.session = msg.session;
    reply.seq = msg.seq;
    reply.payload = Encode(ok_reply);
    (void)node_end->Send(reply);
  });
  RpcClient client(std::move(host_end));
  client.SetCallTimeout(std::chrono::milliseconds(200));
  for (int i = 0; i < 10; ++i) {
    auto reply = client.Call(MsgType::kHeartbeat, 1, {});
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->type, MsgType::kStatusReply);
  }
}

TEST(RpcDeadlineTest, DeadlineAppliesOnlyToCallsAfterArming) {
  auto [host_end, node_end] = CreateSimChannel();
  RpcClient client(std::move(host_end));
  // Armed mid-flight: the first call (no deadline) would wait forever on
  // its future, so use the blocking Call's own short timeout to reap it.
  auto unarmed = client.Call(MsgType::kHeartbeat, 1, {},
                             std::chrono::milliseconds(50));
  ASSERT_FALSE(unarmed.ok());
  EXPECT_NE(unarmed.status().code(), ErrorCode::kNodeLost);
  client.SetCallTimeout(std::chrono::milliseconds(30));
  auto armed = client.Call(MsgType::kHeartbeat, 1, {});
  ASSERT_FALSE(armed.ok());
  EXPECT_EQ(armed.status().code(), ErrorCode::kNodeLost);
}

}  // namespace
}  // namespace haocl::net
