// Transport tests: the in-process channel and the real TCP loopback path
// must behave identically (ordering, large frames, clean shutdown).
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <tuple>

#include "common/sync.h"
#include "net/protocol.h"
#include "net/rpc.h"
#include "net/sim_transport.h"
#include "net/tcp_transport.h"

namespace haocl::net {
namespace {

Message Make(MsgType type, std::uint64_t seq,
             std::vector<std::uint8_t> payload = {}) {
  Message msg;
  msg.type = type;
  msg.seq = seq;
  msg.payload = std::move(payload);
  return msg;
}

TEST(SimTransportTest, BidirectionalOrdering) {
  auto [a, b] = CreateSimChannel();
  BlockingQueue<std::uint64_t> got_a;
  BlockingQueue<std::uint64_t> got_b;
  a->Start([&](Message m) { got_a.Push(m.seq); });
  b->Start([&](Message m) { got_b.Push(m.seq); });
  for (std::uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(a->Send(Make(MsgType::kHeartbeat, i)).ok());
    ASSERT_TRUE(b->Send(Make(MsgType::kStatusReply, 1000 + i)).ok());
  }
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(*got_b.Pop(), i);          // a -> b arrives in order.
    EXPECT_EQ(*got_a.Pop(), 1000 + i);   // b -> a arrives in order.
  }
  a->Close();
  b->Close();
}

TEST(SimTransportTest, SendAfterPeerCloseFails) {
  auto [a, b] = CreateSimChannel();
  a->Start([](Message) {});
  b->Start([](Message) {});
  b->Close();
  Status s = a->Send(Make(MsgType::kHeartbeat, 1));
  EXPECT_FALSE(s.ok());
  a->Close();
}

TEST(SimTransportTest, CountsBytesAndMessages) {
  auto [a, b] = CreateSimChannel();
  b->Start([](Message) {});
  a->Start([](Message) {});
  Message m = Make(MsgType::kWriteBuffer, 1,
                   std::vector<std::uint8_t>(1000, 0xAB));
  ASSERT_TRUE(a->Send(m).ok());
  EXPECT_EQ(a->messages_sent(), 1u);
  EXPECT_EQ(a->bytes_sent(), m.WireSize());
  a->Close();
  b->Close();
}

TEST(SimTransportTest, BorrowedTailIsCopiedAtSend) {
  auto [a, b] = CreateSimChannel();
  BlockingQueue<Message> got;
  b->Start([&](Message m) { got.Push(std::move(m)); });
  a->Start([](Message) {});
  std::vector<std::uint8_t> bulk(4096, 0x11);
  Message m = Make(MsgType::kWriteBuffer, 1, {1, 2});
  m.tail = bulk;
  ASSERT_TRUE(a->Send(m).ok());
  // The tail only has to live until Send returns: reusing the buffer
  // afterwards must not reach the queued message.
  std::fill(bulk.begin(), bulk.end(), 0x22);
  auto received = got.Pop();
  ASSERT_TRUE(received.has_value());
  std::vector<std::uint8_t> expected = {1, 2};
  expected.insert(expected.end(), 4096, 0x11);
  EXPECT_EQ(received->payload, expected);
  EXPECT_EQ(a->bytes_sent(), m.WireSize());
  a->Close();
  b->Close();
}

TEST(SimListenerTest, ConnectDeliversServerEnd) {
  SimListener listener;
  BlockingQueue<ConnectionPtr> accepted;
  ASSERT_TRUE(
      listener.Start([&](ConnectionPtr c) { accepted.Push(std::move(c)); })
          .ok());
  auto client = listener.Connect();
  ASSERT_TRUE(client.ok());
  auto server = accepted.Pop();
  ASSERT_TRUE(server.has_value());

  BlockingQueue<std::uint64_t> got;
  (*server)->Start([&](Message m) { got.Push(m.seq); });
  (*client)->Start([](Message) {});
  ASSERT_TRUE((*client)->Send(Make(MsgType::kHelloRequest, 5)).ok());
  EXPECT_EQ(*got.Pop(), 5u);
  (*client)->Close();
  (*server)->Close();
  listener.Stop();
  EXPECT_FALSE(listener.Connect().ok());
}

class TcpTransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    listener_ = std::make_unique<TcpListener>(0);  // Ephemeral port.
    ASSERT_TRUE(listener_
                    ->Start([this](ConnectionPtr c) {
                      accepted_.Push(std::move(c));
                    })
                    .ok());
  }
  void TearDown() override { listener_->Stop(); }

  std::unique_ptr<TcpListener> listener_;
  BlockingQueue<ConnectionPtr> accepted_;
};

TEST_F(TcpTransportTest, RoundTripOverLoopback) {
  auto client = TcpConnect("127.0.0.1", listener_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto server = accepted_.Pop();
  ASSERT_TRUE(server.has_value());

  BlockingQueue<Message> at_server;
  (*server)->Start([&](Message m) { at_server.Push(std::move(m)); });
  BlockingQueue<Message> at_client;
  (*client)->Start([&](Message m) { at_client.Push(std::move(m)); });

  ASSERT_TRUE((*client)
                  ->Send(Make(MsgType::kWriteBuffer, 9,
                              std::vector<std::uint8_t>{1, 2, 3}))
                  .ok());
  auto got = at_server.Pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->seq, 9u);
  EXPECT_EQ(got->payload, (std::vector<std::uint8_t>{1, 2, 3}));

  ASSERT_TRUE((*server)->Send(Make(MsgType::kStatusReply, 9)).ok());
  auto reply = at_client.Pop();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, MsgType::kStatusReply);

  (*client)->Close();
  (*server)->Close();
}

TEST_F(TcpTransportTest, LargeFrameSurvives) {
  auto client = TcpConnect("127.0.0.1", listener_->port());
  ASSERT_TRUE(client.ok());
  auto server = accepted_.Pop();
  BlockingQueue<Message> at_server;
  (*server)->Start([&](Message m) { at_server.Push(std::move(m)); });
  (*client)->Start([](Message) {});

  // 64 MiB in the borrowed tail: far more than a socket buffer takes at
  // once, so the gathered write resumes after partial writes.
  std::vector<std::uint8_t> big(64 << 20);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);
  }
  Message msg = Make(MsgType::kWriteBuffer, 1, {0xA0, 0xA1, 0xA2});
  msg.tail = big;
  ASSERT_TRUE((*client)->Send(msg).ok());
  EXPECT_EQ((*client)->bytes_sent(), msg.WireSize());
  auto got = at_server.Pop();
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->payload.size(), 3 + big.size());
  EXPECT_EQ(got->payload[0], 0xA0);
  EXPECT_EQ(got->payload[2], 0xA2);
  EXPECT_TRUE(std::equal(big.begin(), big.end(), got->payload.begin() + 3));
  (*client)->Close();
  (*server)->Close();
}

TEST_F(TcpTransportTest, BorrowedTailFrameMatchesSerialize) {
  // A raw socket stands in for the fixture's peer so the test sees the
  // exact bytes the connection writes.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &len),
            0);
  auto client = TcpConnect("127.0.0.1", ntohs(addr.sin_port));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const int peer_fd = ::accept(listen_fd, nullptr, nullptr);
  ASSERT_GE(peer_fd, 0);

  std::vector<std::uint8_t> bulk(100000);
  for (std::size_t i = 0; i < bulk.size(); ++i) {
    bulk[i] = static_cast<std::uint8_t>(i * 7);
  }
  Message borrowed = Make(MsgType::kWriteBuffer, 77, {1, 2, 3});
  borrowed.session = 5;
  borrowed.tail = bulk;
  Message flat = borrowed;
  flat.tail = {};
  flat.payload.insert(flat.payload.end(), bulk.begin(), bulk.end());
  const std::vector<std::uint8_t> expected = flat.Serialize();

  // Sent from another thread: the frame exceeds what the socket buffers
  // hold before this thread reads.
  Status sent;
  std::thread sender([&] { sent = (*client)->Send(borrowed); });
  std::vector<std::uint8_t> wire(expected.size());
  std::size_t done = 0;
  while (done < wire.size()) {
    const ssize_t n = ::read(peer_fd, wire.data() + done, wire.size() - done);
    if (n <= 0) break;
    done += static_cast<std::size_t>(n);
  }
  sender.join();
  ASSERT_TRUE(sent.ok()) << sent.ToString();
  EXPECT_EQ(done, wire.size());
  EXPECT_EQ(wire, expected);

  (*client)->Close();
  ::close(peer_fd);
  ::close(listen_fd);
}

TEST_F(TcpTransportTest, ManyMessagesStayOrdered) {
  auto client = TcpConnect("127.0.0.1", listener_->port());
  ASSERT_TRUE(client.ok());
  auto server = accepted_.Pop();
  BlockingQueue<std::uint64_t> seqs;
  (*server)->Start([&](Message m) { seqs.Push(m.seq); });
  (*client)->Start([](Message) {});
  for (std::uint64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE((*client)
                    ->Send(Make(MsgType::kHeartbeat, i,
                                std::vector<std::uint8_t>(i % 97, 1)))
                    .ok());
  }
  for (std::uint64_t i = 0; i < 500; ++i) {
    EXPECT_EQ(*seqs.Pop(), i);
  }
  (*client)->Close();
  (*server)->Close();
}

TEST(TcpConnectTest, RefusedConnectionReported) {
  // Port 1 is essentially never listening.
  auto client = TcpConnect("127.0.0.1", 1);
  EXPECT_FALSE(client.ok());
  EXPECT_EQ(client.code(), ErrorCode::kNetworkError);
}

TEST(TcpConnectTest, BadAddressReported) {
  EXPECT_FALSE(TcpConnect("not-an-ip", 80).ok());
}

// ---- RPC -------------------------------------------------------------------

TEST(RpcTest, CallMatchesReplyBySeq) {
  auto [host_end, node_end] = CreateSimChannel();
  // Echo server: replies with the request seq and type kStatusReply.
  auto* node_raw = node_end.get();
  node_end->Start([node_raw](Message m) {
    Message reply;
    reply.type = MsgType::kStatusReply;
    reply.seq = m.seq;
    reply.payload = m.payload;
    (void)node_raw->Send(reply);
  });
  RpcClient client(std::move(host_end));

  // Issue out-of-order async calls; all must resolve.
  auto f1 = client.CallAsync(MsgType::kHeartbeat, 1, {1});
  auto f2 = client.CallAsync(MsgType::kHeartbeat, 1, {2});
  auto f3 = client.CallAsync(MsgType::kHeartbeat, 1, {3});
  EXPECT_EQ(f3->Wait().value().payload, (std::vector<std::uint8_t>{3}));
  EXPECT_EQ(f1->Wait().value().payload, (std::vector<std::uint8_t>{1}));
  EXPECT_EQ(f2->Wait().value().payload, (std::vector<std::uint8_t>{2}));
  client.Close();
  node_raw->Close();
}

TEST(RpcTest, TimeoutWhenNodeSilent) {
  auto [host_end, node_end] = CreateSimChannel();
  node_end->Start([](Message) { /* never reply */ });
  RpcClient client(std::move(host_end));
  auto reply = client.Call(MsgType::kHeartbeat, 1, {},
                           std::chrono::milliseconds(50));
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.code(), ErrorCode::kNetworkError);
  client.Close();
  node_end->Close();
}

// An RpcClient over links of either kind (GetParam: TCP) whose peer
// answers each request with the frames the test scripted for it.
class RpcLandingTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    ConnectionPtr host;
    if (GetParam()) {
      listener_ = std::make_unique<TcpListener>(0);
      ASSERT_TRUE(listener_
                      ->Start([this](ConnectionPtr c) {
                        accepted_.Push(std::move(c));
                      })
                      .ok());
      auto dialed = TcpConnect("127.0.0.1", listener_->port());
      ASSERT_TRUE(dialed.ok());
      host = *std::move(dialed);
      peer_ = *accepted_.Pop();
    } else {
      std::tie(host, peer_) = CreateSimChannel();
    }
    peer_->Start([this](Message request) {
      auto replies = script_.Pop();
      if (!replies.has_value()) return;
      // Frames with seq 0 answer this request; others keep their seq.
      for (Message& reply : *replies) {
        if (reply.seq == 0) reply.seq = request.seq;
        (void)peer_->Send(reply);
      }
    });
    client_ = std::make_unique<RpcClient>(std::move(host));
  }

  void TearDown() override {
    script_.Close();
    if (client_ != nullptr) client_->Close();
    if (peer_ != nullptr) peer_->Close();
    if (listener_ != nullptr) listener_->Stop();
  }

  static Message ReadReply(std::vector<std::uint8_t> bytes,
                           std::uint64_t seq = 0) {
    return Make(MsgType::kReadReply, seq, std::move(bytes));
  }

  Expected<Message> CallInto(std::span<std::uint8_t> dest) {
    return client_->Call(MsgType::kReadBuffer, 1, {},
                         RpcClient::kDefaultCallTimeout, {}, dest);
  }

  BlockingQueue<ConnectionPtr> accepted_;  // Outlives the accept thread.
  std::unique_ptr<TcpListener> listener_;
  ConnectionPtr peer_;
  BlockingQueue<std::vector<Message>> script_;
  std::unique_ptr<RpcClient> client_;
};

TEST_P(RpcLandingTest, ExactReadReplyLandsInItsDestination) {
  std::vector<std::uint8_t> dest(8, 0);
  script_.Push({ReadReply({1, 2, 3, 4, 5, 6, 7, 8})});
  auto reply = CallInto(dest);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, MsgType::kReadReply);
  EXPECT_TRUE(reply->payload.empty());
  EXPECT_EQ(reply->tail.data(), dest.data());
  EXPECT_EQ(reply->tail.size(), dest.size());
  EXPECT_EQ(dest, (std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST_P(RpcLandingTest, OtherRepliesArriveInPayload) {
  std::vector<std::uint8_t> dest(8, 0xCC);
  const std::vector<std::uint8_t> untouched = dest;
  // An orphan seq of exactly the destination's size first: no call owns
  // it, so it must not land; then an error status for the call itself.
  const std::vector<std::uint8_t> error =
      Encode(StatusReply::FromStatus(Status(ErrorCode::kInvalidValue, "no")));
  script_.Push({ReadReply(std::vector<std::uint8_t>(8, 0xEE), 999),
                Make(MsgType::kStatusReply, 0, error)});
  auto status = CallInto(dest);
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_EQ(status->type, MsgType::kStatusReply);
  EXPECT_EQ(status->payload, error);
  EXPECT_TRUE(status->tail.empty());
  EXPECT_EQ(dest, untouched);

  script_.Push({ReadReply({1, 2, 3, 4})});  // Wrong size.
  auto short_read = CallInto(dest);
  ASSERT_TRUE(short_read.ok()) << short_read.status().ToString();
  EXPECT_EQ(short_read->payload, (std::vector<std::uint8_t>{1, 2, 3, 4}));
  EXPECT_TRUE(short_read->tail.empty());
  EXPECT_EQ(dest, untouched);
}

INSTANTIATE_TEST_SUITE_P(Links, RpcLandingTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Tcp" : "Sim";
                         });

TEST(RpcTest, PeerClosingFailsPendingCallsOverTcp) {
  // The peer closes while a call with a long deadline is pending: the
  // call fails as soon as the connection ends, and so does every later
  // one.
  BlockingQueue<ConnectionPtr> accepted;  // Outlives the accept thread.
  TcpListener listener(0);
  ASSERT_TRUE(
      listener.Start([&](ConnectionPtr c) { accepted.Push(std::move(c)); })
          .ok());
  auto dialed = TcpConnect("127.0.0.1", listener.port());
  ASSERT_TRUE(dialed.ok());
  auto peer = accepted.Pop();
  ASSERT_TRUE(peer.has_value());
  BlockingQueue<bool> requested;
  (*peer)->Start([&](Message) { requested.Push(true); });
  RpcClient client(*std::move(dialed));
  std::thread closer([&] {
    requested.Pop();
    (*peer)->Close();
  });
  const auto start = std::chrono::steady_clock::now();
  auto reply = client.Call(MsgType::kHeartbeat, 1, {}, std::chrono::seconds(10));
  closer.join();
  EXPECT_EQ(reply.code(), ErrorCode::kNodeUnreachable);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  EXPECT_TRUE(client.ended());
  EXPECT_EQ(
      client.Call(MsgType::kHeartbeat, 1, {}, std::chrono::seconds(10)).code(),
      ErrorCode::kNodeUnreachable);
  client.Close();
  listener.Stop();
}

TEST(RpcTest, CloseFailsPendingCalls) {
  auto [host_end, node_end] = CreateSimChannel();
  node_end->Start([](Message) {});
  RpcClient client(std::move(host_end));
  auto pending = client.CallAsync(MsgType::kHeartbeat, 1, {});
  client.Close();
  EXPECT_FALSE(pending->Wait().ok());
  node_end->Close();
}

}  // namespace
}  // namespace haocl::net
