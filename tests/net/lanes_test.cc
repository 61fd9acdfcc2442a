// Lane tests: which transfers stripe, which connections can dial more
// lanes, and a striped transfer to a real node over TCP against one that
// cannot dial.
#include "net/lanes.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "net/sim_transport.h"
#include "net/tcp_transport.h"
#include "nmp/node_server.h"

namespace haocl::net {
namespace {

// One lane per hardware thread.
std::size_t HardwareLanes() {
  return std::max(1u, std::thread::hardware_concurrency());
}

TEST(LaneSetTest, ChunksFollowTheFloorAndTheLaneLimit) {
  LaneSet lanes(CreateSimChannel().first);
  const std::size_t most = HardwareLanes();
  EXPECT_EQ(lanes.ChunksFor(0), 1u);
  EXPECT_EQ(lanes.ChunksFor(2 * kLaneChunkFloor - 1), 1u);
  EXPECT_EQ(lanes.ChunksFor(2 * kLaneChunkFloor),
            std::min<std::size_t>(most, 2));
  EXPECT_EQ(lanes.ChunksFor(3 * kLaneChunkFloor + 17),
            std::min<std::size_t>(most, 3));
  EXPECT_EQ(lanes.ChunksFor(1024 * kLaneChunkFloor),
            std::min<std::size_t>(most, 1024));
}

TEST(LaneSetTest, OnlyADialedTcpConnectionDialsAgain) {
  TcpListener listener(0);
  BlockingQueue<ConnectionPtr> accepted;
  ASSERT_TRUE(
      listener.Start([&](ConnectionPtr c) { accepted.Push(std::move(c)); })
          .ok());
  auto dialed = TcpConnect("127.0.0.1", listener.port());
  ASSERT_TRUE(dialed.ok());
  auto server_end = accepted.Pop();
  ASSERT_TRUE(server_end.has_value());
  // The accepted end has no address to dial, nor has the in-process one.
  EXPECT_EQ((*server_end)->Dial().status().code(), ErrorCode::kUnimplemented);
  auto [sim_host, sim_node] = CreateSimChannel();
  EXPECT_EQ(sim_host->Dial().status().code(), ErrorCode::kUnimplemented);
  // The dialing end reaches the same listener again.
  auto again = (*dialed)->Dial();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(accepted.Pop().has_value());
  listener.Stop();
}

// A node served over `connect`, with one 8 MiB buffer in session 1.
struct ServedNode {
  std::unique_ptr<nmp::NodeServer> server;
  std::unique_ptr<LaneSet> lanes;
  static constexpr std::uint64_t kBytes = 8 * kLaneChunkFloor;

  void Start(ConnectionPtr host_end) {
    lanes = std::make_unique<LaneSet>(std::move(host_end));
    const CreateBufferRequest create{1, kBytes};
    ASSERT_TRUE(CheckReply(lanes->main().Call(MsgType::kCreateBuffer, 1,
                                              Encode(create)),
                           MsgType::kStatusReply)
                    .ok());
  }
  ~ServedNode() {
    if (lanes != nullptr) lanes->Close();
    if (server != nullptr) server->Shutdown();
  }
};

void WriteThenRead(LaneSet& lanes, std::size_t expect_chunks) {
  std::vector<std::uint8_t> bytes(ServedNode::kBytes);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 7 + (i >> 16));
  }
  const auto chunks =
      lanes.Write(1, 1, 0, bytes, RpcClient::kDefaultCallTimeout);
  ASSERT_EQ(chunks.size(), expect_chunks);
  std::uint64_t next = 0;
  for (const LaneSet::Chunk& chunk : chunks) {
    EXPECT_TRUE(chunk.status.ok()) << chunk.status.ToString();
    EXPECT_EQ(chunk.offset, next);
    next += chunk.size;
  }
  EXPECT_EQ(next, bytes.size());
  std::vector<std::uint8_t> back(bytes.size());
  ASSERT_TRUE(
      lanes.Read(1, 1, 0, back, RpcClient::kDefaultCallTimeout).ok());
  EXPECT_EQ(back, bytes);
}

TEST(LaneSetTest, StripesOverTcpAndCountsEveryLane) {
  ServedNode node;
  auto server = nmp::NodeServer::Create("gpu0", NodeType::kGpu);
  ASSERT_TRUE(server.ok());
  node.server = *std::move(server);
  TcpListener listener(0);
  nmp::NodeServer* raw = node.server.get();
  ASSERT_TRUE(
      listener.Start([raw](ConnectionPtr c) { raw->Serve(std::move(c)); })
          .ok());
  auto host_end = TcpConnect("127.0.0.1", listener.port());
  ASSERT_TRUE(host_end.ok());
  ASSERT_NO_FATAL_FAILURE(node.Start(*std::move(host_end)));
  const std::size_t lanes = std::min<std::size_t>(HardwareLanes(), 8);
  ASSERT_NO_FATAL_FAILURE(WriteThenRead(*node.lanes, lanes));
  EXPECT_EQ(node.lanes->lane_count(), lanes);
  // Each lane sent its chunk of the write, the main lane only its own.
  EXPECT_GT(node.lanes->bytes_sent(), ServedNode::kBytes);
  if (lanes > 1) {
    EXPECT_LT(node.lanes->main().bytes_sent(), ServedNode::kBytes / 2 + 4096);
  }
  node.lanes->Close();
  node.server->Shutdown();
  listener.Stop();
}

TEST(LaneSetTest, AConnectionThatCannotDialKeepsOneLane) {
  ServedNode node;
  auto server = nmp::NodeServer::Create("gpu0", NodeType::kGpu);
  ASSERT_TRUE(server.ok());
  node.server = *std::move(server);
  auto [host_end, node_end] = CreateSimChannel();
  node.server->Serve(std::move(node_end));
  ASSERT_NO_FATAL_FAILURE(node.Start(std::move(host_end)));
  // Until a transfer learns otherwise, the set answers as if it could
  // stripe; the first one finds it cannot and sends one frame.
  EXPECT_EQ(node.lanes->ChunksFor(ServedNode::kBytes),
            std::min<std::size_t>(HardwareLanes(), 8));
  ASSERT_NO_FATAL_FAILURE(WriteThenRead(*node.lanes, 1));
  EXPECT_EQ(node.lanes->ChunksFor(ServedNode::kBytes), 1u);
  EXPECT_EQ(node.lanes->lane_count(), 1u);
}

}  // namespace
}  // namespace haocl::net
