// NMP protocol tests: the daemon over a raw connection — malformed frames,
// unknown message types, one-way traffic, TCP deployment, writes received
// straight into the replica, and shutdown.
#include "nmp/node_server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/sync.h"
#include "driver/native_registry.h"
#include "host/cluster_runtime.h"
#include "net/protocol.h"
#include "net/rpc.h"
#include "net/sim_transport.h"
#include "net/tcp_transport.h"

namespace haocl::nmp {
namespace {

using net::Message;
using net::MsgType;

class NodeServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto server = NodeServer::Create("gpu0", NodeType::kGpu);
    ASSERT_TRUE(server.ok());
    server_ = *std::move(server);
    auto [host_end, node_end] = net::CreateSimChannel();
    server_->Serve(std::move(node_end));
    client_ = std::make_unique<net::RpcClient>(std::move(host_end));
  }

  void TearDown() override {
    client_->Close();
    server_->Shutdown();
  }

  std::unique_ptr<NodeServer> server_;
  std::unique_ptr<net::RpcClient> client_;
};

TEST_F(NodeServerTest, HelloReportsDevice) {
  net::HelloRequest hello;
  hello.host_name = "test-host";
  auto reply = client_->Call(MsgType::kHelloRequest, 1, net::Encode(hello));
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->type, MsgType::kHelloReply);
  auto decoded = net::Decode<net::HelloReply>(reply->payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->node_name, "gpu0");
  EXPECT_EQ(decoded->device_type, NodeType::kGpu);
  EXPECT_GT(decoded->compute_gflops, 0.0);
}

TEST_F(NodeServerTest, MalformedPayloadGetsProtocolError) {
  Message bad;
  bad.type = MsgType::kCreateBuffer;
  bad.seq = 1;
  bad.payload = {1, 2};  // Too short for CreateBufferRequest.
  auto reply = client_->Call(MsgType::kCreateBuffer, 1, bad.payload);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->type, MsgType::kStatusReply);
  auto status = net::Decode<net::StatusReply>(reply->payload);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->ToStatus().code(), ErrorCode::kProtocolError);
}

TEST_F(NodeServerTest, UnknownMessageTypeRejected) {
  // 14 and 16 are the retired node-side copy and peer push of protocol
  // version 1, 23 the chunk revocation of version 2: a well-formed old
  // payload gets the same answer as garbage.
  const std::vector<std::uint8_t> old_payload(40, 0);
  for (std::uint16_t type : {14, 16, 23, 999}) {
    SCOPED_TRACE(type);
    auto reply =
        client_->Call(static_cast<MsgType>(type), 1, old_payload);
    ASSERT_TRUE(reply.ok());
    auto status = net::Decode<net::StatusReply>(reply->payload);
    ASSERT_TRUE(status.ok());
    EXPECT_EQ(status->ToStatus().code(), ErrorCode::kProtocolError);
  }
  // The node keeps serving.
  auto hello = client_->Call(MsgType::kHelloRequest, 1,
                             net::Encode(net::HelloRequest{}));
  ASSERT_TRUE(hello.ok());
  EXPECT_EQ(hello->type, MsgType::kHelloReply);
}

TEST_F(NodeServerTest, SessionsAreIndependent) {
  net::CreateBufferRequest create;
  create.buffer_id = 5;
  create.size = 64;
  // Session 1 creates buffer 5; creating it again in session 1 fails, but
  // session 2 may use the same id freely.
  auto r1 = client_->Call(MsgType::kCreateBuffer, 1, net::Encode(create));
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(net::Decode<net::StatusReply>(r1->payload)->ToStatus().ok());
  auto r2 = client_->Call(MsgType::kCreateBuffer, 1, net::Encode(create));
  EXPECT_FALSE(net::Decode<net::StatusReply>(r2->payload)->ToStatus().ok());
  auto r3 = client_->Call(MsgType::kCreateBuffer, 2, net::Encode(create));
  EXPECT_TRUE(net::Decode<net::StatusReply>(r3->payload)->ToStatus().ok());

  // Closing session 2 frees its resources; the id becomes reusable.
  auto closed = client_->Call(MsgType::kCloseSession, 2, {});
  ASSERT_TRUE(closed.ok());
  auto r4 = client_->Call(MsgType::kCreateBuffer, 2, net::Encode(create));
  EXPECT_TRUE(net::Decode<net::StatusReply>(r4->payload)->ToStatus().ok());
}

TEST_F(NodeServerTest, WrappingOffsetsRejectedWithoutCrash) {
  // offset + size wraps to a small value for these frames; the node must
  // answer kInvalidValue instead of touching memory out of bounds.
  constexpr std::uint64_t kHostile = ~0ULL - 1;
  for (std::uint64_t id : {1, 2}) {
    net::CreateBufferRequest create{id, 64};
    ASSERT_TRUE(
        client_->Call(MsgType::kCreateBuffer, 1, net::Encode(create)).ok());
  }
  auto status_of = [](const Expected<Message>& reply) {
    EXPECT_TRUE(reply.ok());
    EXPECT_EQ(reply->type, MsgType::kStatusReply);
    return net::Decode<net::StatusReply>(reply->payload)->ToStatus().code();
  };

  const std::vector<std::uint8_t> bytes(4, 0xEE);
  net::WriteBufferRequest write;
  write.buffer_id = 1;
  write.offset = kHostile;
  write.data = bytes;
  EXPECT_EQ(status_of(client_->Call(MsgType::kWriteBuffer, 1,
                                    net::Encode(write),
                                    net::RpcClient::kDefaultCallTimeout,
                                    write.data)),
            ErrorCode::kInvalidValue);

  net::ReadBufferRequest read{1, kHostile, 4};
  EXPECT_EQ(
      status_of(client_->Call(MsgType::kReadBuffer, 1, net::Encode(read))),
      ErrorCode::kInvalidValue);

  net::MemoryNoticeRequest notice;
  notice.buffer_id = 1;
  notice.reserve = true;
  notice.regions = {{kHostile, 4}};
  EXPECT_EQ(
      status_of(client_->Call(MsgType::kMemoryNotice, 1, net::Encode(notice))),
      ErrorCode::kInvalidValue);

  net::PullSliceRequest pull{1, kHostile, 4, 0};
  EXPECT_EQ(status_of(client_->Call(MsgType::kPullSlice, 1, net::Encode(pull))),
            ErrorCode::kInvalidValue);

  // The node is still serving and the buffer is untouched.
  net::ReadBufferRequest whole{1, 0, 64};
  auto data = client_->Call(MsgType::kReadBuffer, 1, net::Encode(whole));
  ASSERT_TRUE(data.ok());
  ASSERT_EQ(data->type, MsgType::kReadReply);
  EXPECT_EQ(data->payload, std::vector<std::uint8_t>(64, 0));
}

TEST_F(NodeServerTest, HostileElementCountRejectedWithoutCrash) {
  // Buffer id 1 and a reserve flag, then a region count of 2^32-1 with no
  // regions behind it: the decode must not size anything from the count.
  WireWriter notice;
  notice.WriteU64(1);
  notice.WriteBool(true);
  notice.WriteU32(0xFFFFFFFF);
  auto reply = client_->Call(MsgType::kMemoryNotice, 1, notice.bytes());
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->type, MsgType::kStatusReply);
  EXPECT_EQ(net::Decode<net::StatusReply>(reply->payload)->ToStatus().code(),
            ErrorCode::kProtocolError);

  net::HelloRequest hello;
  auto after = client_->Call(MsgType::kHelloRequest, 1, net::Encode(hello));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->type, MsgType::kHelloReply);
}

TEST_F(NodeServerTest, HelloWithOtherProtocolVersionRejected) {
  // An older peer (version 3, whose requests carry no after_seq) and a
  // newer one.
  for (std::uint32_t version :
       {net::kProtocolVersion - 1, net::kProtocolVersion + 1}) {
    SCOPED_TRACE(version);
    net::HelloRequest hello;
    hello.protocol_version = version;
    auto reply =
        client_->Call(MsgType::kHelloRequest, 1, net::Encode(hello));
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply->type, MsgType::kStatusReply);
    EXPECT_EQ(
        net::Decode<net::StatusReply>(reply->payload)->ToStatus().code(),
        ErrorCode::kProtocolError);
  }
}

TEST_F(NodeServerTest, InvalidWorkDimensionRejected) {
  // A native twin skips the VM and its 1..3 check; the session must catch
  // the bad work_dim before the driver indexes global[work_dim - 1].
  driver::NativeKernelRegistry::Instance().Register(
      "work_dim_probe",
      [](const std::vector<oclc::ArgBinding>&, const oclc::NDRange&) {
        return Status::Ok();
      });
  net::BuildProgramRequest build;
  build.program_id = 1;
  build.source = "__kernel void work_dim_probe(__global int* d) { d[0] = 1; }";
  auto built = client_->Call(MsgType::kBuildProgram, 1, net::Encode(build));
  ASSERT_TRUE(built.ok());
  ASSERT_EQ(net::Decode<net::BuildProgramReply>(built->payload)->status_code,
            0);
  net::CreateBufferRequest create{1, 64};
  ASSERT_TRUE(
      client_->Call(MsgType::kCreateBuffer, 1, net::Encode(create)).ok());

  net::LaunchKernelRequest launch;
  launch.program_id = 1;
  launch.kernel_name = "work_dim_probe";
  net::WireKernelArg arg;
  arg.kind = net::WireKernelArg::Kind::kBuffer;
  arg.buffer_id = 1;
  launch.args = {arg};
  launch.work_dim = 0xFFFFFFFF;
  auto reply = client_->Call(MsgType::kLaunchKernel, 1, net::Encode(launch));
  driver::NativeKernelRegistry::Instance().Unregister("work_dim_probe");
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->type, MsgType::kLaunchReply);
  EXPECT_EQ(net::Decode<net::LaunchKernelReply>(reply->payload)->status_code,
            static_cast<std::int32_t>(ErrorCode::kInvalidWorkDimension));
}

TEST_F(NodeServerTest, QueryLoadCounters) {
  auto reply = client_->Call(MsgType::kQueryLoad, 1, {});
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->type, MsgType::kLoadReply);
  auto load = net::Decode<net::LoadReply>(reply->payload);
  ASSERT_TRUE(load.ok());
  EXPECT_EQ(load->kernels_executed, 0u);

  net::CreateBufferRequest create;
  create.buffer_id = 1;
  create.size = 4096;
  ASSERT_TRUE(
      client_->Call(MsgType::kCreateBuffer, 1, net::Encode(create)).ok());
  reply = client_->Call(MsgType::kQueryLoad, 1, {});
  load = net::Decode<net::LoadReply>(reply->payload);
  ASSERT_TRUE(load.ok());
  EXPECT_EQ(load->buffers_held, 1u);
  EXPECT_EQ(load->bytes_allocated, 4096u);
}

TEST_F(NodeServerTest, OneWayMessagesGetNoReply) {
  // Notify (seq 0) must not generate a reply that would confuse the RPC
  // matcher; a subsequent call still works.
  ASSERT_TRUE(client_->Notify(MsgType::kOpenSession, 3, {}).ok());
  auto reply = client_->Call(MsgType::kQueryLoad, 3, {});
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, MsgType::kLoadReply);
}

TEST(NodeServerTcpTest, FullProtocolOverRealSockets) {
  // The same daemon served over genuine TCP: the two-process deployment
  // path, in-process for testability.
  auto server = NodeServer::Create("fpga0", NodeType::kFpga);
  ASSERT_TRUE(server.ok());
  net::TcpListener listener(0);
  BlockingQueue<net::ConnectionPtr> accepted;
  ASSERT_TRUE(listener
                  .Start([&](net::ConnectionPtr c) {
                    accepted.Push(std::move(c));
                  })
                  .ok());
  auto client_conn = net::TcpConnect("127.0.0.1", listener.port());
  ASSERT_TRUE(client_conn.ok());
  auto server_conn = accepted.Pop();
  ASSERT_TRUE(server_conn.has_value());
  (*server)->Serve(*std::move(server_conn));

  net::RpcClient client(*std::move(client_conn));
  net::HelloRequest hello;
  hello.host_name = "tcp-host";
  auto reply = client.Call(MsgType::kHelloRequest, 1, net::Encode(hello));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  auto decoded = net::Decode<net::HelloReply>(reply->payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->device_type, NodeType::kFpga);

  net::CreateBufferRequest create;
  create.buffer_id = 1;
  create.size = 1024;
  auto created = client.Call(MsgType::kCreateBuffer, 1, net::Encode(create));
  ASSERT_TRUE(created.ok());
  EXPECT_TRUE(net::Decode<net::StatusReply>(created->payload)->ToStatus().ok());

  const std::vector<std::uint8_t> bytes(1024, 0x5A);
  net::WriteBufferRequest write;
  write.buffer_id = 1;
  write.data = bytes;
  auto written = client.Call(MsgType::kWriteBuffer, 1, net::Encode(write),
                             net::RpcClient::kDefaultCallTimeout, write.data);
  ASSERT_TRUE(written.ok());
  EXPECT_TRUE(net::Decode<net::StatusReply>(written->payload)->ToStatus().ok());

  net::ReadBufferRequest read;
  read.buffer_id = 1;
  read.size = 1024;
  auto got = client.Call(MsgType::kReadBuffer, 1, net::Encode(read));
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->type, MsgType::kReadReply);
  EXPECT_EQ(got->payload, bytes);

  client.Close();
  (*server)->Shutdown();
  listener.Stop();
}

// Two NMP daemons on real TCP sockets that dial each other from the
// cluster configuration (the multi-machine deployment path), and a host
// runtime connected to both over TCP.
struct TcpPeerPair {
  std::unique_ptr<NodeServer> servers[2];
  std::unique_ptr<net::TcpListener> listeners[2];
  ClusterConfig config;
  std::unique_ptr<host::ClusterRuntime> runtime;

  void Start() {
    auto s0 = NodeServer::Create("gpu0", NodeType::kGpu);
    auto s1 = NodeServer::Create("cpu0", NodeType::kCpu);
    ASSERT_TRUE(s0.ok() && s1.ok());
    servers[0] = *std::move(s0);
    servers[1] = *std::move(s1);
    for (int i = 0; i < 2; ++i) {
      listeners[i] = std::make_unique<net::TcpListener>(0);
      NodeServer* server = servers[i].get();
      ASSERT_TRUE(listeners[i]
                      ->Start([server](net::ConnectionPtr c) {
                        server->Serve(std::move(c));
                      })
                      .ok());
    }
    config.AddNode({"gpu0", NodeType::kGpu, "127.0.0.1", listeners[0]->port()});
    config.AddNode({"cpu0", NodeType::kCpu, "127.0.0.1", listeners[1]->port()});
    ASSERT_TRUE(ConnectPeersFromConfig(*servers[0], 0, config).ok());
    ASSERT_TRUE(ConnectPeersFromConfig(*servers[1], 1, config).ok());
    std::vector<net::ConnectionPtr> connections;
    for (const auto& listener : listeners) {
      auto connection = net::TcpConnect("127.0.0.1", listener->port());
      ASSERT_TRUE(connection.ok());
      connections.push_back(*std::move(connection));
    }
    auto connected = host::ClusterRuntime::Connect(std::move(connections), {});
    ASSERT_TRUE(connected.ok()) << connected.status().ToString();
    runtime = *std::move(connected);
  }

  ~TcpPeerPair() {
    if (runtime != nullptr) runtime->Disconnect();
    for (auto& server : servers) {
      if (server != nullptr) server->Shutdown();
    }
    for (auto& listener : listeners) {
      if (listener != nullptr) listener->Stop();
    }
  }
};

constexpr char kSaxpySource[] = R"(
  __kernel void soak_saxpy(__global float* y, __global const float* x,
                           float a) {
    int i = get_global_id(0);
    y[i] = a * x[i] + y[i];
  })";

// perfbench's launch_small triple on node 0's queue, submitted as the
// OpenCL shim does: a non-blocking write, a launch ordered after it and a
// read ordered after the launch, then a wait on the read. Every 100th
// iteration of `gated` runs behind a user event.
void SoakLaunchSmall(host::ClusterRuntime& runtime, int iterations,
                     bool gated) {
  using host::CommandHandle;
  constexpr std::size_t kItems = 1024;
  constexpr std::size_t kBytes = kItems * sizeof(float);
  constexpr float kA = 0.5f;
  constexpr int kPool = 4;
  auto program = runtime.BuildProgram(kSaxpySource);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  auto x = runtime.CreateBuffer(kBytes);
  auto y = runtime.CreateBuffer(kBytes);
  ASSERT_TRUE(x.ok() && y.ok());
  std::vector<float> x_in(kItems);
  std::vector<std::vector<float>> y_in(kPool, std::vector<float>(kItems));
  std::vector<std::vector<float>> expected(kPool, std::vector<float>(kItems));
  for (std::size_t i = 0; i < kItems; ++i) x_in[i] = 0.125f * i;
  for (int p = 0; p < kPool; ++p) {
    for (std::size_t i = 0; i < kItems; ++i) {
      y_in[p][i] = static_cast<float>(p) - 0.25f * i;
      expected[p][i] = kA * x_in[i] + y_in[p][i];
    }
  }
  auto wrote_x = runtime.SubmitWrite(*x, 0, x_in.data(), kBytes, 0);
  ASSERT_TRUE(wrote_x.ok());
  ASSERT_TRUE(runtime.Wait(*wrote_x).ok());
  host::ClusterRuntime::LaunchSpec spec;
  spec.program = *program;
  spec.kernel_name = "soak_saxpy";
  spec.args = {host::KernelArgValue::Buffer(*y),
               host::KernelArgValue::Buffer(*x),
               host::KernelArgValue::Scalar<float>(kA)};
  spec.global[0] = kItems;
  spec.local[0] = 64;
  spec.local_specified = true;
  spec.preferred_node = 0;
  CommandHandle tail = *wrote_x;
  std::vector<float> out(kItems);
  for (int i = 0; i < iterations; ++i) {
    const int p = i % kPool;
    CommandHandle gate;
    std::vector<CommandHandle> deps;
    if (gated && i % 100 == 0) {
      auto marker = runtime.SubmitMarker();
      ASSERT_TRUE(marker.ok());
      gate = *marker;
      deps.push_back(gate);
    }
    auto write = runtime.SubmitWrite(*y, 0, y_in[p].data(), kBytes, 0, deps,
                                     {tail});
    ASSERT_TRUE(write.ok());
    auto launch = runtime.SubmitLaunch(spec, {}, {*write});
    ASSERT_TRUE(launch.ok());
    auto read = runtime.SubmitRead(*y, 0, out.data(), kBytes, {}, {*launch});
    ASSERT_TRUE(read.ok());
    if (gate.valid()) {
      ASSERT_TRUE(runtime.CompleteMarker(gate).ok());
      ASSERT_TRUE(runtime.ReleaseCommand(gate).ok());
    }
    ASSERT_TRUE(runtime.Wait(*read).ok()) << "iteration " << i;
    ASSERT_EQ(out, expected[p]) << "iteration " << i;
    for (const CommandHandle& done : {tail, *write, *launch}) {
      ASSERT_TRUE(runtime.ReleaseCommand(done).ok());
    }
    tail = *read;
  }
  ASSERT_TRUE(runtime.ReleaseCommand(tail).ok());
  ASSERT_TRUE(runtime.Finish().ok());
}

// The issue-ahead chain over real sockets, long enough to catch a lost
// wakeup: ctest's TIMEOUT fails a hang instead of stalling the job.
TEST(NodeServerTcpTest, LaunchSmallTripleSoaksOverRealSockets) {
  TcpPeerPair pair;
  ASSERT_NO_FATAL_FAILURE(pair.Start());
  ASSERT_NO_FATAL_FAILURE(
      SoakLaunchSmall(*pair.runtime, 10000, /*gated=*/false));
  ASSERT_NO_FATAL_FAILURE(
      SoakLaunchSmall(*pair.runtime, 10000, /*gated=*/true));
}

constexpr char kBumpSource[] = R"(
  __kernel void bump(__global int* data, int n) {
    int i = get_global_id(0);
    if (i < n) data[i] = data[i] + 1;
  })";

TEST(NodeServerTcpTest, PeersDialedFromClusterConfigExchangeSlices) {
  TcpPeerPair pair;
  ASSERT_NO_FATAL_FAILURE(pair.Start());
  // Self index out of range is rejected.
  EXPECT_FALSE(ConnectPeersFromConfig(*pair.servers[0], 5, pair.config).ok());

  // The host drives a producer/consumer chain: node 0 produces the
  // buffer, node 1's launch prologue pulls it directly over the dialed
  // peer link.
  host::ClusterRuntime& runtime = *pair.runtime;
  auto program = runtime.BuildProgram(kBumpSource);
  ASSERT_TRUE(program.ok());
  constexpr int kN = 512;
  auto buffer = runtime.CreateBuffer(kN * 4);
  ASSERT_TRUE(buffer.ok());
  std::vector<std::int32_t> values(kN, 1);
  ASSERT_TRUE(runtime.WriteBuffer(*buffer, 0, values.data(), kN * 4).ok());
  for (int node = 0; node < 2; ++node) {
    host::ClusterRuntime::LaunchSpec spec;
    spec.program = *program;
    spec.kernel_name = "bump";
    spec.args = {host::KernelArgValue::Buffer(*buffer),
                 host::KernelArgValue::Scalar<std::int32_t>(kN)};
    spec.global[0] = kN;
    spec.preferred_node = node;
    auto result = runtime.LaunchKernel(spec);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  std::vector<std::int32_t> readback(kN);
  ASSERT_TRUE(runtime.ReadBuffer(*buffer, 0, readback.data(), kN * 4).ok());
  for (std::int32_t v : readback) ASSERT_EQ(v, 3);
  // The second launch's input moved node 0 -> node 1 over the peer link:
  // real P2P payload, zero relay fallbacks.
  const host::TransferStats stats = runtime.transfer_stats();
  EXPECT_EQ(stats.p2p_bytes, static_cast<std::uint64_t>(kN) * 4);
  EXPECT_EQ(stats.relay_bytes, 0u);
  EXPECT_EQ(stats.relay_transfers, 0u);
}

TEST(NodeServerTcpTest, BulkBytesMoveBetweenCallerAndNodesInPlace) {
  // Multi-MiB payloads over real sockets, end to end: a write on node 0's
  // queue leaves from the caller's pointer and lands in node 0's replica,
  // a read lands in the caller's buffer, and node 1's launch pulls its
  // slice from node 0 straight into its own replica.
  TcpPeerPair pair;
  ASSERT_NO_FATAL_FAILURE(pair.Start());
  host::ClusterRuntime& runtime = *pair.runtime;
  auto program = runtime.BuildProgram(kBumpSource);
  ASSERT_TRUE(program.ok());
  constexpr std::uint64_t kN = 1 << 20;  // 4 MiB of ints.
  constexpr std::uint64_t kBytes = kN * 4;
  auto buffer = runtime.CreateBuffer(kBytes);
  ASSERT_TRUE(buffer.ok());
  std::vector<std::int32_t> values(kN);
  for (std::uint64_t i = 0; i < kN; ++i) {
    values[i] = static_cast<std::int32_t>(i * 2654435761u);
  }
  auto write = runtime.SubmitWrite(*buffer, 0, values.data(), kBytes, 0);
  ASSERT_TRUE(write.ok());
  ASSERT_TRUE(runtime.Wait(*write).ok());
  ASSERT_TRUE(runtime.ReleaseCommand(*write).ok());
  std::vector<std::int32_t> whole(kN);
  ASSERT_TRUE(runtime.ReadBuffer(*buffer, 0, whole.data(), kBytes).ok());
  EXPECT_EQ(whole, values);

  // Node 1 bumps the second quarter of the rows.
  constexpr std::uint64_t kFirst = kN / 4;
  constexpr std::uint64_t kCount = kN / 4;
  host::ClusterRuntime::LaunchSpec spec;
  spec.program = *program;
  spec.kernel_name = "bump";
  spec.args = {host::KernelArgValue::PartitionedBuffer(*buffer, 4),
               host::KernelArgValue::Scalar<std::int32_t>(
                   static_cast<std::int32_t>(kFirst + kCount))};
  spec.global[0] = kCount;
  spec.global_offset[0] = kFirst;
  spec.preferred_node = 1;
  auto result = runtime.LaunchKernel(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::vector<std::int32_t> produced(kCount);
  ASSERT_TRUE(runtime
                  .ReadBuffer(*buffer, kFirst * 4, produced.data(),
                              kCount * 4)
                  .ok());
  for (std::uint64_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(produced[i], values[kFirst + i] + 1) << "row " << kFirst + i;
  }
  const host::TransferStats stats = runtime.transfer_stats();
  EXPECT_EQ(stats.host_bytes_out, kBytes);
  EXPECT_EQ(stats.host_bytes_in, kBytes + kCount * 4);
  EXPECT_EQ(stats.p2p_bytes, kCount * 4);
  EXPECT_EQ(stats.relay_bytes, 0u);
}

TEST(NodeServerReleaseTest, ReleaseMidLaunchKeepsReplicaAlive) {
  // Two links to one node, one session: a release arriving on link B while
  // link A's kernel still writes the buffer must not free the bytes under
  // it. The native twin parks mid-launch until the release is answered,
  // then writes the whole buffer.
  constexpr std::uint64_t kSession = 7;
  Promise<bool> started;
  Promise<bool> released;
  driver::NativeKernelRegistry::Instance().Register(
      "scribble",
      [&](const std::vector<oclc::ArgBinding>& args, const oclc::NDRange&) {
        started.Set(true);
        released.Wait();
        std::fill_n(args[0].data, args[0].size, std::uint8_t{0x5A});
        return Status::Ok();
      });
  auto server = NodeServer::Create("gpu0", NodeType::kGpu);
  ASSERT_TRUE(server.ok());
  auto [a_host, a_node] = net::CreateSimChannel();
  auto [b_host, b_node] = net::CreateSimChannel();
  (*server)->Serve(std::move(a_node));
  (*server)->Serve(std::move(b_node));
  net::RpcClient a(std::move(a_host));
  net::RpcClient b(std::move(b_host));

  net::BuildProgramRequest build;
  build.program_id = 1;
  build.source = "__kernel void scribble(__global int* d) { d[0] = 1; }";
  ASSERT_TRUE(a.Call(MsgType::kBuildProgram, kSession, net::Encode(build)).ok());
  const net::CreateBufferRequest create{1, 4096};
  ASSERT_TRUE(
      a.Call(MsgType::kCreateBuffer, kSession, net::Encode(create)).ok());
  net::LaunchKernelRequest launch;
  launch.program_id = 1;
  launch.kernel_name = "scribble";
  net::WireKernelArg arg;
  arg.kind = net::WireKernelArg::Kind::kBuffer;
  arg.buffer_id = 1;
  launch.args = {arg};
  launch.global[0] = 1;
  auto launched =
      a.CallAsync(MsgType::kLaunchKernel, kSession, net::Encode(launch));
  ASSERT_TRUE(started.Wait());

  const net::ReleaseBufferRequest release{1};
  auto freed =
      b.Call(MsgType::kReleaseBuffer, kSession, net::Encode(release));
  released.Set(true);
  EXPECT_TRUE(net::CheckReply(freed, MsgType::kStatusReply).ok());
  const auto& reply = launched->Wait();
  driver::NativeKernelRegistry::Instance().Unregister("scribble");
  ASSERT_TRUE(net::CheckReply(reply, MsgType::kLaunchReply).ok());
  EXPECT_EQ(net::Decode<net::LaunchKernelReply>(reply->payload)->status_code,
            0);
  auto hello =
      a.Call(MsgType::kHelloRequest, kSession, net::Encode(net::HelloRequest{}));
  ASSERT_TRUE(hello.ok());
  EXPECT_EQ(hello->type, MsgType::kHelloReply);
  a.Close();
  b.Close();
  (*server)->Shutdown();
}

// A node behind links of either kind (GetParam: TCP), for the paths that
// receive a kWriteBuffer straight into the replica.
class NodeServerLandingTest : public ::testing::TestWithParam<bool> {
 protected:
  static constexpr std::uint64_t kSession = 1;
  using Bytes = std::vector<std::uint8_t>;

  void SetUp() override {
    auto server = NodeServer::Create("gpu0", NodeType::kGpu);
    ASSERT_TRUE(server.ok());
    server_ = *std::move(server);
    if (GetParam()) {
      listener_ = std::make_unique<net::TcpListener>(0);
      ASSERT_TRUE(listener_
                      ->Start([this](net::ConnectionPtr c) {
                        server_->Serve(std::move(c));
                      })
                      .ok());
      auto link = net::TcpConnect("127.0.0.1", listener_->port());
      ASSERT_TRUE(link.ok());
      client_ = std::make_unique<net::RpcClient>(*std::move(link));
    } else {
      auto [host_end, node_end] = net::CreateSimChannel();
      server_->Serve(std::move(node_end));
      client_ = std::make_unique<net::RpcClient>(std::move(host_end));
    }
  }

  void TearDown() override {
    if (client_ != nullptr) client_->Close();
    if (server_ != nullptr) server_->Shutdown();
    if (listener_ != nullptr) listener_->Stop();
  }

  Status Call(MsgType type, const Bytes& payload,
              std::span<const std::uint8_t> tail = {}) {
    return net::CheckReply(
        client_->Call(type, kSession, payload,
                      net::RpcClient::kDefaultCallTimeout, tail),
        MsgType::kStatusReply);
  }

  // A kWriteBuffer frame whose length prefix claims `claimed` bytes while
  // `data` follows it, issued behind `after_seq`.
  Status Write(std::uint64_t id, std::uint64_t offset, std::uint64_t claimed,
               const Bytes& data, std::uint64_t after_seq = 0) {
    WireWriter prefix;
    prefix.WriteU64(id);
    prefix.WriteU64(offset);
    prefix.WriteU64(after_seq);
    prefix.WriteU64(claimed);
    return Call(MsgType::kWriteBuffer, prefix.bytes(), data);
  }

  // Sends `payload` and returns the reply with the seq it went out as.
  std::pair<std::uint64_t, Expected<Message>> Numbered(MsgType type,
                                                       const Bytes& payload) {
    const std::uint64_t seq = client_->ReserveSeq();
    auto future = client_->CallAsync(type, kSession, payload, {}, {}, seq);
    return {seq,
            client_->Await(seq, future, net::RpcClient::kDefaultCallTimeout)};
  }

  Bytes Read(std::uint64_t id, std::uint64_t size) {
    const net::ReadBufferRequest read{id, 0, size};
    auto reply =
        client_->Call(MsgType::kReadBuffer, kSession, net::Encode(read));
    EXPECT_TRUE(net::CheckReply(reply, MsgType::kReadReply).ok());
    return reply.ok() ? reply->payload : Bytes{};
  }

  std::unique_ptr<NodeServer> server_;
  std::unique_ptr<net::TcpListener> listener_;
  std::unique_ptr<net::RpcClient> client_;
};

TEST_P(NodeServerLandingTest, HostileWritesGetTheCopyPathsStatus) {
  net::ConfigureSessionRequest tenant;
  tenant.tenant_name = "capped";
  tenant.mem_quota_bytes = 96;
  ASSERT_TRUE(Call(MsgType::kConfigureSession, net::Encode(tenant)).ok());
  for (std::uint64_t id : {1, 2}) {
    const net::CreateBufferRequest create{id, 64};
    ASSERT_TRUE(Call(MsgType::kCreateBuffer, net::Encode(create)).ok());
  }
  const Bytes before(64, 0x11);
  ASSERT_TRUE(Write(1, 0, 64, before).ok());
  ASSERT_EQ(Read(1, 64), before);

  struct Case {
    const char* what;
    std::uint64_t id;
    std::uint64_t offset;
    std::uint64_t claimed;
    std::size_t sent;
    ErrorCode code;
  };
  const Case cases[] = {
      {"unknown buffer", 9, 0, 16, 16, ErrorCode::kInvalidMemObject},
      {"past the end", 1, 56, 16, 16, ErrorCode::kInvalidValue},
      {"wrapping offset", 1, ~0ULL - 7, 16, 16, ErrorCode::kInvalidValue},
      {"prefix above the tail", 1, 0, 17, 16, ErrorCode::kProtocolError},
      {"prefix below the tail", 1, 0, 15, 16, ErrorCode::kProtocolError},
      // Buffer 1's 64 resident bytes + 48 exceed the 96-byte quota.
      {"over the quota", 2, 0, 48, 48,
       ErrorCode::kMemObjectAllocationFailure},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    EXPECT_EQ(Write(c.id, c.offset, c.claimed, Bytes(c.sent, 0xEE)).code(),
              c.code);
    EXPECT_EQ(Read(1, 64), before);
    EXPECT_EQ(Read(2, 64), Bytes(64, 0));
    EXPECT_TRUE(Call(MsgType::kHeartbeat, {}).ok());
  }
}

TEST_P(NodeServerLandingTest, WriteBehindUnansweredLaunchWaitsItsTurn) {
  // A peer link the test answers by hand: a PullSlice from it parks this
  // connection's worker, so what queues behind it is fixed by the queue,
  // not by timing.
  auto [node_end, peer_end] = net::CreateSimChannel();
  server_->ConnectPeer(1, std::move(node_end));
  BlockingQueue<Message> fetches;
  peer_end->Start([&](Message m) { fetches.Push(std::move(m)); });

  net::BuildProgramRequest build;
  build.program_id = 1;
  build.source = R"(
    __kernel void copy_words(__global const int* a, __global int* b) {
      int i = get_global_id(0);
      b[i] = a[i];
    })";
  auto built = client_->Call(MsgType::kBuildProgram, kSession,
                             net::Encode(build));
  ASSERT_TRUE(net::CheckReply(built, MsgType::kBuildReply).ok());
  for (std::uint64_t id : {1, 2, 3}) {
    const net::CreateBufferRequest create{id, 64};
    ASSERT_TRUE(Call(MsgType::kCreateBuffer, net::Encode(create)).ok());
  }
  const Bytes old_bytes(64, 0x11);
  ASSERT_TRUE(Write(1, 0, 64, old_bytes).ok());

  const net::PullSliceRequest pull{3, 0, 64, 1};
  auto pulled =
      client_->CallAsync(MsgType::kPullSlice, kSession, net::Encode(pull));
  auto fetch = fetches.Pop();  // The worker is parked in the pull.
  ASSERT_TRUE(fetch.has_value());
  net::LaunchKernelRequest launch;
  launch.program_id = 1;
  launch.kernel_name = "copy_words";
  for (std::uint64_t id : {1, 2}) {
    net::WireKernelArg arg;
    arg.kind = net::WireKernelArg::Kind::kBuffer;
    arg.buffer_id = id;
    launch.args.push_back(arg);
  }
  launch.global[0] = 16;
  auto launched =
      client_->CallAsync(MsgType::kLaunchKernel, kSession, net::Encode(launch));
  const Bytes new_bytes(64, 0x22);
  net::WriteBufferRequest write;
  write.buffer_id = 1;
  write.data = new_bytes;
  auto written = client_->CallAsync(MsgType::kWriteBuffer, kSession,
                                    net::Encode(write), write.data);
  // Heartbeats are answered on the receive path: once this one is, the
  // write frame has been received too.
  ASSERT_TRUE(Call(MsgType::kHeartbeat, {}).ok());

  Message slice;
  slice.type = MsgType::kReadReply;
  slice.seq = fetch->seq;
  slice.session = fetch->session;
  slice.payload = Bytes(64, 0x33);
  ASSERT_TRUE(peer_end->Send(slice).ok());
  EXPECT_TRUE(net::CheckReply(pulled->Wait(), MsgType::kStatusReply).ok());
  const auto& ran = launched->Wait();
  ASSERT_TRUE(net::CheckReply(ran, MsgType::kLaunchReply).ok());
  EXPECT_EQ(net::Decode<net::LaunchKernelReply>(ran->payload)->status_code, 0);
  EXPECT_TRUE(net::CheckReply(written->Wait(), MsgType::kStatusReply).ok());
  // The kernel read buffer 1 before the write queued behind it.
  EXPECT_EQ(Read(2, 64), old_bytes);
  EXPECT_EQ(Read(1, 64), new_bytes);
  EXPECT_EQ(Read(3, 64), Bytes(64, 0x33));
  peer_end->Close();
}

TEST_P(NodeServerLandingTest, PeerSliceLandsInTheReplicaAndAShortOneFails) {
  // A peer link the test answers by hand.
  auto [node_end, peer_end] = net::CreateSimChannel();
  server_->ConnectPeer(1, std::move(node_end));
  BlockingQueue<Message> fetches;
  peer_end->Start([&](Message m) { fetches.Push(std::move(m)); });
  const net::CreateBufferRequest create{1, 64};
  ASSERT_TRUE(Call(MsgType::kCreateBuffer, net::Encode(create)).ok());

  auto pull_answered_with = [&](const Bytes& slice) {
    const net::PullSliceRequest pull{1, 16, 32, 1};
    auto pulled =
        client_->CallAsync(MsgType::kPullSlice, kSession, net::Encode(pull));
    auto fetch = fetches.Pop();
    EXPECT_TRUE(fetch.has_value());
    if (!fetch.has_value()) return Status(ErrorCode::kInternal, "no fetch");
    EXPECT_EQ(fetch->type, MsgType::kReadBuffer);
    auto read = net::Decode<net::ReadBufferRequest>(fetch->payload);
    EXPECT_TRUE(read.ok());
    EXPECT_EQ(read->offset, 16u);
    EXPECT_EQ(read->size, 32u);
    Message reply;
    reply.type = MsgType::kReadReply;
    reply.seq = fetch->seq;
    reply.session = fetch->session;
    reply.payload = slice;
    EXPECT_TRUE(peer_end->Send(reply).ok());
    return net::CheckReply(pulled->Wait(), MsgType::kStatusReply);
  };
  EXPECT_TRUE(pull_answered_with(Bytes(32, 0x44)).ok());
  Bytes expected(64, 0);
  std::fill(expected.begin() + 16, expected.begin() + 48, 0x44);
  EXPECT_EQ(Read(1, 64), expected);
  // A short reply cannot land in the claimed range: the pull fails, the
  // replica keeps its bytes, and the node keeps serving.
  EXPECT_EQ(pull_answered_with(Bytes(31, 0x55)).code(),
            ErrorCode::kProtocolError);
  EXPECT_EQ(Read(1, 64), expected);
  EXPECT_TRUE(Call(MsgType::kHeartbeat, {}).ok());
  peer_end->Close();
}

TEST_P(NodeServerLandingTest, RequestsBehindAFailureAreSkippedUntouched) {
  const net::CreateBufferRequest create{1, 64};
  ASSERT_TRUE(Call(MsgType::kCreateBuffer, net::Encode(create)).ok());
  const Bytes before(64, 0x11);
  ASSERT_TRUE(Write(1, 0, 64, before).ok());

  // A read past the end fails, as request `failed`.
  const net::ReadBufferRequest past_end{1, 60, 16, 0};
  const auto [failed, refused] =
      Numbered(MsgType::kReadBuffer, net::Encode(past_end));
  ASSERT_EQ(net::CheckReply(refused, MsgType::kReadReply).code(),
            ErrorCode::kInvalidValue);

  // Requests issued behind it, or behind an earlier one, are answered
  // kDependencyFailed and run nothing: the write (which would land in the
  // replica, heading an idle connection) leaves the bytes as they were,
  // and the launch never reaches the session, which would have refused
  // its unknown program.
  const Bytes after(64, 0x22);
  for (std::uint64_t after_seq : {failed, failed - 1}) {
    SCOPED_TRACE(after_seq);
    EXPECT_EQ(Write(1, 0, 64, after, after_seq).code(),
              ErrorCode::kDependencyFailed);
    net::LaunchKernelRequest launch;
    launch.program_id = 99;
    launch.kernel_name = "missing";
    launch.after_seq = after_seq;
    EXPECT_EQ(net::CheckReply(client_->Call(MsgType::kLaunchKernel, kSession,
                                            net::Encode(launch)),
                              MsgType::kLaunchReply)
                  .code(),
              ErrorCode::kDependencyFailed);
    const net::ReadBufferRequest read{1, 0, 64, after_seq};
    EXPECT_EQ(net::CheckReply(client_->Call(MsgType::kReadBuffer, kSession,
                                            net::Encode(read)),
                              MsgType::kReadReply)
                  .code(),
              ErrorCode::kDependencyFailed);
  }
  EXPECT_EQ(Read(1, 64), before);
  EXPECT_EQ(server_->kernels_executed(), 0u);

  // Behind a request newer than every failure and skip, they run.
  const auto [fine, answered] = Numbered(
      MsgType::kReadBuffer, net::Encode(net::ReadBufferRequest{1, 0, 64, 0}));
  ASSERT_TRUE(net::CheckReply(answered, MsgType::kReadReply).ok());
  EXPECT_TRUE(Write(1, 0, 64, after, fine).ok());
  const net::ReadBufferRequest read{1, 0, 64, fine};
  auto got = client_->Call(MsgType::kReadBuffer, kSession, net::Encode(read));
  ASSERT_TRUE(net::CheckReply(got, MsgType::kReadReply).ok());
  EXPECT_EQ(got->payload, after);
}

INSTANTIATE_TEST_SUITE_P(Links, NodeServerLandingTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Tcp" : "Sim";
                         });

TEST(NodeServerTcpTest, WriteCutOffMidTailLeavesNodeServing) {
  constexpr std::uint64_t kSession = 1;
  auto server = NodeServer::Create("gpu0", NodeType::kGpu);
  ASSERT_TRUE(server.ok());
  net::TcpListener listener(0);
  ASSERT_TRUE(listener
                  .Start([&](net::ConnectionPtr c) {
                    (*server)->Serve(std::move(c));
                  })
                  .ok());
  auto link = net::TcpConnect("127.0.0.1", listener.port());
  ASSERT_TRUE(link.ok());
  net::RpcClient client(*std::move(link));
  for (std::uint64_t id : {1, 2}) {
    const net::CreateBufferRequest create{id, 64};
    ASSERT_TRUE(net::CheckReply(client.Call(MsgType::kCreateBuffer, kSession,
                                            net::Encode(create)),
                                MsgType::kStatusReply)
                    .ok());
  }

  // A second connection sends a kWriteBuffer for [16, 48) of buffer 2 and
  // hangs up halfway through its tail.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(listener.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::vector<std::uint8_t> data(32, 0xEE);
  net::WriteBufferRequest write;
  write.buffer_id = 2;
  write.offset = 16;
  write.data = data;
  Message frame;
  frame.type = MsgType::kWriteBuffer;
  frame.seq = 1;
  frame.session = kSession;
  frame.payload = net::Encode(write);
  frame.tail = data;
  const Message::HeaderBytes header = frame.EncodeHeader();
  ASSERT_EQ(::write(fd, header.data(), header.size()),
            static_cast<ssize_t>(header.size()));
  ASSERT_EQ(::write(fd, frame.payload.data(), frame.payload.size()),
            static_cast<ssize_t>(frame.payload.size()));
  ASSERT_EQ(::write(fd, data.data(), 16), 16);
  ::close(fd);

  // The claim charged the range before the tail broke off; it stays
  // reserved, its bytes unspecified.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((*server)->bytes_resident() < 32 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ((*server)->bytes_resident(), 32u);
  EXPECT_TRUE(net::CheckReply(client.Call(MsgType::kHeartbeat, kSession, {}),
                              MsgType::kStatusReply)
                  .ok());
  net::ReadBufferRequest read{2, 0, 64};
  auto got = client.Call(MsgType::kReadBuffer, kSession, net::Encode(read));
  ASSERT_TRUE(net::CheckReply(got, MsgType::kReadReply).ok());
  ASSERT_EQ(got->payload.size(), 64u);
  EXPECT_EQ(std::vector<std::uint8_t>(got->payload.begin(),
                                      got->payload.begin() + 16),
            std::vector<std::uint8_t>(16, 0));
  EXPECT_EQ(std::vector<std::uint8_t>(got->payload.begin() + 48,
                                      got->payload.end()),
            std::vector<std::uint8_t>(16, 0));
  read.buffer_id = 1;
  got = client.Call(MsgType::kReadBuffer, kSession, net::Encode(read));
  ASSERT_TRUE(net::CheckReply(got, MsgType::kReadReply).ok());
  EXPECT_EQ(got->payload, std::vector<std::uint8_t>(64, 0));
  client.Close();
  (*server)->Shutdown();
  listener.Stop();
}

TEST(NodeServerLifecycleTest, ShutdownIsIdempotentAndServesMultiple) {
  auto server = NodeServer::Create("cpu0", NodeType::kCpu);
  ASSERT_TRUE(server.ok());
  auto [h1, n1] = net::CreateSimChannel();
  auto [h2, n2] = net::CreateSimChannel();
  (*server)->Serve(std::move(n1));
  (*server)->Serve(std::move(n2));
  net::RpcClient c1(std::move(h1));
  net::RpcClient c2(std::move(h2));
  net::HelloRequest hello;
  EXPECT_TRUE(c1.Call(MsgType::kHelloRequest, 1, net::Encode(hello)).ok());
  EXPECT_TRUE(c2.Call(MsgType::kHelloRequest, 2, net::Encode(hello)).ok());
  c1.Close();
  c2.Close();
  (*server)->Shutdown();
  (*server)->Shutdown();  // Second shutdown is a no-op.
}

}  // namespace
}  // namespace haocl::nmp
