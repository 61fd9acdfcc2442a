// Elastic execution against real NMP daemons over TCP sockets: chunked
// dispatch, heartbeats answered ahead of the worker queue, and a
// scripted mid-launch kill where the fault injector's hook actually
// tears the daemon down — the launch must still complete bit-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "driver/native_registry.h"
#include "elastic/fault_injector.h"
#include "host/cluster_runtime.h"
#include "net/tcp_transport.h"
#include "nmp/node_server.h"

namespace haocl::host {
namespace {

constexpr char kDoubler[] = R"(
  __kernel void doubler(__global int* data, int n) {
    int i = get_global_id(0);
    if (i < n) data[i] = data[i] * 2;
  })";

constexpr int kN = 1 << 18;  // 1 MiB of int32 — real bytes over loopback.

void RegisterNativeDoubler() {
  static bool once = [] {
    driver::NativeKernelRegistry::Instance().Register(
        "doubler", [](const std::vector<oclc::ArgBinding>& args,
                      const oclc::NDRange& range) {
          auto* data = reinterpret_cast<std::int32_t*>(args[0].data);
          const std::uint64_t limit = args[0].size / 4;
          const std::uint64_t begin = range.offset[0];
          const std::uint64_t end =
              std::min(limit, begin + range.global[0]);
          for (std::uint64_t i = begin; i < end; ++i) data[i] *= 2;
          return Status::Ok();
        });
    return true;
  }();
  (void)once;
}

// Three GPU daemons on real sockets plus a connected runtime.
struct TcpCluster {
  std::vector<std::unique_ptr<nmp::NodeServer>> servers;
  std::vector<std::unique_ptr<net::TcpListener>> listeners;
  std::unique_ptr<ClusterRuntime> runtime;

  static TcpCluster Make() {
    RegisterNativeDoubler();
    TcpCluster c;
    std::vector<net::ConnectionPtr> connections;
    for (int i = 0; i < 3; ++i) {
      auto server =
          nmp::NodeServer::Create("gpu" + std::to_string(i), NodeType::kGpu);
      EXPECT_TRUE(server.ok());
      c.servers.push_back(*std::move(server));
      c.listeners.push_back(std::make_unique<net::TcpListener>(0));
      nmp::NodeServer* raw = c.servers.back().get();
      EXPECT_TRUE(c.listeners.back()
                      ->Start([raw](net::ConnectionPtr conn) {
                        raw->Serve(std::move(conn));
                      })
                      .ok());
    }
    for (const auto& listener : c.listeners) {
      auto connection = net::TcpConnect("127.0.0.1", listener->port());
      EXPECT_TRUE(connection.ok());
      connections.push_back(*std::move(connection));
    }
    auto runtime = ClusterRuntime::Connect(std::move(connections), {});
    EXPECT_TRUE(runtime.ok()) << runtime.status().ToString();
    c.runtime = *std::move(runtime);
    EXPECT_TRUE(c.runtime->SetScheduler("hetero_split").ok());
    return c;
  }

  void Teardown() {
    runtime->Disconnect();
    for (auto& server : servers) server->Shutdown();
    for (auto& listener : listeners) listener->Stop();
  }
};

TEST(ElasticTcpTest, ChunkedLaunchOverRealSockets) {
  TcpCluster c = TcpCluster::Make();
  auto program = c.runtime->BuildProgram(kDoubler);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  auto buffer = c.runtime->CreateBuffer(kN * 4);
  ASSERT_TRUE(buffer.ok());
  std::vector<std::int32_t> values(kN);
  std::iota(values.begin(), values.end(), 1);
  ASSERT_TRUE(c.runtime->WriteBuffer(*buffer, 0, values.data(), kN * 4).ok());

  ClusterRuntime::LaunchSpec spec;
  spec.program = *program;
  spec.kernel_name = "doubler";
  spec.args = {KernelArgValue::PartitionedBuffer(*buffer, 4),
               KernelArgValue::Scalar<std::int32_t>(kN)};
  spec.global[0] = kN;
  ClusterRuntime::ElasticOptions options;
  options.heartbeat = true;  // Heartbeats ride the real control plane too.
  options.heartbeat_interval = std::chrono::milliseconds(0);
  spec.elastic = options;
  auto result = c.runtime->LaunchKernel(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GE(result->elastic->chunks_total, 3u);
  EXPECT_TRUE(result->elastic->dead_nodes.empty());

  std::vector<std::int32_t> got(kN);
  ASSERT_TRUE(c.runtime->ReadBuffer(*buffer, 0, got.data(), kN * 4).ok());
  for (int i = 0; i < kN; ++i) ASSERT_EQ(got[i], 2 * (i + 1));
  c.Teardown();
}

TEST(ElasticTcpTest, ScriptedKillOfRealDaemonCompletesBitIdentical) {
  TcpCluster c = TcpCluster::Make();
  auto program = c.runtime->BuildProgram(kDoubler);
  ASSERT_TRUE(program.ok());
  auto buffer = c.runtime->CreateBuffer(kN * 4);
  ASSERT_TRUE(buffer.ok());
  std::vector<std::int32_t> values(kN);
  std::iota(values.begin(), values.end(), 1);
  ASSERT_TRUE(c.runtime->WriteBuffer(*buffer, 0, values.data(), kN * 4).ok());

  // When node 1 has completed 2 chunks the injector kills it — and the
  // hook REALLY kills it: the daemon shuts down, so every later RPC to it
  // (pulls, probes) fails on a dead socket, not a simulation.
  elastic::FaultInjector faults;
  faults.ScriptKill(/*node=*/1, /*after_chunks=*/2);
  faults.SetKillHook([&](std::size_t node) { c.servers[node]->Shutdown(); });

  ClusterRuntime::LaunchSpec spec;
  spec.program = *program;
  spec.kernel_name = "doubler";
  spec.args = {KernelArgValue::PartitionedBuffer(*buffer, 4),
               KernelArgValue::Scalar<std::int32_t>(kN)};
  spec.global[0] = kN;
  ClusterRuntime::ElasticOptions options;
  options.chunk_rows = kN / 16;
  options.fault_injector = &faults;
  spec.elastic = options;
  auto result = c.runtime->LaunchKernel(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->elastic->dead_nodes.size(), 1u);
  EXPECT_EQ(result->elastic->dead_nodes[0], 1u);
  EXPECT_FALSE(c.runtime->NodeAlive(1));

  // Bit-identical to the no-failure run: every element doubled exactly
  // once, including the rows whose only fresh copy died with the daemon.
  std::vector<std::int32_t> got(kN);
  ASSERT_TRUE(c.runtime->ReadBuffer(*buffer, 0, got.data(), kN * 4).ok());
  for (int i = 0; i < kN; ++i) ASSERT_EQ(got[i], 2 * (i + 1));
  // Later work plans around the corpse.
  spec.elastic.emplace();
  auto again = c.runtime->LaunchKernel(spec);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_TRUE(c.runtime->ReadBuffer(*buffer, 0, got.data(), kN * 4).ok());
  for (int i = 0; i < kN; ++i) ASSERT_EQ(got[i], 4 * (i + 1));
  c.Teardown();
}

TEST(ElasticTcpTest, RevokeAndHeartbeatOvertakeBusyWorker) {
  // A heartbeat is answered on the receive path, ahead of the
  // per-connection inbox.
  auto server = nmp::NodeServer::Create("gpu0", NodeType::kGpu);
  ASSERT_TRUE(server.ok());
  net::TcpListener listener(0);
  ASSERT_TRUE(listener
                  .Start([&](net::ConnectionPtr conn) {
                    (*server)->Serve(std::move(conn));
                  })
                  .ok());
  auto connection = net::TcpConnect("127.0.0.1", listener.port());
  ASSERT_TRUE(connection.ok());
  net::RpcClient client(*std::move(connection));

  // A heartbeat answers immediately even with nothing else going on.
  auto beat = client.Call(net::MsgType::kHeartbeat, /*session=*/7, {});
  ASSERT_TRUE(beat.ok()) << beat.status().ToString();
  ASSERT_EQ(beat->type, net::MsgType::kStatusReply);
  auto decoded = net::Decode<net::StatusReply>(beat->payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->status_code, 0);

  client.Close();
  (*server)->Shutdown();
  listener.Stop();
}

}  // namespace
}  // namespace haocl::host
