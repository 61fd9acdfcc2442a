// Session churn: ~1k short-lived host sessions against one TCP daemon.
// Every Disconnect must fully drain its server-side footprint — broker
// tenant entries and per-session device-memory ledgers both back to zero —
// or a long-lived node leaks a tenant per departed user.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "host/cluster_runtime.h"
#include "net/tcp_transport.h"
#include "nmp/node_server.h"

namespace haocl::host {
namespace {

TEST(SessionChurnTest, ThousandSessionsDrainBrokerAndLedger) {
  auto server = nmp::NodeServer::Create("gpu0", NodeType::kGpu);
  ASSERT_TRUE(server.ok());
  net::TcpListener listener(0);
  ASSERT_TRUE(listener
                  .Start([&](net::ConnectionPtr conn) {
                    (*server)->Serve(std::move(conn));
                  })
                  .ok());

  constexpr int kSessions = 1000;
  constexpr std::uint64_t kBytes = 4096;
  std::vector<std::uint8_t> data(kBytes);
  std::iota(data.begin(), data.end(), 0);
  for (int i = 0; i < kSessions; ++i) {
    auto connection = net::TcpConnect("127.0.0.1", listener.port());
    ASSERT_TRUE(connection.ok()) << "session " << i;
    std::vector<net::ConnectionPtr> connections;
    connections.push_back(*std::move(connection));
    ClusterRuntime::Options options;
    options.session_id = 1000 + i;  // Distinct tenant per session.
    options.tenant_name = "churn-" + std::to_string(i);
    auto runtime = ClusterRuntime::Connect(std::move(connections), options);
    ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
    auto buffer = (*runtime)->CreateBuffer(kBytes);
    ASSERT_TRUE(buffer.ok());
    ASSERT_TRUE(
        (*runtime)->WriteBuffer(*buffer, 0, data.data(), kBytes).ok());
    if (i % 20 == 0) {
      // Every 20th session also leaves device-resident bytes in its ledger
      // slice — a footprint only a clean teardown reclaims.
      auto program = (*runtime)->BuildProgram(R"(
        __kernel void bump(__global int* data, int n) {
          int i = get_global_id(0);
          if (i < n) data[i] = data[i] + 1;
        })");
      ASSERT_TRUE(program.ok()) << program.status().ToString();
      ClusterRuntime::LaunchSpec spec;
      spec.program = *program;
      spec.kernel_name = "bump";
      spec.args = {
          KernelArgValue::PartitionedBuffer(*buffer, 4),
          KernelArgValue::Scalar<std::int32_t>(
              static_cast<std::int32_t>(kBytes / 4))};
      spec.global[0] = kBytes / 4;
      spec.preferred_node = 0;
      ASSERT_TRUE((*runtime)->LaunchKernel(spec).ok()) << "session " << i;
      EXPECT_GT((*server)->bytes_resident(), 0u);
    }
    (*runtime)->Disconnect();
  }

  // The daemon outlived 1000 tenants: nothing left in the broker, nothing
  // resident in any session ledger. Disconnect closes a session with
  // one-way messages, so the node may still be tearing down the last one
  // when Disconnect returns; give it a bounded moment.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (((*server)->broker().AllTenants().size() != 0 ||
          (*server)->bytes_resident() != 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ((*server)->broker().AllTenants().size(), 0u)
      << "broker leaked tenant entries across session churn";
  EXPECT_EQ((*server)->bytes_resident(), 0u)
      << "device ledger leaked resident bytes across session churn";

  (*server)->Shutdown();
  listener.Stop();
}

}  // namespace
}  // namespace haocl::host
