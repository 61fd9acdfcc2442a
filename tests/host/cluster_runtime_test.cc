// Full-stack integration: host runtime -> scheduler -> backbone -> NMP ->
// driver -> compiler/VM, over the in-process transport. Covers the device
// mapping, buffer coherence protocol, remote builds, scheduled launches,
// multi-user sessions, and node-failure behaviour.
#include "host/cluster_runtime.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <mutex>
#include <numeric>
#include <random>

#include "driver/device_driver.h"
#include "host/sim_cluster.h"
#include "net/sim_transport.h"
#include "nmp/node_server.h"
#include "workloads/workload.h"

namespace haocl::host {
namespace {

constexpr char kDoubler[] = R"(
  __kernel void doubler(__global int* data, int n) {
    int i = get_global_id(0);
    if (i < n) data[i] = data[i] * 2;
  })";

constexpr char kScaleConst[] = R"(
  __kernel void scale(__global const int* in, __global int* out, int n) {
    int i = get_global_id(0);
    if (i < n) out[i] = in[i] * 3;
  })";

class ClusterRuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workloads::RegisterAllNativeKernels();
    auto cluster = SimCluster::Create({.gpu_nodes = 2, .fpga_nodes = 1});
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = *std::move(cluster);
  }

  ClusterRuntime& runtime() { return cluster_->runtime(); }
  std::unique_ptr<SimCluster> cluster_;
};

TEST_F(ClusterRuntimeTest, HandshakeBuildsDeviceTable) {
  const auto& devices = runtime().devices();
  ASSERT_EQ(devices.size(), 3u);
  EXPECT_EQ(devices[0].type, NodeType::kGpu);
  EXPECT_EQ(devices[0].name, "gpu0");
  EXPECT_EQ(devices[2].type, NodeType::kFpga);
  EXPECT_EQ(devices[2].model, "Xilinx Virtex UltraScale+ VU9P");
  EXPECT_EQ(runtime().DevicesOfType(NodeType::kGpu).size(), 2u);
  EXPECT_EQ(runtime().DevicesOfType(NodeType::kFpga).size(), 1u);
}

TEST_F(ClusterRuntimeTest, BufferWriteReadRoundTrip) {
  auto buffer = runtime().CreateBuffer(1024);
  ASSERT_TRUE(buffer.ok());
  std::vector<std::uint8_t> data(1024);
  std::iota(data.begin(), data.end(), 0);
  ASSERT_TRUE(runtime().WriteBuffer(*buffer, 0, data.data(), 1024).ok());
  std::vector<std::uint8_t> back(1024);
  ASSERT_TRUE(runtime().ReadBuffer(*buffer, 0, back.data(), 1024).ok());
  EXPECT_EQ(back, data);
  ASSERT_TRUE(runtime().ReleaseBuffer(*buffer).ok());
  EXPECT_FALSE(runtime().ReadBuffer(*buffer, 0, back.data(), 1).ok());
}

TEST_F(ClusterRuntimeTest, RemoteLaunchMutatesRemoteBuffer) {
  auto program = runtime().BuildProgram(kDoubler);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const int n = 256;
  auto buffer = runtime().CreateBuffer(n * 4);
  ASSERT_TRUE(buffer.ok());
  std::vector<std::int32_t> values(n);
  std::iota(values.begin(), values.end(), 1);
  ASSERT_TRUE(
      runtime().WriteBuffer(*buffer, 0, values.data(), n * 4).ok());

  ClusterRuntime::LaunchSpec spec;
  spec.program = *program;
  spec.kernel_name = "doubler";
  spec.args = {KernelArgValue::Buffer(*buffer),
               KernelArgValue::Scalar<std::int32_t>(n)};
  spec.global[0] = n;
  spec.preferred_node = 1;
  auto result = runtime().LaunchKernel(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->node, 1u);
  EXPECT_GT(result->modeled_seconds, 0.0);
  EXPECT_EQ(result->bytes_shipped, static_cast<std::uint64_t>(n * 4));

  // Read gathers the data back from node 1 (host copy was invalidated).
  ASSERT_TRUE(runtime().ReadBuffer(*buffer, 0, values.data(), n * 4).ok());
  for (int i = 0; i < n; ++i) ASSERT_EQ(values[i], 2 * (i + 1));
}

TEST_F(ClusterRuntimeTest, ConstBuffersStayValidAcrossNodes) {
  auto program = runtime().BuildProgram(kScaleConst);
  ASSERT_TRUE(program.ok());
  const int n = 128;
  auto in = runtime().CreateBuffer(n * 4);
  auto out0 = runtime().CreateBuffer(n * 4);
  auto out1 = runtime().CreateBuffer(n * 4);
  ASSERT_TRUE(in.ok() && out0.ok() && out1.ok());
  std::vector<std::int32_t> values(n, 5);
  ASSERT_TRUE(runtime().WriteBuffer(*in, 0, values.data(), n * 4).ok());

  // Launch on node 0: ships `in` there.
  ClusterRuntime::LaunchSpec spec;
  spec.program = *program;
  spec.kernel_name = "scale";
  spec.args = {KernelArgValue::Buffer(*in), KernelArgValue::Buffer(*out0),
               KernelArgValue::Scalar<std::int32_t>(n)};
  spec.global[0] = n;
  spec.preferred_node = 0;
  auto first = runtime().LaunchKernel(spec);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->bytes_shipped, static_cast<std::uint64_t>(2 * n * 4));

  // Launch on node 1: `in` is const, so only out1 + in ship to node 1 —
  // but `in` was NOT invalidated by the first launch, so the host shadow
  // is still valid and no gather-from-node-0 is needed.
  spec.args[1] = KernelArgValue::Buffer(*out1);
  spec.preferred_node = 1;
  auto second = runtime().LaunchKernel(spec);
  ASSERT_TRUE(second.ok());

  // Re-launch on node 0: everything already valid there except out0
  // (written by launch 1 on node 0 - still valid on node 0). Zero bytes.
  spec.args[1] = KernelArgValue::Buffer(*out0);
  spec.preferred_node = 0;
  auto third = runtime().LaunchKernel(spec);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->bytes_shipped, 0u);

  std::vector<std::int32_t> got(n);
  ASSERT_TRUE(runtime().ReadBuffer(*out1, 0, got.data(), n * 4).ok());
  for (int i = 0; i < n; ++i) ASSERT_EQ(got[i], 15);
}

TEST_F(ClusterRuntimeTest, PartialWriteToRemoteOwnedBufferGathersFirst) {
  auto program = runtime().BuildProgram(kDoubler);
  ASSERT_TRUE(program.ok());
  const int n = 64;
  auto buffer = runtime().CreateBuffer(n * 4);
  ASSERT_TRUE(buffer.ok());
  std::vector<std::int32_t> values(n, 10);
  ASSERT_TRUE(runtime().WriteBuffer(*buffer, 0, values.data(), n * 4).ok());

  ClusterRuntime::LaunchSpec spec;
  spec.program = *program;
  spec.kernel_name = "doubler";
  spec.args = {KernelArgValue::Buffer(*buffer),
               KernelArgValue::Scalar<std::int32_t>(n)};
  spec.global[0] = n;
  spec.preferred_node = 0;
  ASSERT_TRUE(runtime().LaunchKernel(spec).ok());  // Buffer now = 20 on node0.

  // Partial write: must first gather the 20s, then overlay one element.
  const std::int32_t patch = 999;
  ASSERT_TRUE(runtime().WriteBuffer(*buffer, 4, &patch, 4).ok());
  std::vector<std::int32_t> got(n);
  ASSERT_TRUE(runtime().ReadBuffer(*buffer, 0, got.data(), n * 4).ok());
  EXPECT_EQ(got[0], 20);
  EXPECT_EQ(got[1], 999);
  EXPECT_EQ(got[2], 20);
}

TEST_F(ClusterRuntimeTest, BuildFailureSurfacesLog) {
  auto program = runtime().BuildProgram("__kernel void broken(");
  ASSERT_FALSE(program.ok());
  EXPECT_EQ(program.code(), ErrorCode::kBuildProgramFailure);
  EXPECT_FALSE(program.status().message().empty());
}

TEST_F(ClusterRuntimeTest, SchedulerPolicySwitching) {
  EXPECT_EQ(runtime().scheduler_name(), "user");
  ASSERT_TRUE(runtime().SetScheduler("roundrobin").ok());
  EXPECT_EQ(runtime().scheduler_name(), "roundrobin");
  EXPECT_FALSE(runtime().SetScheduler("bogus").ok());

  // Round robin spreads launches without explicit placement.
  auto program = runtime().BuildProgram(kDoubler);
  ASSERT_TRUE(program.ok());
  const int n = 16;
  std::vector<std::int32_t> values(n, 1);
  std::set<std::size_t> nodes_used;
  for (int i = 0; i < 6; ++i) {
    auto buffer = runtime().CreateBuffer(n * 4);
    ASSERT_TRUE(buffer.ok());
    ASSERT_TRUE(
        runtime().WriteBuffer(*buffer, 0, values.data(), n * 4).ok());
    ClusterRuntime::LaunchSpec spec;
    spec.program = *program;
    spec.kernel_name = "doubler";
    spec.args = {KernelArgValue::Buffer(*buffer),
                 KernelArgValue::Scalar<std::int32_t>(n)};
    spec.global[0] = n;
    spec.preferred_node = -1;  // Let the policy place it.
    auto result = runtime().LaunchKernel(spec);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    nodes_used.insert(result->node);
  }
  // "doubler" has no pre-built FPGA bitstream, so the scheduler must keep
  // it off the FPGA node and rotate over the two GPU nodes only.
  EXPECT_EQ(nodes_used, (std::set<std::size_t>{0, 1}));
}

TEST_F(ClusterRuntimeTest, MonitorReportsPerNodeCounters) {
  auto program = runtime().BuildProgram(kDoubler);
  ASSERT_TRUE(program.ok());
  const int n = 16;
  auto buffer = runtime().CreateBuffer(n * 4);
  std::vector<std::int32_t> values(n, 1);
  ASSERT_TRUE(runtime().WriteBuffer(*buffer, 0, values.data(), n * 4).ok());
  ClusterRuntime::LaunchSpec spec;
  spec.program = *program;
  spec.kernel_name = "doubler";
  spec.args = {KernelArgValue::Buffer(*buffer),
               KernelArgValue::Scalar<std::int32_t>(n)};
  spec.global[0] = n;
  spec.preferred_node = 1;
  ASSERT_TRUE(runtime().LaunchKernel(spec).ok());

  auto view = runtime().QueryClusterView();
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view->nodes.size(), 3u);
  EXPECT_EQ(view->nodes[1].kernels_executed, 1u);
  EXPECT_EQ(view->nodes[0].kernels_executed, 0u);
  EXPECT_TRUE(view->nodes[2].alive);
}

TEST_F(ClusterRuntimeTest, MultiUserSessionsAreIsolated) {
  // Second host session against the same NMPs: same buffer ids in two
  // sessions must not collide (the paper's multi-user requirement).
  RuntimeOptions options;
  options.session_id = 2;
  auto second = cluster_->ConnectSecondSession(options);
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  auto b1 = runtime().CreateBuffer(16);
  auto b2 = (*second)->CreateBuffer(16);
  ASSERT_TRUE(b1.ok() && b2.ok());
  EXPECT_EQ(*b1, *b2);  // Same logical id in both sessions.

  auto program1 = runtime().BuildProgram(kDoubler);
  auto program2 = (*second)->BuildProgram(kDoubler);
  ASSERT_TRUE(program1.ok() && program2.ok());

  const std::int32_t v1 = 100;
  const std::int32_t v2 = 777;
  std::vector<std::int32_t> init1(4, v1);
  std::vector<std::int32_t> init2(4, v2);
  ASSERT_TRUE(runtime().WriteBuffer(*b1, 0, init1.data(), 16).ok());
  ASSERT_TRUE((*second)->WriteBuffer(*b2, 0, init2.data(), 16).ok());

  ClusterRuntime::LaunchSpec spec;
  spec.kernel_name = "doubler";
  spec.global[0] = 4;
  spec.preferred_node = 0;
  spec.program = *program1;
  spec.args = {KernelArgValue::Buffer(*b1),
               KernelArgValue::Scalar<std::int32_t>(4)};
  ASSERT_TRUE(runtime().LaunchKernel(spec).ok());
  spec.program = *program2;
  spec.args = {KernelArgValue::Buffer(*b2),
               KernelArgValue::Scalar<std::int32_t>(4)};
  ASSERT_TRUE((*second)->LaunchKernel(spec).ok());

  std::vector<std::int32_t> got(4);
  ASSERT_TRUE(runtime().ReadBuffer(*b1, 0, got.data(), 16).ok());
  EXPECT_EQ(got[0], 200);
  ASSERT_TRUE((*second)->ReadBuffer(*b2, 0, got.data(), 16).ok());
  EXPECT_EQ(got[0], 1554);
  (*second)->Disconnect();
}

TEST_F(ClusterRuntimeTest, VirtualTimelineAccumulatesPhases) {
  auto program = runtime().BuildProgram(kDoubler);
  ASSERT_TRUE(program.ok());
  runtime().timeline().Reset();
  const int n = 4096;
  auto buffer = runtime().CreateBuffer(n * 4);
  std::vector<std::int32_t> values(n, 1);
  ASSERT_TRUE(runtime().WriteBuffer(*buffer, 0, values.data(), n * 4).ok());
  ClusterRuntime::LaunchSpec spec;
  spec.program = *program;
  spec.kernel_name = "doubler";
  spec.args = {KernelArgValue::Buffer(*buffer),
               KernelArgValue::Scalar<std::int32_t>(n)};
  spec.global[0] = n;
  spec.preferred_node = 0;
  ASSERT_TRUE(runtime().LaunchKernel(spec).ok());
  ASSERT_TRUE(runtime().ReadBuffer(*buffer, 0, values.data(), n * 4).ok());

  const auto& phases = runtime().timeline().phases();
  EXPECT_GT(phases.Get(kPhaseDataTransfer), 0.0);  // Scatter + gather.
  EXPECT_GT(phases.Get(kPhaseCompute), 0.0);
  EXPECT_GE(runtime().timeline().Makespan(),
            phases.Get(kPhaseCompute));
  EXPECT_GT(runtime().TotalBytesSent(), static_cast<std::uint64_t>(n * 4));
}

// ---- Asynchronous Submit* surface ----------------------------------------

TEST_F(ClusterRuntimeTest, MarkerGateDefersSubmittedCommands) {
  auto buffer = runtime().CreateBuffer(16);
  ASSERT_TRUE(buffer.ok());
  auto gate = runtime().SubmitMarker();
  ASSERT_TRUE(gate.ok());

  const std::int32_t payload[4] = {7, 8, 9, 10};
  auto write = runtime().SubmitWrite(*buffer, 0, payload, 16,
                                     ClusterRuntime::kClusterDevice, {*gate});
  ASSERT_TRUE(write.ok());
  // Deterministic deferral: the gate is unresolved, so the write cannot
  // leave the queued state no matter how long the dispatcher spins.
  EXPECT_EQ(*runtime().CommandStateOf(*write), CommandState::kQueued);

  ASSERT_TRUE(runtime().CompleteMarker(*gate).ok());
  ASSERT_TRUE(runtime().Wait(*write).ok());
  EXPECT_EQ(*runtime().CommandStateOf(*write), CommandState::kComplete);

  std::int32_t got[4] = {};
  ASSERT_TRUE(runtime().ReadBuffer(*buffer, 0, got, 16).ok());
  EXPECT_EQ(got[3], 10);
}

TEST_F(ClusterRuntimeTest, ImplicitHazardsOrderConflictingCommands) {
  // Submit write -> launch -> read with NO explicit dependencies; the
  // runtime's per-buffer hazard tracking must serialize them correctly.
  auto program = runtime().BuildProgram(kDoubler);
  ASSERT_TRUE(program.ok());
  const int n = 64;
  auto buffer = runtime().CreateBuffer(n * 4);
  ASSERT_TRUE(buffer.ok());
  std::vector<std::int32_t> values(n, 21);

  auto write = runtime().SubmitWrite(*buffer, 0, values.data(), n * 4);
  ASSERT_TRUE(write.ok());
  ClusterRuntime::LaunchSpec spec;
  spec.program = *program;
  spec.kernel_name = "doubler";
  spec.args = {KernelArgValue::Buffer(*buffer),
               KernelArgValue::Scalar<std::int32_t>(n)};
  spec.global[0] = n;
  spec.preferred_node = 0;
  auto launch = runtime().SubmitLaunch(spec);
  ASSERT_TRUE(launch.ok());
  std::vector<std::int32_t> got(n, 0);
  auto read = runtime().SubmitRead(*buffer, 0, got.data(), n * 4);
  ASSERT_TRUE(read.ok());

  ASSERT_TRUE(runtime().Wait(*read).ok());
  for (int i = 0; i < n; ++i) ASSERT_EQ(got[i], 42);

  auto result = runtime().LaunchResultOf(*launch);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->node, 0u);
  EXPECT_GT(result->modeled_seconds, 0.0);
}

TEST_F(ClusterRuntimeTest, FailedMarkerFailsDependents) {
  auto buffer = runtime().CreateBuffer(16);
  ASSERT_TRUE(buffer.ok());
  auto gate = runtime().SubmitMarker();
  ASSERT_TRUE(gate.ok());
  const std::int32_t payload[4] = {1, 2, 3, 4};
  auto write = runtime().SubmitWrite(*buffer, 0, payload, 16,
                                     ClusterRuntime::kClusterDevice, {*gate});
  ASSERT_TRUE(write.ok());

  ASSERT_TRUE(runtime()
                  .CompleteMarker(*gate,
                                  Status(ErrorCode::kInternal, "aborted"))
                  .ok());
  EXPECT_EQ(runtime().Wait(*write).code(), ErrorCode::kDependencyFailed);

  // The buffer is untouched: a fresh read sees the zero-fill.
  std::int32_t got[4] = {9, 9, 9, 9};
  ASSERT_TRUE(runtime().ReadBuffer(*buffer, 0, got, 16).ok());
  EXPECT_EQ(got[0], 0);
}

TEST_F(ClusterRuntimeTest, SubmitValidatesAtEnqueueTime) {
  auto buffer = runtime().CreateBuffer(16);
  ASSERT_TRUE(buffer.ok());
  EXPECT_EQ(runtime().SubmitWrite(*buffer, 12, "xxxxxxxx", 8).code(),
            ErrorCode::kInvalidValue);
  for (int node : {-2, static_cast<int>(runtime().devices().size())}) {
    EXPECT_EQ(runtime().SubmitWrite(*buffer, 0, "xxxx", 4, node).code(),
              ErrorCode::kInvalidValue)
        << "node " << node;
  }
  std::int32_t sink;
  EXPECT_EQ(runtime().SubmitRead(999, 0, &sink, 4).code(),
            ErrorCode::kInvalidMemObject);
  ClusterRuntime::LaunchSpec spec;
  spec.program = 999;
  spec.kernel_name = "nope";
  EXPECT_EQ(runtime().SubmitLaunch(spec).code(), ErrorCode::kInvalidProgram);
}

// The acceptance test for the dispatch redesign: two independent launches
// aimed at distinct nodes are IN FLIGHT CONCURRENTLY — visible both in the
// graph's peak-running watermark and in overlapping virtual-time spans.
TEST_F(ClusterRuntimeTest, IndependentLaunchesOverlapAcrossNodes) {
  constexpr char kHeavy[] = R"(
    __kernel void heavy(__global int* data, int n) {
      int i = get_global_id(0);
      int acc = 0;
      for (int k = 0; k < 2000; ++k) acc += k ^ i;
      if (i < n) data[i] = acc;
    })";
  auto program = runtime().BuildProgram(kHeavy);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const int n = 512;
  auto buffer0 = runtime().CreateBuffer(n * 4);
  auto buffer1 = runtime().CreateBuffer(n * 4);
  ASSERT_TRUE(buffer0.ok() && buffer1.ok());

  // Release both launches from one gate so they become ready on the same
  // graph tick, then let the per-node RPC pipelines race.
  auto gate = runtime().SubmitMarker();
  ASSERT_TRUE(gate.ok());
  ClusterRuntime::LaunchSpec spec;
  spec.program = *program;
  spec.kernel_name = "heavy";
  spec.global[0] = n;
  // Analytic hint: make the modeled kernel long relative to its input
  // transfer, so concurrent dispatch must show up as overlapping spans.
  sim::KernelCost cost;
  cost.flops = 5e10;
  cost.bytes = static_cast<double>(n) * 4;
  cost.work_items = n;
  spec.cost_hint = cost;
  spec.args = {KernelArgValue::Buffer(*buffer0),
               KernelArgValue::Scalar<std::int32_t>(n)};
  spec.preferred_node = 0;
  auto launch0 = runtime().SubmitLaunch(spec, {*gate});
  spec.args[0] = KernelArgValue::Buffer(*buffer1);
  spec.preferred_node = 1;
  auto launch1 = runtime().SubmitLaunch(spec, {*gate});
  ASSERT_TRUE(launch0.ok() && launch1.ok());

  ASSERT_TRUE(runtime().CompleteMarker(*gate).ok());
  ASSERT_TRUE(runtime().Wait(*launch0).ok());
  ASSERT_TRUE(runtime().Wait(*launch1).ok());

  // Both commands held workers simultaneously...
  EXPECT_GE(runtime().graph().PeakRunning(), 2u);
  // ...and their modeled kernel spans overlap on the virtual timeline
  // (distinct nodes have independent device resources).
  auto p0 = runtime().CommandProfileOf(*launch0);
  auto p1 = runtime().CommandProfileOf(*launch1);
  ASSERT_TRUE(p0.ok() && p1.ok());
  auto r0 = runtime().LaunchResultOf(*launch0);
  auto r1 = runtime().LaunchResultOf(*launch1);
  ASSERT_TRUE(r0.ok() && r1.ok());
  EXPECT_NE(r0->node, r1->node);
  const double start0 = r0->virtual_completion - r0->modeled_seconds;
  const double start1 = r1->virtual_completion - r1->modeled_seconds;
  EXPECT_LT(start0, r1->virtual_completion);
  EXPECT_LT(start1, r0->virtual_completion);

  // Nothing left in flight once everything retired.
  EXPECT_EQ(runtime().InFlightOn(0), 0u);
  EXPECT_EQ(runtime().InFlightOn(1), 0u);
}

// ---- Placement-plan fan-out ----------------------------------------------

// One matmul kernel over whole matrices, rows on dimension 0 (the
// dimension placement plans shard). Reuses the MatrixMul workload's
// kernel so the FPGA node is eligible through its native "bitstream".
std::string MatmulSource() {
  return workloads::MakeMatrixMul()->kernel_source();
}

ClusterRuntime::LaunchSpec MatmulSpec(ProgramId program, int n,
                                      BufferId a, BufferId b, BufferId c) {
  ClusterRuntime::LaunchSpec spec;
  spec.program = program;
  spec.kernel_name = "matmul_partition";
  const std::uint64_t row_bytes = static_cast<std::uint64_t>(n) * 4;
  spec.args = {KernelArgValue::PartitionedBuffer(a, row_bytes),
               KernelArgValue::Buffer(b),
               KernelArgValue::PartitionedBuffer(c, row_bytes),
               KernelArgValue::Scalar<std::int32_t>(n),
               KernelArgValue::Scalar<std::int32_t>(n)};
  spec.work_dim = 2;
  spec.global[0] = static_cast<std::uint64_t>(n);  // Rows.
  spec.global[1] = static_cast<std::uint64_t>(n);
  return spec;
}

TEST_F(ClusterRuntimeTest, PartitionedMatmulBitIdenticalToSingleNode) {
  const int n = 96;
  auto program = runtime().BuildProgram(MatmulSource());
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  std::vector<float> a(static_cast<std::size_t>(n) * n);
  std::vector<float> b(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>((i * 37 % 200) - 100) / 50.0f;
    b[i] = static_cast<float>((i * 53 % 200) - 100) / 50.0f;
  }
  auto a_buf = runtime().CreateBuffer(a.size() * 4);
  auto b_buf = runtime().CreateBuffer(b.size() * 4);
  auto c_single = runtime().CreateBuffer(a.size() * 4);
  auto c_split = runtime().CreateBuffer(a.size() * 4);
  ASSERT_TRUE(a_buf.ok() && b_buf.ok() && c_single.ok() && c_split.ok());
  ASSERT_TRUE(runtime().WriteBuffer(*a_buf, 0, a.data(), a.size() * 4).ok());
  ASSERT_TRUE(runtime().WriteBuffer(*b_buf, 0, b.data(), b.size() * 4).ok());

  // Reference: the classic single-node path (user-directed, node 0).
  ClusterRuntime::LaunchSpec spec =
      MatmulSpec(*program, n, *a_buf, *b_buf, *c_single);
  spec.preferred_node = 0;
  auto single = runtime().LaunchKernel(spec);
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  EXPECT_EQ(single->shard_count, 1u);

  // Co-executed: one launch split across the 3-node cluster.
  ASSERT_TRUE(runtime().SetScheduler("hetero_split").ok());
  spec = MatmulSpec(*program, n, *a_buf, *b_buf, *c_split);
  auto handle = runtime().SubmitLaunch(spec);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  ASSERT_TRUE(runtime().Wait(*handle).ok());
  auto aggregate = runtime().LaunchResultOf(*handle);
  auto shards = runtime().LaunchShardsOf(*handle);
  ASSERT_TRUE(aggregate.ok() && shards.ok());
  EXPECT_GE(aggregate->shard_count, 2u);
  EXPECT_EQ(shards->size(), aggregate->shard_count);
  std::set<std::size_t> nodes_used;
  for (const CommandHandle& shard : *shards) {
    auto result = runtime().LaunchResultOf(shard);
    ASSERT_TRUE(result.ok());
    nodes_used.insert(result->node);
  }
  EXPECT_GE(nodes_used.size(), 2u);

  std::vector<float> got_single(a.size());
  std::vector<float> got_split(a.size());
  ASSERT_TRUE(runtime()
                  .ReadBuffer(*c_single, 0, got_single.data(),
                              got_single.size() * 4)
                  .ok());
  ASSERT_TRUE(runtime()
                  .ReadBuffer(*c_split, 0, got_split.data(),
                              got_split.size() * 4)
                  .ok());
  EXPECT_EQ(std::memcmp(got_single.data(), got_split.data(),
                        got_single.size() * 4),
            0);
  ASSERT_TRUE(runtime().ReleaseCommand(*handle).ok());
}

TEST_F(ClusterRuntimeTest, PartitionedSpmvBitIdenticalToSingleNode) {
  auto spmv = workloads::MakeSpmv();
  auto program = runtime().BuildProgram(spmv->kernel_source());
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const int rows = 512;
  // Deterministic CSR: 4 nonzeros per row.
  std::vector<std::int32_t> row_ptr(rows + 1);
  std::vector<std::int32_t> col_idx;
  std::vector<float> values;
  std::vector<float> x(rows);
  for (int r = 0; r < rows; ++r) {
    row_ptr[r + 1] = row_ptr[r] + 4;
    for (int i = 0; i < 4; ++i) {
      col_idx.push_back((r * 7 + i * 131) % rows);
      values.push_back(static_cast<float>((r + i) % 17) / 8.0f - 1.0f);
    }
    x[r] = static_cast<float>(r % 29) / 14.0f - 1.0f;
  }
  auto rp = runtime().CreateBuffer(row_ptr.size() * 4);
  auto ci = runtime().CreateBuffer(col_idx.size() * 4);
  auto va = runtime().CreateBuffer(values.size() * 4);
  auto xb = runtime().CreateBuffer(x.size() * 4);
  auto y_single = runtime().CreateBuffer(static_cast<std::uint64_t>(rows) * 4);
  auto y_split = runtime().CreateBuffer(static_cast<std::uint64_t>(rows) * 4);
  ASSERT_TRUE(rp.ok() && ci.ok() && va.ok() && xb.ok() && y_single.ok() &&
              y_split.ok());
  ASSERT_TRUE(
      runtime().WriteBuffer(*rp, 0, row_ptr.data(), row_ptr.size() * 4).ok());
  ASSERT_TRUE(
      runtime().WriteBuffer(*ci, 0, col_idx.data(), col_idx.size() * 4).ok());
  ASSERT_TRUE(
      runtime().WriteBuffer(*va, 0, values.data(), values.size() * 4).ok());
  ASSERT_TRUE(runtime().WriteBuffer(*xb, 0, x.data(), x.size() * 4).ok());

  auto make_spec = [&](BufferId y) {
    ClusterRuntime::LaunchSpec spec;
    spec.program = *program;
    spec.kernel_name = "spmv_compute";
    spec.args = {KernelArgValue::Buffer(*rp), KernelArgValue::Buffer(*ci),
                 KernelArgValue::Buffer(*va), KernelArgValue::Buffer(*xb),
                 KernelArgValue::PartitionedBuffer(y, 4),
                 KernelArgValue::Scalar<std::int32_t>(rows)};
    spec.work_dim = 1;
    spec.global[0] = static_cast<std::uint64_t>(rows);
    return spec;
  };

  ClusterRuntime::LaunchSpec spec = make_spec(*y_single);
  spec.preferred_node = 1;
  ASSERT_TRUE(runtime().LaunchKernel(spec).ok());

  ASSERT_TRUE(runtime().SetScheduler("hetero_split").ok());
  auto split = runtime().LaunchKernel(make_spec(*y_split));
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  EXPECT_GE(split->shard_count, 2u);

  std::vector<float> got_single(rows);
  std::vector<float> got_split(rows);
  ASSERT_TRUE(
      runtime().ReadBuffer(*y_single, 0, got_single.data(), rows * 4).ok());
  ASSERT_TRUE(
      runtime().ReadBuffer(*y_split, 0, got_split.data(), rows * 4).ok());
  EXPECT_EQ(std::memcmp(got_single.data(), got_split.data(), rows * 4), 0);
}

TEST_F(ClusterRuntimeTest, PartitionedRmwAfterRemoteOwnershipStaysCoherent) {
  // Launch 1 (classic, node 0) takes ownership of the buffer: host shadow
  // stale, valid replica on node 0. Launch 2 is a partitioned
  // read-modify-write split across nodes — every shard must see launch
  // 1's values, including shards whose slice has to be repopulated from
  // node 0's replica while the node-0 shard skips its own slice ship.
  auto program = runtime().BuildProgram(kDoubler);
  ASSERT_TRUE(program.ok());
  const int n = 1024;
  auto buffer = runtime().CreateBuffer(static_cast<std::uint64_t>(n) * 4);
  ASSERT_TRUE(buffer.ok());
  std::vector<std::int32_t> values(n);
  for (int i = 0; i < n; ++i) values[i] = i + 1;
  ASSERT_TRUE(runtime().WriteBuffer(*buffer, 0, values.data(), n * 4).ok());

  ClusterRuntime::LaunchSpec spec;
  spec.program = *program;
  spec.kernel_name = "doubler";
  spec.args = {KernelArgValue::PartitionedBuffer(*buffer, 4),
               KernelArgValue::Scalar<std::int32_t>(n)};
  spec.global[0] = static_cast<std::uint64_t>(n);
  spec.preferred_node = 0;
  ASSERT_TRUE(runtime().LaunchKernel(spec).ok());  // Node 0 owns the data.

  ASSERT_TRUE(runtime().SetScheduler("hetero_split").ok());
  spec.preferred_node = -1;
  auto split = runtime().LaunchKernel(spec);
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  EXPECT_GE(split->shard_count, 2u);

  std::vector<std::int32_t> got(n);
  ASSERT_TRUE(runtime().ReadBuffer(*buffer, 0, got.data(), n * 4).ok());
  for (int i = 0; i < n; ++i) ASSERT_EQ(got[i], 4 * (i + 1)) << i;
}

TEST_F(ClusterRuntimeTest, CoexecutionBeatsBestSingleNodePlacement) {
  // Compute-dominated matmul on a heterogeneous 3-node cluster: the
  // hetero_split plan must finish (virtual time) strictly earlier than
  // the best single-node placement. Fresh cluster per run so one run's
  // modeled backlog cannot skew the next.
  const int n = 64;
  std::vector<float> a(static_cast<std::size_t>(n) * n, 0.5f);
  std::vector<float> b(a.size(), 0.25f);
  sim::KernelCost cost;
  cost.flops = 5e10;  // Dwarfs the transfer terms.
  cost.bytes = 4e10;
  cost.work_items = static_cast<std::uint64_t>(n) * n;

  auto run = [&](const std::string& policy, int preferred,
                 double* completion) {
    auto cluster = SimCluster::Create({.gpu_nodes = 2, .cpu_nodes = 1});
    ASSERT_TRUE(cluster.ok());
    auto& rt = (*cluster)->runtime();
    ASSERT_TRUE(rt.SetScheduler(policy).ok());
    auto program = rt.BuildProgram(MatmulSource());
    ASSERT_TRUE(program.ok());
    auto a_buf = rt.CreateBuffer(a.size() * 4);
    auto b_buf = rt.CreateBuffer(b.size() * 4);
    auto c_buf = rt.CreateBuffer(a.size() * 4);
    ASSERT_TRUE(a_buf.ok() && b_buf.ok() && c_buf.ok());
    ASSERT_TRUE(rt.WriteBuffer(*a_buf, 0, a.data(), a.size() * 4).ok());
    ASSERT_TRUE(rt.WriteBuffer(*b_buf, 0, b.data(), b.size() * 4).ok());
    ClusterRuntime::LaunchSpec spec =
        MatmulSpec(*program, n, *a_buf, *b_buf, *c_buf);
    spec.preferred_node = preferred;
    spec.cost_hint = cost;
    auto result = rt.LaunchKernel(spec);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    *completion = result->virtual_completion;
  };

  double best_single = std::numeric_limits<double>::infinity();
  for (int node = 0; node < 3; ++node) {
    double completion = 0.0;
    run("user", node, &completion);
    best_single = std::min(best_single, completion);
  }
  double split_completion = 0.0;
  run("hetero_split", -1, &split_completion);
  EXPECT_LT(split_completion, best_single);
}

// Meeting point of the two shards' launches: each waits in its node's
// driver until both have entered (bounded), so the overlap the test checks
// does not depend on the OS running both graph workers at once.
class LaunchRendezvous {
 public:
  // True when the other launch arrived within the bound.
  bool Arrive() {
    std::unique_lock<std::mutex> lock(mutex_);
    ++arrived_;
    cv_.notify_all();
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [this] { return arrived_ >= 2; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int arrived_ = 0;
};

class RendezvousDriver final : public driver::DeviceDriver {
 public:
  RendezvousDriver(std::unique_ptr<driver::DeviceDriver> inner,
                   LaunchRendezvous* rendezvous)
      : inner_(std::move(inner)), rendezvous_(rendezvous) {}
  const sim::DeviceSpec& spec() const override { return inner_->spec(); }
  Expected<std::shared_ptr<const oclc::Module>> Build(
      const std::string& source, std::string* build_log) override {
    return inner_->Build(source, build_log);
  }
  Status Launch(const oclc::Module& module, const std::string& kernel_name,
                const std::vector<oclc::ArgBinding>& args,
                const oclc::NDRange& range, driver::LaunchProfile* profile,
                const sim::KernelCost* cost_hint) override {
    saw_other = rendezvous_->Arrive();
    return inner_->Launch(module, kernel_name, args, range, profile,
                          cost_hint);
  }

  std::atomic<bool> saw_other{false};

 private:
  std::unique_ptr<driver::DeviceDriver> inner_;
  LaunchRendezvous* rendezvous_;
};

TEST_F(ClusterRuntimeTest, ShardsOfOneLaunchOverlapAcrossNodes) {
  // The co-execution acceptance: shards of ONE launch are in flight on
  // distinct nodes concurrently — overlapping modeled spans and at least
  // two graph workers running at once. Two GPU nodes of its own, whose
  // drivers hold each shard until the other has arrived too.
  LaunchRendezvous rendezvous;
  std::vector<RendezvousDriver*> drivers;
  std::vector<std::unique_ptr<nmp::NodeServer>> servers;
  std::vector<net::ConnectionPtr> hosts;
  for (int i = 0; i < 2; ++i) {
    auto driver = std::make_unique<RendezvousDriver>(
        driver::MakeSimulatedDriver(sim::SpecForType(NodeType::kGpu)),
        &rendezvous);
    drivers.push_back(driver.get());
    servers.push_back(std::make_unique<nmp::NodeServer>(
        "gpu" + std::to_string(i), NodeType::kGpu, std::move(driver)));
    auto [host_end, node_end] = net::CreateSimChannel();
    servers.back()->Serve(std::move(node_end));
    hosts.push_back(std::move(host_end));
  }
  auto connected = ClusterRuntime::Connect(std::move(hosts), {});
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  ClusterRuntime& rt = **connected;

  ASSERT_TRUE(rt.SetScheduler("hetero_split").ok());
  auto program = rt.BuildProgram(MatmulSource());
  ASSERT_TRUE(program.ok());
  const int n = 64;
  std::vector<float> a(static_cast<std::size_t>(n) * n, 1.0f);
  auto a_buf = rt.CreateBuffer(a.size() * 4);
  auto b_buf = rt.CreateBuffer(a.size() * 4);
  auto c_buf = rt.CreateBuffer(a.size() * 4);
  ASSERT_TRUE(a_buf.ok() && b_buf.ok() && c_buf.ok());
  ASSERT_TRUE(rt.WriteBuffer(*a_buf, 0, a.data(), a.size() * 4).ok());
  ASSERT_TRUE(rt.WriteBuffer(*b_buf, 0, a.data(), a.size() * 4).ok());

  ClusterRuntime::LaunchSpec spec =
      MatmulSpec(*program, n, *a_buf, *b_buf, *c_buf);
  sim::KernelCost cost;
  cost.flops = 5e10;  // Long modeled kernels relative to their transfers.
  cost.bytes = 4e10;
  cost.work_items = static_cast<std::uint64_t>(n) * n;
  spec.cost_hint = cost;
  auto handle = rt.SubmitLaunch(spec);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  ASSERT_TRUE(rt.Wait(*handle).ok());

  auto shards = rt.LaunchShardsOf(*handle);
  ASSERT_TRUE(shards.ok());
  ASSERT_GE(shards->size(), 2u);
  EXPECT_GE(rt.graph().PeakRunning(), 2u);
  // Each shard's launch found the other one in flight.
  for (const RendezvousDriver* driver : drivers) {
    EXPECT_TRUE(driver->saw_other.load());
  }
  std::vector<LaunchResult> results;
  std::set<std::size_t> nodes_used;
  for (const CommandHandle& shard : *shards) {
    auto result = rt.LaunchResultOf(shard);
    ASSERT_TRUE(result.ok());
    nodes_used.insert(result->node);
    results.push_back(*result);
  }
  EXPECT_EQ(nodes_used.size(), shards->size());  // Distinct nodes.
  // Every pair of shard spans overlaps in virtual time.
  for (std::size_t i = 0; i < results.size(); ++i) {
    for (std::size_t j = i + 1; j < results.size(); ++j) {
      const double start_i =
          results[i].virtual_completion - results[i].modeled_seconds;
      const double start_j =
          results[j].virtual_completion - results[j].modeled_seconds;
      EXPECT_LT(start_i, results[j].virtual_completion);
      EXPECT_LT(start_j, results[i].virtual_completion);
    }
  }
  ASSERT_TRUE(rt.ReleaseCommand(*handle).ok());
  rt.Disconnect();
  for (auto& server : servers) server->Shutdown();
}

TEST_F(ClusterRuntimeTest, RangeQueryingKernelsAreNeverSplit) {
  // A grid-stride kernel reads get_global_size(0); under a shard its
  // value would be shard-local and the stride wrong, so the runtime must
  // keep such launches whole even with partitioned annotations.
  constexpr char kGridStride[] = R"(
    __kernel void stride_fill(__global int* data, int n) {
      for (int i = (int)get_global_id(0); i < n;
           i += (int)get_global_size(0)) {
        data[i] = i + 1;
      }
    })";
  ASSERT_TRUE(runtime().SetScheduler("hetero_split").ok());
  auto program = runtime().BuildProgram(kGridStride);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const int n = 256;
  auto buffer = runtime().CreateBuffer(static_cast<std::uint64_t>(n) * 4);
  ASSERT_TRUE(buffer.ok());

  ClusterRuntime::LaunchSpec spec;
  spec.program = *program;
  spec.kernel_name = "stride_fill";
  spec.args = {KernelArgValue::PartitionedBuffer(*buffer, 4),
               KernelArgValue::Scalar<std::int32_t>(n)};
  spec.global[0] = 64;  // Fewer items than n: the loop must cover the rest.
  auto result = runtime().LaunchKernel(spec);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->shard_count, 1u);

  std::vector<std::int32_t> got(n);
  ASSERT_TRUE(runtime().ReadBuffer(*buffer, 0, got.data(), n * 4).ok());
  for (int i = 0; i < n; ++i) ASSERT_EQ(got[i], i + 1) << i;

  // The canonical group-id index reconstruction is equally shard-hostile
  // (group ids restart at 0 per shard): must also run whole.
  constexpr char kGroupIndex[] = R"(
    __kernel void group_fill(__global int* data, int n) {
      int i = (int)(get_group_id(0) * get_local_size(0) + get_local_id(0));
      if (i < n) data[i] = i + 1;
    })";
  auto program2 = runtime().BuildProgram(kGroupIndex);
  ASSERT_TRUE(program2.ok()) << program2.status().ToString();
  const int m = 1024;
  auto buffer2 = runtime().CreateBuffer(static_cast<std::uint64_t>(m) * 4);
  ASSERT_TRUE(buffer2.ok());
  ClusterRuntime::LaunchSpec spec2;
  spec2.program = *program2;
  spec2.kernel_name = "group_fill";
  spec2.args = {KernelArgValue::PartitionedBuffer(*buffer2, 4),
                KernelArgValue::Scalar<std::int32_t>(m)};
  spec2.global[0] = static_cast<std::uint64_t>(m);
  spec2.local[0] = 64;
  spec2.local_specified = true;
  auto result2 = runtime().LaunchKernel(spec2);
  ASSERT_TRUE(result2.ok()) << result2.status().ToString();
  EXPECT_EQ(result2->shard_count, 1u);
  std::vector<std::int32_t> got2(m);
  ASSERT_TRUE(runtime().ReadBuffer(*buffer2, 0, got2.data(), m * 4).ok());
  for (int i = 0; i < m; ++i) ASSERT_EQ(got2[i], i + 1) << i;
}

TEST_F(ClusterRuntimeTest, InvalidPlacementPlansAreRejectedAtSubmit) {
  // A policy producing overlapping shards must fail the submit, not
  // corrupt buffers at execution time.
  class OverlappingPolicy : public sched::SchedulingPolicy {
   public:
    [[nodiscard]] std::string name() const override { return "overlap"; }
    Expected<std::size_t> SelectNode(const sched::TaskInfo&,
                                     const sched::ClusterView&) override {
      return 0;
    }
    Expected<sched::PlacementPlan> PlanLaunch(
        const sched::TaskInfo& task, const sched::ClusterView&) override {
      sched::PlacementPlan plan;
      plan.shards = {{0, 0, task.dim0_extent, 0.5},
                     {1, task.dim0_extent / 2, task.dim0_extent / 2, 0.5}};
      return plan;
    }
  };
  sched::RegisterPolicy("overlap", [] {
    return std::unique_ptr<sched::SchedulingPolicy>(new OverlappingPolicy());
  });
  ASSERT_TRUE(runtime().SetScheduler("overlap").ok());

  auto program = runtime().BuildProgram(MatmulSource());
  ASSERT_TRUE(program.ok());
  const int n = 32;
  auto a_buf = runtime().CreateBuffer(static_cast<std::uint64_t>(n) * n * 4);
  auto b_buf = runtime().CreateBuffer(static_cast<std::uint64_t>(n) * n * 4);
  auto c_buf = runtime().CreateBuffer(static_cast<std::uint64_t>(n) * n * 4);
  ASSERT_TRUE(a_buf.ok() && b_buf.ok() && c_buf.ok());
  ClusterRuntime::LaunchSpec spec =
      MatmulSpec(*program, n, *a_buf, *b_buf, *c_buf);
  EXPECT_EQ(runtime().SubmitLaunch(spec).code(), ErrorCode::kSchedulerError);

  // And a partitioned annotation whose range overruns the buffer is
  // caught before any plan is made.
  ASSERT_TRUE(runtime().SetScheduler("hetero_split").ok());
  spec = MatmulSpec(*program, n, *a_buf, *b_buf, *c_buf);
  spec.global[0] = static_cast<std::uint64_t>(2 * n);  // Past a's rows.
  EXPECT_EQ(runtime().SubmitLaunch(spec).code(), ErrorCode::kInvalidValue);
}

TEST_F(ClusterRuntimeTest, ReleasedCommandRecordsAreReclaimed) {
  auto buffer = runtime().CreateBuffer(256);
  ASSERT_TRUE(buffer.ok());
  std::vector<std::uint8_t> payload(256, 7);
  ASSERT_TRUE(
      runtime().WriteBuffer(*buffer, 0, payload.data(), 256).ok());
  ASSERT_TRUE(runtime().Finish().ok());
  const std::size_t baseline = runtime().graph().LiveRecords();

  // The blocking wrappers release internally: a long launch/write loop
  // must not grow the graph's record table (the million-enqueue bound).
  auto program = runtime().BuildProgram(kDoubler);
  ASSERT_TRUE(program.ok());
  ClusterRuntime::LaunchSpec spec;
  spec.program = *program;
  spec.kernel_name = "doubler";
  spec.args = {KernelArgValue::Buffer(*buffer),
               KernelArgValue::Scalar<std::int32_t>(64)};
  spec.global[0] = 64;
  spec.preferred_node = 0;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        runtime().WriteBuffer(*buffer, 0, payload.data(), 256).ok());
    ASSERT_TRUE(runtime().LaunchKernel(spec).ok());
  }
  ASSERT_TRUE(runtime().Finish().ok());
  EXPECT_LE(runtime().graph().LiveRecords(), baseline + 4);

  // Explicit handles: queryable while held, gone after release.
  auto write = runtime().SubmitWrite(*buffer, 0, payload.data(), 256);
  ASSERT_TRUE(write.ok());
  ASSERT_TRUE(runtime().Wait(*write).ok());
  EXPECT_TRUE(runtime().CommandStateOf(*write).ok());
  ASSERT_TRUE(runtime().ReleaseCommand(*write).ok());
  EXPECT_FALSE(runtime().CommandStateOf(*write).ok());
}

// ---- Region directory + node-to-node slice exchange ----------------------

TEST_F(ClusterRuntimeTest, DirectorySnapshotTracksOwnership) {
  const int n = 256;
  auto buffer = runtime().CreateBuffer(static_cast<std::uint64_t>(n) * 4);
  ASSERT_TRUE(buffer.ok());
  auto snapshot = runtime().DirectorySnapshotOf(*buffer);
  ASSERT_TRUE(snapshot.ok());
  ASSERT_EQ(snapshot->regions.size(), 1u);
  EXPECT_EQ(snapshot->regions[0].owners, std::vector<std::int32_t>{-1});
  EXPECT_TRUE(snapshot->HostOwns(0, n * 4));

  auto program = runtime().BuildProgram(kDoubler);
  ASSERT_TRUE(program.ok());
  std::vector<std::int32_t> values(n, 1);
  ASSERT_TRUE(runtime().WriteBuffer(*buffer, 0, values.data(), n * 4).ok());
  ClusterRuntime::LaunchSpec spec;
  spec.program = *program;
  spec.kernel_name = "doubler";
  spec.args = {KernelArgValue::Buffer(*buffer),
               KernelArgValue::Scalar<std::int32_t>(n)};
  spec.global[0] = n;
  spec.preferred_node = 1;
  ASSERT_TRUE(runtime().LaunchKernel(spec).ok());

  // The launch's output lives on node 1 only; the host shadow is stale
  // (lazy gather) and the directory says so.
  snapshot = runtime().DirectorySnapshotOf(*buffer);
  ASSERT_TRUE(snapshot.ok());
  ASSERT_EQ(snapshot->regions.size(), 1u);
  EXPECT_EQ(snapshot->regions[0].owners, std::vector<std::int32_t>{1});
  EXPECT_FALSE(snapshot->HostOwns(0, 4));
  const std::uint64_t epoch_after_launch = snapshot->epoch;

  // A partial read moves just that range, straight into the caller's
  // memory: the host does not become an owner, so the directory is as the
  // launch left it.
  std::int32_t head[8];
  ASSERT_TRUE(runtime().ReadBuffer(*buffer, 0, head, sizeof head).ok());
  EXPECT_EQ(head[0], 2);
  snapshot = runtime().DirectorySnapshotOf(*buffer);
  ASSERT_TRUE(snapshot.ok());
  ASSERT_EQ(snapshot->regions.size(), 1u);
  EXPECT_EQ(snapshot->regions[0].owners, std::vector<std::int32_t>{1});
  EXPECT_FALSE(snapshot->HostOwns(0, sizeof head));
  EXPECT_EQ(snapshot->epoch, epoch_after_launch);  // Transfers don't dirty.
  EXPECT_EQ(snapshot->stats.host_bytes_in, sizeof head);

  // So a second read of the range moves it again.
  std::int32_t again[8] = {};
  ASSERT_TRUE(runtime().ReadBuffer(*buffer, 0, again, sizeof again).ok());
  EXPECT_EQ(again[7], 2);
  snapshot = runtime().DirectorySnapshotOf(*buffer);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_FALSE(snapshot->HostOwns(0, sizeof head));
  EXPECT_EQ(snapshot->stats.host_bytes_in, 2 * sizeof head);
}

// A write on a node's queue moves its bytes once, from the caller's
// pointer to that node, which becomes the sole owner: the launch that
// follows ships nothing, and the read takes the bytes straight back
// without making the host an owner. A dead node's queue falls back to the
// host shadow.
TEST_F(ClusterRuntimeTest, NodeQueueWriteShipsStraightToTheNode) {
  auto program = runtime().BuildProgram(kDoubler);
  ASSERT_TRUE(program.ok());
  const int n = 256;
  const std::uint64_t bytes = static_cast<std::uint64_t>(n) * 4;
  auto buffer = runtime().CreateBuffer(bytes);
  ASSERT_TRUE(buffer.ok());
  std::vector<std::int32_t> values(n);
  std::iota(values.begin(), values.end(), -7);
  auto write = runtime().SubmitWrite(*buffer, 0, values.data(), bytes, 1);
  ASSERT_TRUE(write.ok());
  ASSERT_TRUE(runtime().Wait(*write).ok());
  ASSERT_TRUE(runtime().ReleaseCommand(*write).ok());
  auto snapshot = runtime().DirectorySnapshotOf(*buffer);
  ASSERT_TRUE(snapshot.ok());
  ASSERT_EQ(snapshot->regions.size(), 1u);
  EXPECT_EQ(snapshot->regions[0].owners, std::vector<std::int32_t>{1});
  EXPECT_EQ(snapshot->stats.host_bytes_out, bytes);

  ClusterRuntime::LaunchSpec spec;
  spec.program = *program;
  spec.kernel_name = "doubler";
  spec.args = {KernelArgValue::Buffer(*buffer),
               KernelArgValue::Scalar<std::int32_t>(n)};
  spec.global[0] = n;
  spec.preferred_node = 1;
  auto launched = runtime().LaunchKernel(spec);
  ASSERT_TRUE(launched.ok()) << launched.status().ToString();
  EXPECT_EQ(launched->bytes_shipped, 0u);

  std::vector<std::int32_t> got(n);
  ASSERT_TRUE(runtime().ReadBuffer(*buffer, 0, got.data(), bytes).ok());
  for (int i = 0; i < n; ++i) ASSERT_EQ(got[i], 2 * values[i]) << i;
  snapshot = runtime().DirectorySnapshotOf(*buffer);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_FALSE(snapshot->HostOwns(0, 4));
  EXPECT_EQ(snapshot->stats.host_bytes_out, bytes);
  EXPECT_EQ(snapshot->stats.host_bytes_in, bytes);

  // Node 0 is lost: a write on its queue lands in the shadow instead.
  ASSERT_TRUE(runtime().MarkNodeLost(0).ok());
  write = runtime().SubmitWrite(*buffer, 0, values.data(), 16, 0);
  ASSERT_TRUE(write.ok());
  ASSERT_TRUE(runtime().Wait(*write).ok());
  ASSERT_TRUE(runtime().ReleaseCommand(*write).ok());
  snapshot = runtime().DirectorySnapshotOf(*buffer);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_TRUE(snapshot->HostOwns(0, 16));
  EXPECT_FALSE(snapshot->HostOwns(0, 20));
  EXPECT_EQ(snapshot->stats.host_bytes_out, bytes);
  ASSERT_TRUE(runtime().ReadBuffer(*buffer, 0, got.data(), bytes).ok());
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(got[i], i < 4 ? values[i] : 2 * values[i]) << i;
  }
}

// A node that dies holding the only fresh copy of a range takes the range
// with it: a read fails instead of returning the shadow's older bytes, and
// a write that replaces the range makes the buffer whole again.
TEST(ClusterRuntimeNodeLossTest, ReadOfARangeOnlyTheDeadNodeHeldFails) {
  auto cluster = SimCluster::Create({.gpu_nodes = 2});
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  ClusterRuntime& rt = (*cluster)->runtime();
  auto program = rt.BuildProgram(kDoubler);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const int n = 64;
  auto buffer = rt.CreateBuffer(n * 4);
  ASSERT_TRUE(buffer.ok());
  std::vector<std::int32_t> values(n);
  std::iota(values.begin(), values.end(), 1);
  ASSERT_TRUE(rt.WriteBuffer(*buffer, 0, values.data(), n * 4).ok());
  ClusterRuntime::LaunchSpec spec;
  spec.program = *program;
  spec.kernel_name = "doubler";
  spec.args = {KernelArgValue::Buffer(*buffer),
               KernelArgValue::Scalar<std::int32_t>(n)};
  spec.global[0] = n;
  spec.preferred_node = 1;
  ASSERT_TRUE(rt.LaunchKernel(spec).ok());

  auto lost = rt.MarkNodeLost(1);
  ASSERT_TRUE(lost.ok()) << lost.status().ToString();
  ASSERT_EQ(lost->size(), 1u);
  EXPECT_EQ((*lost)[0].buffer, *buffer);
  EXPECT_EQ((*lost)[0].begin, 0u);
  EXPECT_EQ((*lost)[0].end, static_cast<std::uint64_t>(n * 4));
  std::vector<std::int32_t> got(n);
  const Status read = rt.ReadBuffer(*buffer, 0, got.data(), n * 4);
  EXPECT_TRUE(read.code() == ErrorCode::kNodeLost ||
              read.code() == ErrorCode::kNodeUnreachable)
      << read.ToString() << "; element 0 reads " << got[0];

  ASSERT_TRUE(rt.WriteBuffer(*buffer, 0, values.data(), n * 4).ok());
  ASSERT_TRUE(rt.ReadBuffer(*buffer, 0, got.data(), n * 4).ok());
  EXPECT_EQ(got, values);
}

// Buffers cost resident memory only where bytes land: the host shadow and
// the node replica are lazily zeroed, and the write and the read move the
// page between the caller and the node without touching the shadow.
TEST_F(ClusterRuntimeTest, GigabyteBufferMakesOnlyWrittenPagesResident) {
#if defined(__SANITIZE_THREAD__)
  // TSan's calloc interceptor writes every byte it hands out (gcc 12:
  // 1 GiB resident right after calloc), so under TSan no buffer is lazily
  // zeroed and this test would only make 2 GiB resident.
  GTEST_SKIP() << "calloc is eager under ThreadSanitizer";
#endif
  auto resident_bytes = [] {
    std::ifstream statm("/proc/self/statm");
    std::int64_t size_pages = 0;
    std::int64_t resident_pages = 0;
    statm >> size_pages >> resident_pages;
    return resident_pages * static_cast<std::int64_t>(sysconf(_SC_PAGESIZE));
  };
  constexpr std::uint64_t kGiB = 1ull << 30;
  std::vector<std::uint8_t> page(4096);
  std::iota(page.begin(), page.end(), 1);
  std::vector<std::uint8_t> back(page.size());
  const std::int64_t before = resident_bytes();
  auto buffer = runtime().CreateBuffer(kGiB);
  ASSERT_TRUE(buffer.ok()) << buffer.status().ToString();
  const std::uint64_t offset = kGiB / 2;
  auto write =
      runtime().SubmitWrite(*buffer, offset, page.data(), page.size(), 0);
  ASSERT_TRUE(write.ok());
  ASSERT_TRUE(runtime().Wait(*write).ok());
  ASSERT_TRUE(runtime().ReleaseCommand(*write).ok());
  ASSERT_TRUE(
      runtime().ReadBuffer(*buffer, offset, back.data(), back.size()).ok());
  const std::int64_t grown = resident_bytes() - before;
  EXPECT_EQ(back, page);
  EXPECT_LT(grown, 8 << 20) << "resident set grew by " << grown << " bytes";
  ASSERT_TRUE(runtime().ReleaseBuffer(*buffer).ok());
  ASSERT_TRUE(runtime().Finish().ok());
}

// THE acceptance scenario: a chained pair of partitioned launches over the
// same buffer moves ZERO payload bytes through the host between producer
// and consumer, and the multi-node result is bit-identical to the
// single-node chain.
TEST_F(ClusterRuntimeTest, ChainedPartitionedLaunchesMoveZeroHostBytes) {
  auto program_rmw = runtime().BuildProgram(kDoubler);
  auto program_map = runtime().BuildProgram(kScaleConst);
  ASSERT_TRUE(program_rmw.ok() && program_map.ok());
  const int n = 1024;
  const std::uint64_t bytes = static_cast<std::uint64_t>(n) * 4;
  std::vector<std::int32_t> values(n);
  for (int i = 0; i < n; ++i) values[i] = i - n / 2;

  auto chain = [&](BufferId mid, BufferId out, int preferred) {
    ClusterRuntime::LaunchSpec producer;
    producer.program = *program_rmw;
    producer.kernel_name = "doubler";
    producer.args = {KernelArgValue::PartitionedBuffer(mid, 4),
                     KernelArgValue::Scalar<std::int32_t>(n)};
    producer.global[0] = n;
    producer.preferred_node = preferred;
    auto first = runtime().LaunchKernel(producer);
    ASSERT_TRUE(first.ok()) << first.status().ToString();

    // Snapshot between the launches: every later host byte on `mid` is a
    // violation of the node-to-node exchange.
    auto between = runtime().DirectorySnapshotOf(mid);
    ASSERT_TRUE(between.ok());
    const std::uint64_t host_payload_between =
        between->stats.host_payload_bytes();

    ClusterRuntime::LaunchSpec consumer;
    consumer.program = *program_map;
    consumer.kernel_name = "scale";
    consumer.args = {KernelArgValue::PartitionedBuffer(mid, 4),
                     KernelArgValue::PartitionedBuffer(out, 4),
                     KernelArgValue::Scalar<std::int32_t>(n)};
    consumer.global[0] = n;
    consumer.preferred_node = preferred;
    auto second = runtime().LaunchKernel(consumer);
    ASSERT_TRUE(second.ok()) << second.status().ToString();

    auto after = runtime().DirectorySnapshotOf(mid);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after->stats.host_payload_bytes(), host_payload_between)
        << "consumer moved chained-buffer payload through the host";
  };

  // Reference: the whole chain on one node.
  auto mid_single = runtime().CreateBuffer(bytes);
  auto out_single = runtime().CreateBuffer(bytes);
  ASSERT_TRUE(mid_single.ok() && out_single.ok());
  ASSERT_TRUE(
      runtime().WriteBuffer(*mid_single, 0, values.data(), bytes).ok());
  chain(*mid_single, *out_single, /*preferred=*/0);

  // Co-executed: both launches split across the cluster.
  ASSERT_TRUE(runtime().SetScheduler("hetero_split").ok());
  auto mid_split = runtime().CreateBuffer(bytes);
  auto out_split = runtime().CreateBuffer(bytes);
  ASSERT_TRUE(mid_split.ok() && out_split.ok());
  ASSERT_TRUE(
      runtime().WriteBuffer(*mid_split, 0, values.data(), bytes).ok());
  chain(*mid_split, *out_split, /*preferred=*/-1);

  std::vector<std::int32_t> got_single(n);
  std::vector<std::int32_t> got_split(n);
  ASSERT_TRUE(
      runtime().ReadBuffer(*out_single, 0, got_single.data(), bytes).ok());
  ASSERT_TRUE(
      runtime().ReadBuffer(*out_split, 0, got_split.data(), bytes).ok());
  EXPECT_EQ(std::memcmp(got_single.data(), got_split.data(), bytes), 0);
  EXPECT_EQ(got_split[0], 6 * (0 - n / 2));
}

TEST_F(ClusterRuntimeTest, ConsumerShardsPullProducerSlicesPeerToPeer) {
  // Producer runs whole on node 0; the split consumer's shards on other
  // nodes must fetch their input slices FROM node 0 directly — p2p bytes
  // move, zero additional host payload.
  auto program = runtime().BuildProgram(kDoubler);
  ASSERT_TRUE(program.ok());
  const int n = 1024;
  auto buffer = runtime().CreateBuffer(static_cast<std::uint64_t>(n) * 4);
  ASSERT_TRUE(buffer.ok());
  std::vector<std::int32_t> values(n);
  for (int i = 0; i < n; ++i) values[i] = i + 1;
  ASSERT_TRUE(runtime().WriteBuffer(*buffer, 0, values.data(), n * 4).ok());

  ClusterRuntime::LaunchSpec spec;
  spec.program = *program;
  spec.kernel_name = "doubler";
  spec.args = {KernelArgValue::PartitionedBuffer(*buffer, 4),
               KernelArgValue::Scalar<std::int32_t>(n)};
  spec.global[0] = n;
  spec.preferred_node = 0;
  ASSERT_TRUE(runtime().LaunchKernel(spec).ok());  // Node 0 owns everything.

  auto before = runtime().DirectorySnapshotOf(*buffer);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(runtime().SetScheduler("hetero_split").ok());
  spec.preferred_node = -1;
  auto split = runtime().LaunchKernel(spec);
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  ASSERT_GE(split->shard_count, 2u);

  auto after = runtime().DirectorySnapshotOf(*buffer);
  ASSERT_TRUE(after.ok());
  EXPECT_GT(after->stats.p2p_bytes, before->stats.p2p_bytes);
  EXPECT_EQ(after->stats.relay_bytes, 0u);
  EXPECT_EQ(after->stats.host_payload_bytes(),
            before->stats.host_payload_bytes());

  std::vector<std::int32_t> got(n);
  ASSERT_TRUE(runtime().ReadBuffer(*buffer, 0, got.data(), n * 4).ok());
  for (int i = 0; i < n; ++i) ASSERT_EQ(got[i], 4 * (i + 1)) << i;
}

TEST(ClusterRuntimePeerlessTest, HostRelayFallbackWhenNodesHaveNoLinks) {
  // Same chained scenario on a cluster whose nodes cannot reach each
  // other: pulls fail with kPeerUnreachable, the host relays every slice,
  // and the results stay correct.
  workloads::RegisterAllNativeKernels();
  auto cluster = SimCluster::Create({.gpu_nodes = 2, .fpga_nodes = 1}, {},
                                    SimCluster::PeerTopology::kNone);
  ASSERT_TRUE(cluster.ok());
  auto& rt = (*cluster)->runtime();
  auto program = rt.BuildProgram(kDoubler);
  ASSERT_TRUE(program.ok());
  const int n = 512;
  auto buffer = rt.CreateBuffer(static_cast<std::uint64_t>(n) * 4);
  ASSERT_TRUE(buffer.ok());
  std::vector<std::int32_t> values(n, 3);
  ASSERT_TRUE(rt.WriteBuffer(*buffer, 0, values.data(), n * 4).ok());

  ClusterRuntime::LaunchSpec spec;
  spec.program = *program;
  spec.kernel_name = "doubler";
  spec.args = {KernelArgValue::PartitionedBuffer(*buffer, 4),
               KernelArgValue::Scalar<std::int32_t>(n)};
  spec.global[0] = n;
  spec.preferred_node = 0;
  ASSERT_TRUE(rt.LaunchKernel(spec).ok());
  ASSERT_TRUE(rt.SetScheduler("hetero_split").ok());
  spec.preferred_node = -1;
  auto split = rt.LaunchKernel(spec);
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  ASSERT_GE(split->shard_count, 2u);

  auto snapshot = rt.DirectorySnapshotOf(*buffer);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->stats.p2p_bytes, 0u);
  EXPECT_GT(snapshot->stats.relay_bytes, 0u);

  std::vector<std::int32_t> got(n);
  ASSERT_TRUE(rt.ReadBuffer(*buffer, 0, got.data(), n * 4).ok());
  for (int i = 0; i < n; ++i) ASSERT_EQ(got[i], 12) << i;
}

TEST_F(ClusterRuntimeTest, MigratePrefetchesSoTheLaunchShipsNothing) {
  auto program = runtime().BuildProgram(kDoubler);
  ASSERT_TRUE(program.ok());
  const int n = 256;
  auto buffer = runtime().CreateBuffer(static_cast<std::uint64_t>(n) * 4);
  ASSERT_TRUE(buffer.ok());
  std::vector<std::int32_t> values(n, 7);
  ASSERT_TRUE(runtime().WriteBuffer(*buffer, 0, values.data(), n * 4).ok());

  auto migrate = runtime().SubmitMigrate(*buffer, {}, /*target_node=*/1);
  ASSERT_TRUE(migrate.ok());
  ASSERT_TRUE(runtime().Wait(*migrate).ok());
  ASSERT_TRUE(runtime().ReleaseCommand(*migrate).ok());
  auto snapshot = runtime().DirectorySnapshotOf(*buffer);
  ASSERT_TRUE(snapshot.ok());
  ASSERT_EQ(snapshot->regions.size(), 1u);
  EXPECT_EQ(snapshot->regions[0].owners,
            (std::vector<std::int32_t>{1, -1}));  // Node 1 AND the host.

  ClusterRuntime::LaunchSpec spec;
  spec.program = *program;
  spec.kernel_name = "doubler";
  spec.args = {KernelArgValue::Buffer(*buffer),
               KernelArgValue::Scalar<std::int32_t>(n)};
  spec.global[0] = n;
  spec.preferred_node = 1;
  auto result = runtime().LaunchKernel(spec);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->bytes_shipped, 0u);  // Prefetch already placed it.

  // Migrating node 1's output back to the host IS the gather; the later
  // read finds everything fresh and moves nothing further.
  auto gather = runtime().SubmitMigrate(*buffer, {},
                                        ClusterRuntime::kMigrateToHost);
  ASSERT_TRUE(gather.ok());
  ASSERT_TRUE(runtime().Wait(*gather).ok());
  ASSERT_TRUE(runtime().ReleaseCommand(*gather).ok());
  auto before = runtime().DirectorySnapshotOf(*buffer);
  ASSERT_TRUE(before.ok());
  std::vector<std::int32_t> got(n);
  ASSERT_TRUE(runtime().ReadBuffer(*buffer, 0, got.data(), n * 4).ok());
  EXPECT_EQ(got[0], 14);
  auto after = runtime().DirectorySnapshotOf(*buffer);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->stats.host_bytes_in, before->stats.host_bytes_in);
}

TEST_F(ClusterRuntimeTest, MigrateOfASoleNodeCopyMovesPeerToPeer) {
  auto program = runtime().BuildProgram(kDoubler);
  ASSERT_TRUE(program.ok());
  const int n = 512;
  const std::uint64_t bytes = static_cast<std::uint64_t>(n) * 4;
  auto buffer = runtime().CreateBuffer(bytes);
  ASSERT_TRUE(buffer.ok());
  std::vector<std::int32_t> values(n);
  std::iota(values.begin(), values.end(), 1);
  ASSERT_TRUE(runtime().WriteBuffer(*buffer, 0, values.data(), bytes).ok());
  ClusterRuntime::LaunchSpec spec;
  spec.program = *program;
  spec.kernel_name = "doubler";
  spec.args = {KernelArgValue::Buffer(*buffer),
               KernelArgValue::Scalar<std::int32_t>(n)};
  spec.global[0] = n;
  spec.preferred_node = 0;
  ASSERT_TRUE(runtime().LaunchKernel(spec).ok());
  auto before = runtime().DirectorySnapshotOf(*buffer);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->regions.size(), 1u);
  ASSERT_EQ(before->regions[0].owners, (std::vector<std::int32_t>{0}));

  // Node 1 pulls the range straight from node 0: the host neither sends
  // nor receives a payload byte, and nothing is relayed.
  auto migrate = runtime().SubmitMigrate(*buffer, {{0, bytes}}, 1);
  ASSERT_TRUE(migrate.ok());
  ASSERT_TRUE(runtime().Wait(*migrate).ok());
  ASSERT_TRUE(runtime().ReleaseCommand(*migrate).ok());
  auto after = runtime().DirectorySnapshotOf(*buffer);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->stats.p2p_bytes - before->stats.p2p_bytes, bytes);
  EXPECT_EQ(after->stats.host_payload_bytes(),
            before->stats.host_payload_bytes());
  EXPECT_EQ(after->stats.relay_bytes, 0u);
  ASSERT_EQ(after->regions.size(), 1u);
  EXPECT_EQ(after->regions[0].owners, (std::vector<std::int32_t>{0, 1}));

  spec.preferred_node = 1;
  auto launch = runtime().LaunchKernel(spec);
  ASSERT_TRUE(launch.ok());
  EXPECT_EQ(launch->node, 1u);
  EXPECT_EQ(launch->bytes_shipped, 0u);
  std::vector<std::int32_t> got(n);
  ASSERT_TRUE(runtime().ReadBuffer(*buffer, 0, got.data(), bytes).ok());
  for (int i = 0; i < n; ++i) ASSERT_EQ(got[i], 4 * (i + 1)) << i;
}

TEST_F(ClusterRuntimeTest, MigrateDiscardTransfersNothingAndValidates) {
  const int n = 64;
  auto buffer = runtime().CreateBuffer(static_cast<std::uint64_t>(n) * 4);
  ASSERT_TRUE(buffer.ok());
  // Validation.
  EXPECT_EQ(runtime().SubmitMigrate(999, {}, 0).code(),
            ErrorCode::kInvalidMemObject);
  EXPECT_EQ(runtime().SubmitMigrate(*buffer, {}, 7).code(),
            ErrorCode::kInvalidValue);
  EXPECT_EQ(
      runtime().SubmitMigrate(*buffer, {{0, 0}}, 0).code(),
      ErrorCode::kInvalidValue);
  EXPECT_EQ(
      runtime()
          .SubmitMigrate(*buffer, {{static_cast<std::uint64_t>(n) * 4, 4}}, 0)
          .code(),
      ErrorCode::kInvalidValue);

  // CONTENT_UNDEFINED: ownership moves, no bytes do.
  auto migrate = runtime().SubmitMigrate(*buffer, {{0, 128}}, 0,
                                         /*discard_contents=*/true);
  ASSERT_TRUE(migrate.ok());
  ASSERT_TRUE(runtime().Wait(*migrate).ok());
  ASSERT_TRUE(runtime().ReleaseCommand(*migrate).ok());
  auto snapshot = runtime().DirectorySnapshotOf(*buffer);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_FALSE(snapshot->HostOwns(0, 128));
  EXPECT_TRUE(snapshot->HostOwns(128, n * 4));
  EXPECT_EQ(snapshot->stats.host_bytes_out, 0u);
  EXPECT_EQ(snapshot->stats.p2p_bytes, 0u);
}

// Property test: randomized writes (on the cluster device's or a node's
// queue) / copies / partitioned launches / migrations / reads, checked
// bit-identical against a host-only oracle after every read. The first
// pass waits for every op; the second submits the same op stream in queue
// order (each op ordered after the one before, as an in-order queue does)
// and waits only at reads, so commands queued behind in-flight work on the
// same node issue ahead.
TEST_F(ClusterRuntimeTest, RandomizedOpsMatchHostOnlyOracle) {
  constexpr char kBump[] = R"(
    __kernel void bump(__global int* data, int n) {
      int i = get_global_id(0);
      if (i < n) data[i] = data[i] + 1;
    })";
  auto program = runtime().BuildProgram(kBump);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  constexpr std::size_t kBuffers = 3;
  constexpr std::uint64_t kBytes = 1024;  // 256 ints each.
  constexpr std::uint64_t kInts = kBytes / 4;
  const char* policies[] = {"user", "hetero_split"};

  auto run_pass = [&](bool pipelined) {
    SCOPED_TRACE(pipelined ? "pipelined" : "waited");
    std::vector<BufferId> ids;
    std::vector<std::vector<std::uint8_t>> oracle(
        kBuffers, std::vector<std::uint8_t>(kBytes, 0));
    for (std::size_t b = 0; b < kBuffers; ++b) {
      auto id = runtime().CreateBuffer(kBytes);
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }
    // Write sources stay valid until their commands complete.
    std::vector<std::vector<std::uint8_t>> sources;
    sources.reserve(250);
    CommandHandle tail;
    // Waits for the op (waited pass) or just chains the next one after it.
    auto settle = [&](const Expected<CommandHandle>& handle) {
      ASSERT_TRUE(handle.ok()) << handle.status().ToString();
      if (pipelined) {
        if (tail.valid()) ASSERT_TRUE(runtime().ReleaseCommand(tail).ok());
        tail = *handle;
        return;
      }
      ASSERT_TRUE(runtime().Wait(*handle).ok());
      ASSERT_TRUE(runtime().ReleaseCommand(*handle).ok());
    };
    auto after = [&]() {
      return tail.valid() ? std::vector<CommandHandle>{tail}
                          : std::vector<CommandHandle>{};
    };

    std::mt19937 rng(0xD17EC70);
    std::mt19937 device_rng(0xDE71CE);
    auto range_in = [&rng](std::uint64_t limit) {
      return std::uniform_int_distribution<std::uint64_t>(0, limit)(rng);
    };
    for (int op = 0; op < 250; ++op) {
      const std::size_t b = range_in(kBuffers - 1);
      switch (range_in(5)) {
        case 0: case 1: {  // Byte-granular write, on a random device's queue.
          const std::uint64_t offset = range_in(kBytes - 1);
          const std::uint64_t size = 1 + range_in(kBytes - offset - 1);
          sources.emplace_back(size);
          std::vector<std::uint8_t>& data = sources.back();
          for (auto& byte : data) byte = static_cast<std::uint8_t>(rng());
          // Its own stream, so the ops drawn above are the same as without
          // node-targeted writes.
          const int device = std::uniform_int_distribution<int>(
              ClusterRuntime::kClusterDevice,
              static_cast<int>(runtime().devices().size()) - 1)(device_rng);
          ASSERT_NO_FATAL_FAILURE(settle(runtime().SubmitWrite(
              ids[b], offset, data.data(), size, device, {}, after())));
          std::copy(data.begin(), data.end(), oracle[b].begin() + offset);
          break;
        }
        case 2: {  // Copy between (possibly identical) buffers.
          const std::size_t b2 = range_in(kBuffers - 1);
          const std::uint64_t src = range_in(kBytes - 1);
          const std::uint64_t dst = range_in(kBytes - 1);
          const std::uint64_t size =
              1 + range_in(std::min(kBytes - src, kBytes - dst) - 1);
          ASSERT_NO_FATAL_FAILURE(settle(runtime().SubmitCopy(
              ids[b], src, ids[b2], dst, size, {}, after())));
          std::vector<std::uint8_t> staged(
              oracle[b].begin() + src, oracle[b].begin() + src + size);
          std::copy(staged.begin(), staged.end(), oracle[b2].begin() + dst);
          break;
        }
        case 3: {  // Partitioned launch over a random index window.
          const std::uint64_t start = range_in(kInts - 2);
          const std::uint64_t count = 1 + range_in(kInts - start - 1);
          ASSERT_TRUE(runtime().SetScheduler(policies[range_in(1)]).ok());
          ClusterRuntime::LaunchSpec spec;
          spec.program = *program;
          spec.kernel_name = "bump";
          spec.args = {
              KernelArgValue::PartitionedBuffer(ids[b], 4),
              KernelArgValue::Scalar<std::int32_t>(
                  static_cast<std::int32_t>(start + count))};
          spec.global[0] = count;
          spec.global_offset[0] = start;
          // FPGA nodes run only pre-built kernels; user-directed launches
          // of this source kernel stick to the GPU nodes.
          spec.preferred_node =
              runtime().scheduler_name() == "user"
                  ? static_cast<int>(range_in(1))
                  : -1;
          ASSERT_NO_FATAL_FAILURE(
              settle(runtime().SubmitLaunch(spec, {}, after())));
          for (std::uint64_t i = start; i < start + count; ++i) {
            std::int32_t v;
            std::memcpy(&v, oracle[b].data() + i * 4, 4);
            v += 1;
            std::memcpy(oracle[b].data() + i * 4, &v, 4);
          }
          break;
        }
        case 4: {  // Content-preserving migration (oracle unchanged).
          const std::uint64_t offset = range_in(kBytes - 1);
          const std::uint64_t size = 1 + range_in(kBytes - offset - 1);
          const int target =
              range_in(runtime().devices().size()) == 0
                  ? ClusterRuntime::kMigrateToHost
                  : static_cast<int>(
                        range_in(runtime().devices().size() - 1));
          ASSERT_NO_FATAL_FAILURE(settle(runtime().SubmitMigrate(
              ids[b], {{offset, size}}, target, false, {}, after())));
          break;
        }
        case 5: {  // Read-back a window and compare against the oracle.
          const std::uint64_t offset = range_in(kBytes - 1);
          const std::uint64_t size = 1 + range_in(kBytes - offset - 1);
          std::vector<std::uint8_t> got(size);
          auto read = runtime().SubmitRead(ids[b], offset, got.data(), size,
                                           {}, after());
          ASSERT_TRUE(read.ok());
          ASSERT_TRUE(runtime().Wait(*read).ok()) << "op " << op;
          ASSERT_NO_FATAL_FAILURE(settle(read));
          ASSERT_EQ(std::memcmp(got.data(), oracle[b].data() + offset, size),
                    0)
              << "divergence at op " << op;
          break;
        }
      }
    }
    ASSERT_TRUE(runtime().Finish().ok());
    if (tail.valid()) ASSERT_TRUE(runtime().ReleaseCommand(tail).ok());
    // Final full sweep: every buffer bit-identical to the oracle.
    for (std::size_t b = 0; b < kBuffers; ++b) {
      std::vector<std::uint8_t> got(kBytes);
      ASSERT_TRUE(runtime().ReadBuffer(ids[b], 0, got.data(), kBytes).ok());
      ASSERT_EQ(got, oracle[b]) << "buffer " << b;
    }
  };
  ASSERT_NO_FATAL_FAILURE(run_pass(/*pipelined=*/false));
  ASSERT_NO_FATAL_FAILURE(run_pass(/*pipelined=*/true));
}

// ---- Scheduler feedback loop ---------------------------------------------

TEST(SchedulerFeedbackTest, BacklogDrainsAndLeastLoadedAlternatesAfter10k) {
  // Regression for the poisoned backlog signal: node_busy_ahead_ used to
  // only ever grow, so after a long session load-aware policies steered
  // on cumulative history instead of actual in-flight work. After 10k
  // COMPLETED launches the estimate must be back at ~0 and `leastloaded`
  // must still spread concurrent submissions across both nodes.
  workloads::RegisterAllNativeKernels();
  auto cluster = SimCluster::Create({.cpu_nodes = 2});
  ASSERT_TRUE(cluster.ok());
  auto& rt = (*cluster)->runtime();
  ASSERT_TRUE(rt.SetScheduler("leastloaded").ok());
  auto program = rt.BuildProgram(kDoubler);
  ASSERT_TRUE(program.ok());
  const int n = 4;
  auto buffer0 = rt.CreateBuffer(n * 4);
  auto buffer1 = rt.CreateBuffer(n * 4);
  ASSERT_TRUE(buffer0.ok() && buffer1.ok());
  std::vector<std::int32_t> values(n, 1);
  ASSERT_TRUE(rt.WriteBuffer(*buffer0, 0, values.data(), n * 4).ok());
  ASSERT_TRUE(rt.WriteBuffer(*buffer1, 0, values.data(), n * 4).ok());

  auto spec_for = [&](BufferId id) {
    ClusterRuntime::LaunchSpec spec;
    spec.program = *program;
    spec.kernel_name = "doubler";
    spec.args = {KernelArgValue::Buffer(id),
                 KernelArgValue::Scalar<std::int32_t>(n)};
    spec.global[0] = n;
    return spec;
  };

  // Age the session: 10,000 completed launches.
  for (int i = 0; i < 10000; ++i) {
    ASSERT_TRUE(rt.LaunchKernel(spec_for(i % 2 == 0 ? *buffer0 : *buffer1))
                    .ok())
        << "launch " << i;
  }
  ASSERT_TRUE(rt.Finish().ok());
  EXPECT_NEAR(rt.SchedulerBacklogSeconds(0), 0.0, 1e-9);
  EXPECT_NEAR(rt.SchedulerBacklogSeconds(1), 0.0, 1e-9);

  // Concurrent pairs on independent buffers must still alternate: the
  // submit-time charge makes the second submit see the first one's node
  // as loaded. A marker gates execution so both placement decisions
  // happen while the pair is genuinely pending. (With the
  // monotonic-growth bug, whichever node had the smaller historical
  // total got BOTH launches of every pair.)
  for (int pair = 0; pair < 20; ++pair) {
    auto gate = rt.SubmitMarker();
    ASSERT_TRUE(gate.ok());
    auto a = rt.SubmitLaunch(spec_for(*buffer0), {*gate});
    auto b = rt.SubmitLaunch(spec_for(*buffer1), {*gate});
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(rt.CompleteMarker(*gate).ok());
    ASSERT_TRUE(rt.ReleaseCommand(*gate).ok());
    ASSERT_TRUE(rt.Wait(*a).ok());
    ASSERT_TRUE(rt.Wait(*b).ok());
    auto ra = rt.LaunchResultOf(*a);
    auto rb = rt.LaunchResultOf(*b);
    ASSERT_TRUE(ra.ok() && rb.ok());
    EXPECT_NE(ra->node, rb->node) << "pair " << pair;
    ASSERT_TRUE(rt.ReleaseCommand(*a).ok());
    ASSERT_TRUE(rt.ReleaseCommand(*b).ok());
  }
  ASSERT_TRUE(rt.Finish().ok());
  EXPECT_NEAR(rt.SchedulerBacklogSeconds(0), 0.0, 1e-9);
  EXPECT_NEAR(rt.SchedulerBacklogSeconds(1), 0.0, 1e-9);
}

TEST(SchedulerFeedbackTest, ShardedAndUnsplitLaunchesConvergeToSameRate) {
  // The per-shard rate sample divides each shard's modeled seconds by the
  // flops the cost model charges THAT shard — so a 2-shard co-execution
  // and an unsplit launch of the same kernel must learn the same
  // observed_seconds_per_flop. (The old sample divided the node's static
  // instruction-mix pair regardless of the analytic hint, biasing every
  // prediction that multiplied the rate by hint flops.)
  workloads::RegisterAllNativeKernels();
  const int n = 4096;
  sim::KernelCost hint;
  hint.flops = 1e9;  // Compute-bound: launch overhead stays negligible.
  hint.bytes = 4e6;
  hint.work_items = n;

  auto launch = [&](ClusterRuntime& rt, ProgramId program, BufferId buffer,
                    int preferred) {
    ClusterRuntime::LaunchSpec spec;
    spec.program = program;
    spec.kernel_name = "doubler";
    spec.args = {KernelArgValue::PartitionedBuffer(buffer, 4),
                 KernelArgValue::Scalar<std::int32_t>(n)};
    spec.global[0] = n;
    spec.preferred_node = preferred;
    spec.cost_hint = hint;
    return rt.LaunchKernel(spec);
  };
  auto prepare = [&](ClusterRuntime& rt, ProgramId* program,
                     BufferId* buffer) {
    auto p = rt.BuildProgram(kDoubler);
    ASSERT_TRUE(p.ok());
    auto b = rt.CreateBuffer(static_cast<std::uint64_t>(n) * 4);
    ASSERT_TRUE(b.ok());
    std::vector<std::int32_t> values(n, 1);
    ASSERT_TRUE(rt.WriteBuffer(*b, 0, values.data(), n * 4).ok());
    *program = *p;
    *buffer = *b;
  };

  // Unsplit reference on a single-node cluster.
  auto single = SimCluster::Create({.cpu_nodes = 1});
  ASSERT_TRUE(single.ok());
  ProgramId program = 0;
  BufferId buffer = 0;
  prepare((*single)->runtime(), &program, &buffer);
  auto result = launch((*single)->runtime(), program, buffer, 0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->shard_count, 1u);
  const auto unsplit = (*single)->runtime().ObservedKernelRate(0, "doubler");
  ASSERT_EQ(unsplit.samples, 1u);
  ASSERT_GT(unsplit.seconds_per_flop, 0.0);

  // The same kernel co-executed as 2 shards on two identical nodes.
  auto split = SimCluster::Create({.cpu_nodes = 2});
  ASSERT_TRUE(split.ok());
  auto& rt = (*split)->runtime();
  ASSERT_TRUE(rt.SetScheduler("hetero_split").ok());
  prepare(rt, &program, &buffer);
  result = launch(rt, program, buffer, -1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->shard_count, 2u);
  for (std::size_t node = 0; node < 2; ++node) {
    const auto sharded = rt.ObservedKernelRate(node, "doubler");
    ASSERT_EQ(sharded.samples, 1u) << "node " << node;
    EXPECT_NEAR(sharded.seconds_per_flop, unsplit.seconds_per_flop,
                0.01 * unsplit.seconds_per_flop)
        << "node " << node;
  }
}

TEST(SchedulerFeedbackTest, AdaptiveSplitConvergesOnMiscalibratedNode) {
  // Acceptance scenario: two spec-identical CPU nodes, but node 1's REAL
  // silicon runs at 1/3 of the spec sheet. The static hetero_split plan
  // stays 50/50 forever; adaptive_split must re-split from the observed
  // shard rates and reach a makespan within 10% of the oracle split
  // within 4 chained launches.
  workloads::RegisterAllNativeKernels();
  auto cluster = SimCluster::Create({.cpu_nodes = 2}, {},
                                    SimCluster::PeerTopology::kFullMesh,
                                    {1.0, 1.0 / 3.0});
  ASSERT_TRUE(cluster.ok());
  auto& rt = (*cluster)->runtime();
  ASSERT_TRUE(rt.SetScheduler("adaptive_split").ok());
  auto program = rt.BuildProgram(kDoubler);
  ASSERT_TRUE(program.ok());
  const int n = 4096;
  auto buffer = rt.CreateBuffer(static_cast<std::uint64_t>(n) * 4);
  ASSERT_TRUE(buffer.ok());
  std::vector<std::int32_t> values(n, 1);
  ASSERT_TRUE(rt.WriteBuffer(*buffer, 0, values.data(), n * 4).ok());

  sim::KernelCost hint;
  hint.flops = 2e9;
  hint.bytes = 1e6;
  hint.work_items = n;
  ClusterRuntime::LaunchSpec spec;
  spec.program = *program;
  spec.kernel_name = "doubler";
  spec.args = {KernelArgValue::PartitionedBuffer(*buffer, 4),
               KernelArgValue::Scalar<std::int32_t>(n)};
  spec.global[0] = n;
  spec.cost_hint = hint;

  std::vector<double> makespans;
  for (int iteration = 0; iteration < 4; ++iteration) {
    auto result = rt.LaunchKernel(spec);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->shard_count, 2u) << "iteration " << iteration;
    makespans.push_back(result->modeled_seconds);
  }

  // Oracle from the CONVERGED observed rates: the ideal split finishes
  // both shards together, total throughput = sum of node speeds.
  const auto rate0 = rt.ObservedKernelRate(0, "doubler");
  const auto rate1 = rt.ObservedKernelRate(1, "doubler");
  ASSERT_GT(rate0.samples, 0u);
  ASSERT_GT(rate1.samples, 0u);
  // The mis-calibration is visible in the observed rates (~3x apart).
  EXPECT_NEAR(rate1.seconds_per_flop / rate0.seconds_per_flop, 3.0, 0.45);
  const double oracle = hint.flops / (1.0 / rate0.seconds_per_flop +
                                      1.0 / rate1.seconds_per_flop);
  // First (static-model) launch split 50/50, so the slow node straggled
  // at ~1.5x the oracle makespan; the converged plan is within 10%.
  EXPECT_GT(makespans.front(), 1.4 * oracle);
  EXPECT_LE(makespans.back(), 1.1 * oracle);
  // And the feedback drained cleanly.
  ASSERT_TRUE(rt.Finish().ok());
  EXPECT_NEAR(rt.SchedulerBacklogSeconds(0), 0.0, 1e-9);
  EXPECT_NEAR(rt.SchedulerBacklogSeconds(1), 0.0, 1e-9);

  // Functional correctness survived every re-split: 4 doublings.
  std::vector<std::int32_t> got(n);
  ASSERT_TRUE(rt.ReadBuffer(*buffer, 0, got.data(), n * 4).ok());
  for (int i = 0; i < n; ++i) ASSERT_EQ(got[i], 16) << i;
}

TEST(ClusterRuntimeErrorsTest, EmptyConnectionListRejected) {
  auto runtime = ClusterRuntime::Connect({});
  EXPECT_FALSE(runtime.ok());
}

TEST(ClusterRuntimeErrorsTest, DeadNodeFailsHandshake) {
  auto [host_end, node_end] = net::CreateSimChannel();
  node_end->Start([](net::Message) { /* mute node */ });
  std::vector<net::ConnectionPtr> connections;
  connections.push_back(std::move(host_end));
  RuntimeOptions options;
  options.rpc_timeout = std::chrono::milliseconds(200);
  auto runtime = ClusterRuntime::Connect(std::move(connections), options);
  EXPECT_FALSE(runtime.ok());
  node_end->Close();
}

TEST(ClusterRuntimeErrorsTest, HelloWithOtherProtocolVersionFails) {
  // A node that answers the handshake speaking another protocol version.
  auto [host_end, node_end] = net::CreateSimChannel();
  net::Connection* node = node_end.get();
  node_end->Start([node](net::Message request) {
    net::HelloReply hello;
    hello.protocol_version = net::kProtocolVersion + 1;
    net::Message reply;
    reply.type = net::MsgType::kHelloReply;
    reply.seq = request.seq;
    reply.session = request.session;
    reply.payload = net::Encode(hello);
    (void)node->Send(reply);
  });
  std::vector<net::ConnectionPtr> connections;
  connections.push_back(std::move(host_end));
  auto runtime = ClusterRuntime::Connect(std::move(connections), {});
  ASSERT_FALSE(runtime.ok());
  EXPECT_EQ(runtime.code(), ErrorCode::kProtocolError);
  const std::string message = runtime.status().message();
  EXPECT_NE(message.find("version " +
                         std::to_string(net::kProtocolVersion + 1)),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("host speaks " +
                         std::to_string(net::kProtocolVersion)),
            std::string::npos)
      << message;
  node_end->Close();
}

}  // namespace
}  // namespace haocl::host
