// Tiered device memory: capacity accounting, LRU spill/eviction, and
// out-of-core staged launches. Nodes get deliberately tiny capacities via
// SimCluster's mem_capacities override so a few kilobytes of buffers
// exercise the same machinery gigabytes would.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "host/sim_cluster.h"

namespace haocl::host {
namespace {

constexpr char kDoublerSource[] = R"(
__kernel void doubler2(__global int* data, int n) {
  int i = get_global_id(0);
  if (i < n) data[i] = data[i] * 2;
}
)";

constexpr char kRowSumSource[] = R"(
__kernel void rowsum_tiered(__global const float* in, __global float* out,
                            int m) {
  int i = get_global_id(0);
  float s = 0.0f;
  for (int j = 0; j < m; j++) {
    s = s + in[i * m + j];
  }
  out[i] = s;
}
)";

constexpr char kMatmulSource[] = R"(
__kernel void mm_tiered(__global const float* a, __global const float* b,
                        __global float* c, int n, int rows) {
  int row = get_global_id(0);
  int col = get_global_id(1);
  if (row >= rows || col >= n) return;
  float acc = 0.0f;
  for (int k = 0; k < n; k++) {
    acc += a[row * n + k] * b[k * n + col];
  }
  c[row * n + col] = acc;
}
)";

std::unique_ptr<SimCluster> MakeCluster(
    SimCluster::Shape shape, std::vector<std::uint64_t> capacities,
    RuntimeOptions options = {}) {
  auto cluster =
      SimCluster::Create(shape, std::move(options),
                         SimCluster::PeerTopology::kFullMesh, {},
                         std::move(capacities));
  EXPECT_TRUE(cluster.ok()) << cluster.status().ToString();
  return cluster.ok() ? *std::move(cluster) : nullptr;
}

// Blocking doubler launch of `buffer` (whole range) on `node`.
Expected<LaunchResult> LaunchDoubler(ClusterRuntime& runtime,
                                     ProgramId program, BufferId buffer,
                                     std::uint64_t elements, int node) {
  ClusterRuntime::LaunchSpec spec;
  spec.program = program;
  spec.kernel_name = "doubler2";
  spec.args = {KernelArgValue::PartitionedBuffer(buffer, 4),
               KernelArgValue::Scalar<std::int32_t>(
                   static_cast<std::int32_t>(elements))};
  spec.global[0] = elements;
  spec.preferred_node = node;
  return runtime.LaunchKernel(spec);
}

TEST(TieredMemoryTest, HandshakeReportsCapacity) {
  auto cluster = MakeCluster({.gpu_nodes = 1, .cpu_nodes = 1}, {4096, 0});
  ASSERT_NE(cluster, nullptr);
  auto& runtime = cluster->runtime();
  ASSERT_EQ(runtime.devices().size(), 2u);
  EXPECT_EQ(runtime.devices()[0].mem_capacity_bytes, 4096u);
  // The CPU node keeps its stock preset.
  EXPECT_EQ(runtime.devices()[1].mem_capacity_bytes, 64ull << 30);
  auto stats = runtime.NodeMemoryStatsOf(0);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->capacity_bytes, 4096u);
  EXPECT_EQ(stats->resident_bytes, 0u);
  auto view = runtime.QueryClusterView();
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->nodes[0].mem_capacity_bytes, 4096u);
  EXPECT_EQ(view->nodes[0].mem_free_bytes, 4096u);
  EXPECT_FALSE(runtime.NodeMemoryStatsOf(7).ok());
}

TEST(TieredMemoryTest, NodeQueueWriteLargerThanTheTierLandsInTheShadow) {
  auto cluster = MakeCluster({.gpu_nodes = 1, .cpu_nodes = 1}, {4096, 0});
  ASSERT_NE(cluster, nullptr);
  auto& runtime = cluster->runtime();
  auto buffer = runtime.CreateBuffer(8192);
  ASSERT_TRUE(buffer.ok());
  std::vector<std::int32_t> values(2048);
  for (int i = 0; i < 2048; ++i) values[i] = 3 * i - 100;
  auto write_on_node0 = [&](std::uint64_t bytes) {
    auto write = runtime.SubmitWrite(*buffer, 0, values.data(), bytes, 0);
    ASSERT_TRUE(write.ok());
    ASSERT_TRUE(runtime.Wait(*write).ok());
    ASSERT_TRUE(runtime.ReleaseCommand(*write).ok());
  };
  auto expect_reads_back = [&] {
    std::vector<std::int32_t> got(2048);
    ASSERT_TRUE(runtime.ReadBuffer(*buffer, 0, got.data(), 8192).ok());
    EXPECT_EQ(got, values);
  };

  // 8 KiB cannot fit node 0's 4 KiB tier: the write takes the shadow.
  write_on_node0(8192);
  auto snapshot = runtime.DirectorySnapshotOf(*buffer);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_TRUE(snapshot->HostOwns(0, 8192));
  EXPECT_EQ(snapshot->stats.host_bytes_out, 0u);
  EXPECT_EQ(runtime.NodeMemoryStatsOf(0)->resident_bytes, 0u);
  expect_reads_back();

  // 4 KiB fits, so that write goes to the node.
  write_on_node0(4096);
  snapshot = runtime.DirectorySnapshotOf(*buffer);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_FALSE(snapshot->HostOwns(0, 4096));
  EXPECT_TRUE(snapshot->HostOwns(4096, 8192));
  EXPECT_EQ(snapshot->stats.host_bytes_out, 4096u);
  EXPECT_EQ(runtime.NodeMemoryStatsOf(0)->resident_bytes, 4096u);
  EXPECT_EQ(cluster->server(0).bytes_resident(), 4096u);
  expect_reads_back();
}

// The node's ledger can refuse bytes the host's per-node ledger admitted:
// it also enforces tenant quotas and the other sessions' residency, which
// the host does not see. A refused transfer must hand back the host-side
// charge, or the two ledgers drift apart for good.
TEST(TieredMemoryTest, QuotaRefusedNodeWriteReleasesTheHostCharge) {
  RuntimeOptions options;
  options.tenant_mem_quota_bytes = 4096;
  auto cluster = MakeCluster({.gpu_nodes = 2}, {}, options);
  ASSERT_NE(cluster, nullptr);
  auto& runtime = cluster->runtime();
  auto program = runtime.BuildProgram(kDoublerSource);
  ASSERT_TRUE(program.ok());
  auto buffer = runtime.CreateBuffer(8192);
  ASSERT_TRUE(buffer.ok());
  std::vector<std::int32_t> values(2048);
  for (int i = 0; i < 2048; ++i) values[i] = 5 * i - 9;

  // The 8 KiB write fits the device but not the 4 KiB quota: the node
  // refuses it and the write lands in the shadow.
  auto write = runtime.SubmitWrite(*buffer, 0, values.data(), 8192, 0);
  ASSERT_TRUE(write.ok());
  ASSERT_TRUE(runtime.Wait(*write).ok());
  ASSERT_TRUE(runtime.ReleaseCommand(*write).ok());
  ASSERT_TRUE(runtime.Finish().ok());
  auto snapshot = runtime.DirectorySnapshotOf(*buffer);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_TRUE(snapshot->HostOwns(0, 8192));
  EXPECT_EQ(cluster->server(0).bytes_resident(), 0u);
  EXPECT_EQ(runtime.NodeMemoryStatsOf(0)->resident_bytes,
            cluster->server(0).bytes_resident());

  // A launch over the whole buffer on node 0 is refused in its prologue
  // transfer, as before, and leaves the ledgers equal too.
  auto launch = LaunchDoubler(runtime, *program, *buffer, 2048, 0);
  ASSERT_FALSE(launch.ok());
  EXPECT_EQ(launch.status().code(), ErrorCode::kMemObjectAllocationFailure);
  ASSERT_TRUE(runtime.Finish().ok());
  EXPECT_EQ(runtime.NodeMemoryStatsOf(0)->resident_bytes,
            cluster->server(0).bytes_resident());

  std::vector<std::int32_t> got(2048);
  ASSERT_TRUE(runtime.ReadBuffer(*buffer, 0, got.data(), 8192).ok());
  EXPECT_EQ(got, values);
}

// A discard migration moves no bytes, so only its reservation notice tells
// the node; a node that refuses the notice must not become the owner, and
// the host charge goes back.
TEST(TieredMemoryTest, RefusedDiscardMigrationReleasesTheHostCharge) {
  RuntimeOptions options;
  options.tenant_mem_quota_bytes = 4096;
  auto cluster = MakeCluster({.gpu_nodes = 2}, {}, options);
  ASSERT_NE(cluster, nullptr);
  auto& runtime = cluster->runtime();
  auto buffer = runtime.CreateBuffer(8192);
  ASSERT_TRUE(buffer.ok());
  std::vector<std::int32_t> values(2048);
  for (int i = 0; i < 2048; ++i) values[i] = 7 * i + 3;
  ASSERT_TRUE(runtime.WriteBuffer(*buffer, 0, values.data(), 8192).ok());

  auto migrate = runtime.SubmitMigrate(*buffer, {}, 0,
                                       /*discard_contents=*/true);
  ASSERT_TRUE(migrate.ok());
  EXPECT_EQ(runtime.Wait(*migrate).code(),
            ErrorCode::kMemObjectAllocationFailure);
  ASSERT_TRUE(runtime.ReleaseCommand(*migrate).ok());
  ASSERT_TRUE(runtime.Finish().ok());
  EXPECT_EQ(cluster->server(0).bytes_resident(), 0u);
  EXPECT_EQ(runtime.NodeMemoryStatsOf(0)->resident_bytes,
            cluster->server(0).bytes_resident());
  std::vector<std::int32_t> got(2048);
  ASSERT_TRUE(runtime.ReadBuffer(*buffer, 0, got.data(), 8192).ok());
  EXPECT_EQ(got, values);
}

TEST(TieredMemoryTest, NodeFullOfAnotherSessionReleasesTheHostCharge) {
  RuntimeOptions options;
  options.session_id = 1;
  options.tenant_name = "alpha";
  auto cluster =
      MakeCluster({.gpu_nodes = 2}, {16384, 16384}, std::move(options));
  ASSERT_NE(cluster, nullptr);
  auto& runtime = cluster->runtime();
  RuntimeOptions other_options;
  other_options.session_id = 2;
  other_options.tenant_name = "beta";
  auto other = cluster->ConnectSecondSession(other_options);
  ASSERT_TRUE(other.ok()) << other.status().ToString();

  // The other session fills node 0's 16 KiB.
  std::vector<std::int32_t> fill(4096, 1);
  auto full = (*other)->CreateBuffer(16384);
  ASSERT_TRUE(full.ok());
  auto filled = (*other)->SubmitWrite(*full, 0, fill.data(), 16384, 0);
  ASSERT_TRUE(filled.ok());
  ASSERT_TRUE((*other)->Wait(*filled).ok());
  ASSERT_TRUE((*other)->Finish().ok());
  ASSERT_EQ(cluster->server(0).bytes_resident(), 16384u);

  // This session's own view of node 0 is empty, so its ledger admits the
  // 8 KiB; the node refuses it and the write lands in the shadow.
  std::vector<std::int32_t> values(2048, 3);
  auto buffer = runtime.CreateBuffer(8192);
  ASSERT_TRUE(buffer.ok());
  auto write = runtime.SubmitWrite(*buffer, 0, values.data(), 8192, 0);
  ASSERT_TRUE(write.ok());
  ASSERT_TRUE(runtime.Wait(*write).ok());
  ASSERT_TRUE(runtime.ReleaseCommand(*write).ok());
  ASSERT_TRUE(runtime.Finish().ok());
  auto snapshot = runtime.DirectorySnapshotOf(*buffer);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_TRUE(snapshot->HostOwns(0, 8192));

  auto broker = runtime.QueryBrokerStats(0);
  ASSERT_TRUE(broker.ok()) << broker.status().ToString();
  std::uint64_t own_resident = ~0ull;
  for (const net::BrokerTenantEntry& tenant : broker->tenants) {
    if (tenant.session == 1) own_resident = tenant.resident_bytes;
  }
  EXPECT_EQ(own_resident, 0u);
  auto stats = runtime.NodeMemoryStatsOf(0);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->resident_bytes, own_resident);
  EXPECT_EQ(stats->free_bytes, 16384u);
  (*other)->Disconnect();
}

TEST(TieredMemoryTest, LaunchReservesWorkingSetInBothLedgers) {
  auto cluster = MakeCluster({.gpu_nodes = 1}, {8192});
  ASSERT_NE(cluster, nullptr);
  auto& runtime = cluster->runtime();
  auto program = runtime.BuildProgram(kDoublerSource);
  ASSERT_TRUE(program.ok());
  auto buffer = runtime.CreateBuffer(4096);
  ASSERT_TRUE(buffer.ok());
  std::vector<std::int32_t> values(1024, 3);
  ASSERT_TRUE(runtime.WriteBuffer(*buffer, 0, values.data(), 4096).ok());
  ASSERT_TRUE(LaunchDoubler(runtime, *program, *buffer, 1024, 0).ok());
  auto stats = runtime.NodeMemoryStatsOf(0);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->resident_bytes, 4096u);
  // The node's own ledger agrees with the host's.
  EXPECT_EQ(cluster->server(0).bytes_resident(), 4096u);
}

TEST(TieredMemoryTest, LruEvictionSpillsColdestBuffer) {
  auto cluster = MakeCluster({.gpu_nodes = 1}, {8192});
  ASSERT_NE(cluster, nullptr);
  auto& runtime = cluster->runtime();
  auto program = runtime.BuildProgram(kDoublerSource);
  ASSERT_TRUE(program.ok());
  BufferId buffers[3];
  std::vector<std::int32_t> values(1024, 5);
  for (auto& id : buffers) {
    auto buffer = runtime.CreateBuffer(4096);
    ASSERT_TRUE(buffer.ok());
    ASSERT_TRUE(runtime.WriteBuffer(*buffer, 0, values.data(), 4096).ok());
    id = *buffer;
  }
  // A then B fill the 8 KiB tier; C forces the eviction of A (the
  // least-recently-launched buffer), whose only fresh copy is the node's —
  // so it spills to the host shadow.
  ASSERT_TRUE(LaunchDoubler(runtime, *program, buffers[0], 1024, 0).ok());
  ASSERT_TRUE(LaunchDoubler(runtime, *program, buffers[1], 1024, 0).ok());
  const TransferStats before = runtime.transfer_stats();
  EXPECT_EQ(before.spill_bytes, 0u);
  ASSERT_TRUE(LaunchDoubler(runtime, *program, buffers[2], 1024, 0).ok());
  auto stats = runtime.NodeMemoryStatsOf(0);
  ASSERT_TRUE(stats.ok());
  EXPECT_LE(stats->resident_bytes, 8192u);
  EXPECT_EQ(cluster->server(0).bytes_resident(), stats->resident_bytes);
  const TransferStats after = runtime.transfer_stats();
  EXPECT_EQ(after.spill_bytes, 4096u);
  EXPECT_EQ(after.spill_transfers, 1u);
  EXPECT_GE(after.evicted_bytes, 4096u);
  // The spill is NOT host coherence payload (BENCH_p2p's metric): C's own
  // input legitimately shipped host -> node, but nothing was gathered.
  EXPECT_EQ(after.host_bytes_in, before.host_bytes_in);
  EXPECT_EQ(after.host_bytes_out, before.host_bytes_out + 4096);
  // A's fresh bytes now live in the host shadow: the read needs no wire
  // traffic and sees the doubled values.
  auto snapshot = runtime.DirectorySnapshotOf(buffers[0]);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_TRUE(snapshot->HostOwns(0, 4096));
  std::vector<std::int32_t> readback(1024);
  ASSERT_TRUE(runtime.ReadBuffer(buffers[0], 0, readback.data(), 4096).ok());
  for (std::int32_t v : readback) ASSERT_EQ(v, 10);
  const TransferStats read_stats = runtime.transfer_stats();
  EXPECT_EQ(read_stats.host_bytes_in, after.host_bytes_in);
}

TEST(TieredMemoryTest, CreateBufferBeyondClusterCapacityFails) {
  auto cluster = MakeCluster({.gpu_nodes = 2}, {4096, 8192});
  ASSERT_NE(cluster, nullptr);
  auto& runtime = cluster->runtime();
  EXPECT_TRUE(runtime.CreateBuffer(12288).ok());  // Exactly the sum.
  auto too_big = runtime.CreateBuffer(12289);
  ASSERT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.code(), ErrorCode::kMemObjectAllocationFailure);
}

TEST(OocLaunchTest, OversubscribedDoublerRunsStagedAndBitIdentical) {
  // Working set 4 KiB against the GPU's 1 KiB tier: 4x oversubscribed.
  // The stage budget double-buffers, so stages are 128 elements (512
  // bytes) each. The roomy CPU node keeps the cluster-wide capacity (the
  // honest clCreateBuffer bound) above the buffer size.
  auto cluster = MakeCluster({.gpu_nodes = 1, .cpu_nodes = 1},
                             {1024, 1 << 20});
  ASSERT_NE(cluster, nullptr);
  auto& runtime = cluster->runtime();
  auto program = runtime.BuildProgram(kDoublerSource);
  ASSERT_TRUE(program.ok());
  auto buffer = runtime.CreateBuffer(4096);
  ASSERT_TRUE(buffer.ok());
  std::vector<std::int32_t> values(1024);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<std::int32_t>(i);
  }
  ASSERT_TRUE(runtime.WriteBuffer(*buffer, 0, values.data(), 4096).ok());
  auto result = LaunchDoubler(runtime, *program, *buffer, 1024, 0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->shard_count, 1u);
  EXPECT_EQ(result->stage_count, 8u);  // 1024 / 128.
  auto stats = runtime.NodeMemoryStatsOf(0);
  ASSERT_TRUE(stats.ok());
  EXPECT_LE(stats->resident_bytes, 1024u);
  std::vector<std::int32_t> readback(1024);
  ASSERT_TRUE(runtime.ReadBuffer(*buffer, 0, readback.data(), 4096).ok());
  for (std::size_t i = 0; i < readback.size(); ++i) {
    ASSERT_EQ(readback[i], values[i] * 2) << "element " << i;
  }
}

// Runs the mm_tiered matmul on one GPU with the given capacity override
// (0 = unbounded) and returns the output matrix.
std::vector<float> RunMatmul(std::uint64_t capacity,
                             std::uint32_t* stage_count) {
  constexpr int kN = 64;
  auto cluster = MakeCluster({.gpu_nodes = 1},
                             capacity != 0 ? std::vector<std::uint64_t>{capacity}
                                           : std::vector<std::uint64_t>{});
  EXPECT_NE(cluster, nullptr);
  auto& runtime = cluster->runtime();
  auto program = runtime.BuildProgram(kMatmulSource);
  EXPECT_TRUE(program.ok()) << runtime.BuildLog(program.ok() ? *program : 0);
  const std::uint64_t bytes = static_cast<std::uint64_t>(kN) * kN * 4;
  auto a = runtime.CreateBuffer(bytes);
  auto b = runtime.CreateBuffer(bytes);
  auto c = runtime.CreateBuffer(bytes);
  EXPECT_TRUE(a.ok() && b.ok() && c.ok());
  std::vector<float> host_a(static_cast<std::size_t>(kN) * kN);
  std::vector<float> host_b(host_a.size());
  std::mt19937 rng(42);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (auto& v : host_a) v = dist(rng);
  for (auto& v : host_b) v = dist(rng);
  EXPECT_TRUE(runtime.WriteBuffer(*a, 0, host_a.data(), bytes).ok());
  EXPECT_TRUE(runtime.WriteBuffer(*b, 0, host_b.data(), bytes).ok());

  ClusterRuntime::LaunchSpec spec;
  spec.program = *program;
  spec.kernel_name = "mm_tiered";
  const std::uint64_t row_bytes = kN * 4;
  spec.args = {KernelArgValue::PartitionedBuffer(*a, row_bytes),
               KernelArgValue::Buffer(*b),
               KernelArgValue::PartitionedBuffer(*c, row_bytes),
               KernelArgValue::Scalar<std::int32_t>(kN),
               KernelArgValue::Scalar<std::int32_t>(kN)};
  spec.work_dim = 2;
  spec.global[0] = kN;
  spec.global[1] = kN;
  spec.preferred_node = 0;
  auto result = runtime.LaunchKernel(spec);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (result.ok() && stage_count != nullptr) {
    *stage_count = result->stage_count;
  }
  std::vector<float> out(host_a.size());
  EXPECT_TRUE(runtime.ReadBuffer(*c, 0, out.data(), bytes).ok());
  if (capacity != 0) {
    auto stats = runtime.NodeMemoryStatsOf(0);
    EXPECT_TRUE(stats.ok());
    if (stats.ok()) EXPECT_LE(stats->resident_bytes, capacity);
  }
  return out;
}

TEST(OocLaunchTest, OversubscribedMatmulBitIdenticalToInCore) {
  // b (16 KiB, replicated) + 64 rows x 512 B = 48 KiB working set against
  // a 24 KiB device: 2x oversubscribed, staged 8 rows at a time.
  std::uint32_t staged_stages = 0;
  std::uint32_t incore_stages = 0;
  const std::vector<float> staged = RunMatmul(24576, &staged_stages);
  const std::vector<float> incore = RunMatmul(0, &incore_stages);
  EXPECT_EQ(incore_stages, 1u);
  EXPECT_EQ(staged_stages, 8u);
  ASSERT_EQ(staged.size(), incore.size());
  for (std::size_t i = 0; i < staged.size(); ++i) {
    ASSERT_EQ(staged[i], incore[i]) << "element " << i;  // Bit-identical.
  }
}

// Virtual makespan of the oversubscribed rowsum with the staged pipeline
// on or off. Compute is hinted to roughly match the per-stage transfer
// time, the regime where overlapping transfers with compute pays.
double RowSumMakespan(bool pipelined) {
  constexpr std::uint64_t kRows = 8192;
  constexpr std::uint64_t kCols = 16;
  RuntimeOptions options;
  options.stage_pipeline = pipelined;
  auto cluster = MakeCluster({.gpu_nodes = 1, .cpu_nodes = 1},
                             {128 << 10, 4 << 20}, options);
  EXPECT_NE(cluster, nullptr);
  auto& runtime = cluster->runtime();
  auto program = runtime.BuildProgram(kRowSumSource);
  EXPECT_TRUE(program.ok());
  const std::uint64_t in_bytes = kRows * kCols * 4;
  const std::uint64_t out_bytes = kRows * 4;
  auto in = runtime.CreateBuffer(in_bytes);
  auto out = runtime.CreateBuffer(out_bytes);
  EXPECT_TRUE(in.ok() && out.ok());
  std::vector<float> host_in(kRows * kCols, 0.5f);
  EXPECT_TRUE(runtime.WriteBuffer(*in, 0, host_in.data(), in_bytes).ok());

  ClusterRuntime::LaunchSpec spec;
  spec.program = *program;
  spec.kernel_name = "rowsum_tiered";
  spec.args = {KernelArgValue::PartitionedBuffer(*in, kCols * 4),
               KernelArgValue::PartitionedBuffer(*out, 4),
               KernelArgValue::Scalar<std::int32_t>(kCols)};
  spec.global[0] = kRows;
  spec.preferred_node = 0;
  sim::KernelCost cost;
  cost.flops = 2.8e10;  // ~0.6 ms per stage on the modeled GPU.
  cost.bytes = 1e6;
  spec.cost_hint = cost;
  const double start = runtime.timeline().Makespan();
  auto result = runtime.LaunchKernel(spec);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (result.ok()) EXPECT_GT(result->stage_count, 4u);
  std::vector<float> host_out(kRows);
  EXPECT_TRUE(runtime.ReadBuffer(*out, 0, host_out.data(), out_bytes).ok());
  for (float v : host_out) EXPECT_FLOAT_EQ(v, 8.0f);
  EXPECT_TRUE(runtime.Finish().ok());
  return runtime.timeline().Makespan() - start;
}

TEST(OocLaunchTest, StagedPipelineBeatsSerialStaging) {
  const double serial = RowSumMakespan(false);
  const double pipelined = RowSumMakespan(true);
  EXPECT_GT(serial, 0.0);
  EXPECT_GT(pipelined, 0.0);
  // The acceptance bar is 1.3x in the bench's regime; assert a slightly
  // softer bound here to stay robust to worker-interleaving jitter in the
  // virtual-time recording order.
  EXPECT_GT(serial / pipelined, 1.2);
}

TEST(TieredMemoryTest, RandomizedLaunchesAndEvictionsKeepLedgersConsistent) {
  auto cluster = MakeCluster({.gpu_nodes = 1, .cpu_nodes = 1}, {8192, 6144});
  ASSERT_NE(cluster, nullptr);
  auto& runtime = cluster->runtime();
  auto program = runtime.BuildProgram(kDoublerSource);
  ASSERT_TRUE(program.ok());
  constexpr std::uint64_t kBufferBytes = 3072;  // 768 ints.
  std::vector<BufferId> buffers;
  std::vector<std::int32_t> scratch(kBufferBytes / 4, 1);
  for (int i = 0; i < 4; ++i) {
    auto buffer = runtime.CreateBuffer(kBufferBytes);
    ASSERT_TRUE(buffer.ok());
    ASSERT_TRUE(
        runtime.WriteBuffer(*buffer, 0, scratch.data(), kBufferBytes).ok());
    buffers.push_back(*buffer);
  }
  std::mt19937 rng(1234);
  auto check_invariants = [&] {
    ASSERT_TRUE(runtime.Finish().ok());
    for (std::size_t node = 0; node < 2; ++node) {
      auto stats = runtime.NodeMemoryStatsOf(node);
      ASSERT_TRUE(stats.ok());
      // Accounted resident bytes never exceed capacity...
      EXPECT_LE(stats->resident_bytes, stats->capacity_bytes);
      // ...the node's own ledger never disagrees with the host's
      // (no region resident-but-unaccounted, no double-free)...
      EXPECT_EQ(cluster->server(node).bytes_resident(),
                stats->resident_bytes);
      // ...and every directory-owned byte is materialized in the pool.
      std::uint64_t owned = 0;
      for (BufferId id : buffers) {
        auto snapshot = runtime.DirectorySnapshotOf(id);
        ASSERT_TRUE(snapshot.ok());
        for (const auto& region : snapshot->regions) {
          for (std::int32_t owner : region.owners) {
            if (owner == static_cast<std::int32_t>(node)) {
              owned += region.end - region.begin;
            }
          }
        }
      }
      EXPECT_LE(owned, stats->resident_bytes);
    }
  };
  for (int op = 0; op < 120; ++op) {
    const BufferId id = buffers[rng() % buffers.size()];
    const int node = static_cast<int>(rng() % 2);
    switch (rng() % 4) {
      case 0:  // Launch (reserves, may evict a colder buffer).
        ASSERT_TRUE(
            LaunchDoubler(runtime, *program, id, kBufferBytes / 4, node)
                .ok());
        break;
      case 1: {  // Host write: every node copy goes stale.
        ASSERT_TRUE(
            runtime.WriteBuffer(id, 0, scratch.data(), kBufferBytes).ok());
        break;
      }
      case 2: {  // Migration prefetch (reserves on the target too).
        auto handle = runtime.SubmitMigrate(id, {}, node);
        ASSERT_TRUE(handle.ok());
        ASSERT_TRUE(runtime.Wait(*handle).ok());
        ASSERT_TRUE(runtime.ReleaseCommand(*handle).ok());
        break;
      }
      case 3: {  // Lazy gather to the host.
        std::vector<std::int32_t> readback(kBufferBytes / 4);
        ASSERT_TRUE(
            runtime.ReadBuffer(id, 0, readback.data(), kBufferBytes).ok());
        break;
      }
    }
    if (op % 20 == 19) check_invariants();
  }
  check_invariants();
}

TEST(TieredMemoryTest, CapacityPressureSessionKeepsResidentBounded) {
  // A long launch session cycling three buffers through a tier that holds
  // barely two: every launch reserves, most evict, and the ledgers must
  // stay exact throughout (the 10k-launch acceptance scenario).
  auto cluster = MakeCluster({.gpu_nodes = 1}, {2048});
  ASSERT_NE(cluster, nullptr);
  auto& runtime = cluster->runtime();
  auto program = runtime.BuildProgram(kDoublerSource);
  ASSERT_TRUE(program.ok());
  std::vector<BufferId> buffers;
  std::vector<std::int32_t> values(256, 1);
  for (int i = 0; i < 3; ++i) {
    auto buffer = runtime.CreateBuffer(1024);
    ASSERT_TRUE(buffer.ok());
    ASSERT_TRUE(runtime.WriteBuffer(*buffer, 0, values.data(), 1024).ok());
    buffers.push_back(*buffer);
  }
  constexpr int kLaunches = 10000;
  for (int i = 0; i < kLaunches; ++i) {
    auto result =
        LaunchDoubler(runtime, *program, buffers[i % buffers.size()], 256, 0);
    ASSERT_TRUE(result.ok()) << "launch " << i << ": "
                             << result.status().ToString();
    if (i % 1000 == 0) {
      auto stats = runtime.NodeMemoryStatsOf(0);
      ASSERT_TRUE(stats.ok());
      ASSERT_LE(stats->resident_bytes, 2048u);
    }
  }
  ASSERT_TRUE(runtime.Finish().ok());
  auto stats = runtime.NodeMemoryStatsOf(0);
  ASSERT_TRUE(stats.ok());
  EXPECT_LE(stats->resident_bytes, 2048u);
  EXPECT_EQ(cluster->server(0).bytes_resident(), stats->resident_bytes);
  const TransferStats stats_all = runtime.transfer_stats();
  EXPECT_GT(stats_all.evicted_bytes, 0u);
}

}  // namespace
}  // namespace haocl::host
