// Elastic launches on a full SimCluster: chunked dispatch bit-identity,
// straggler rescue by work stealing, scripted mid-launch node death with
// directory-driven recovery, heartbeat sweeps, the stats plumbing, and an
// elastic launch as one command among others (markers, hazards, results).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "driver/native_registry.h"
#include "elastic/fault_injector.h"
#include "host/cluster_runtime.h"
#include "host/sim_cluster.h"

namespace haocl::host {
namespace {

constexpr char kDoubler[] = R"(
  __kernel void doubler(__global int* data, int n) {
    int i = get_global_id(0);
    if (i < n) data[i] = data[i] * 2;
  })";

// Large enough that a chunk's modeled memory time dwarfs the (unscaled)
// per-launch overhead — otherwise a 5x-slower straggler looks no slower
// and there is nothing for stealing to rescue.
constexpr int kN = 1 << 21;

// Native fast path for the doubler so multi-million-row launches do not
// crawl through the interpreter; the modeled time still comes from the
// node's (possibly speed-scaled) spec.
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

// Builds the doubler launch over a freshly written buffer and returns
// (program, buffer). The caller owns the elastic options.
struct Fixture {
  std::unique_ptr<SimCluster> cluster;
  ProgramId program = 0;
  BufferId buffer = 0;

  static Fixture Make(std::vector<double> speed_factors = {}) {
    RegisterNativeDoubler();
    Fixture f;
    auto cluster = SimCluster::Create({.gpu_nodes = 3}, {},
                                      SimCluster::PeerTopology::kFullMesh,
                                      std::move(speed_factors));
    EXPECT_TRUE(cluster.ok()) << cluster.status().ToString();
    f.cluster = *std::move(cluster);
    // An elastic launch seeds its ledger from the session policy's plan.
    // Any policy that places works (a one-shard plan is cut into chunks
    // that idle nodes steal), but the default "user" policy cannot place
    // a launch that names no device.
    EXPECT_TRUE(f.cluster->runtime().SetScheduler("hetero_split").ok());
    auto program = f.cluster->runtime().BuildProgram(kDoubler);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    f.program = *program;
    auto buffer = f.cluster->runtime().CreateBuffer(kN * 4);
    EXPECT_TRUE(buffer.ok());
    f.buffer = *buffer;
    std::vector<std::int32_t> values(kN);
    std::iota(values.begin(), values.end(), 1);
    EXPECT_TRUE(f.cluster->runtime()
                    .WriteBuffer(f.buffer, 0, values.data(), kN * 4)
                    .ok());
    return f;
  }

  ClusterRuntime::LaunchSpec Spec() const {
    ClusterRuntime::LaunchSpec spec;
    spec.program = program;
    spec.kernel_name = "doubler";
    spec.args = {KernelArgValue::PartitionedBuffer(buffer, 4),
                 KernelArgValue::Scalar<std::int32_t>(kN)};
    spec.global[0] = kN;
    return spec;
  }
  ClusterRuntime::LaunchSpec ElasticSpec(
      ClusterRuntime::ElasticOptions options = {}) const {
    ClusterRuntime::LaunchSpec spec = Spec();
    spec.elastic = options;
    return spec;
  }

  // Verifies every element equals the doubled input — what a single-node
  // run produces, bit for bit.
  void ExpectDoubled() { ExpectScaledBy(2); }
  void ExpectScaledBy(int factor) {
    std::vector<std::int32_t> got(kN);
    ASSERT_TRUE(cluster->runtime()
                    .ReadBuffer(buffer, 0, got.data(), kN * 4)
                    .ok());
    for (int i = 0; i < kN; ++i) {
      ASSERT_EQ(got[i], factor * (i + 1)) << "element " << i;
    }
  }
};

TEST(ElasticLaunchTest, ChunkedLaunchMatchesSingleNodeResult) {
  Fixture f = Fixture::Make();
  auto result = f.cluster->runtime().LaunchKernel(f.ElasticSpec());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // 3 shards x kDefaultChunksPerShard chunks each (modulo rounding).
  EXPECT_GE(result->elastic->chunks_total, 3u);
  EXPECT_GT(result->elastic->makespan_seconds, 0.0);
  EXPECT_EQ(result->elastic->dead_nodes.size(), 0u);
  f.ExpectDoubled();
}

TEST(ElasticLaunchTest, ExplicitChunkRowsRespected) {
  Fixture f = Fixture::Make();
  ClusterRuntime::ElasticOptions options;
  options.chunk_rows = kN / 16;
  auto result = f.cluster->runtime().LaunchKernel(f.ElasticSpec(options));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Chunks are cut per shard, so remainders add at most one chunk each.
  EXPECT_GE(result->elastic->chunks_total, 16u);
  EXPECT_LE(result->elastic->chunks_total, 16u + 3u);
  f.ExpectDoubled();
}

TEST(ElasticLaunchTest, StealingRescuesStraggler) {
  // Node 0's real silicon is 5x slower than the host's static model
  // believes, so the plan overloads it. With stealing the fast peers take
  // its tail; the makespan must beat the no-steal run decisively.
  const std::vector<double> kStraggler = {0.2, 1.0, 1.0};
  double makespan_steal = 0.0;
  std::uint64_t stolen = 0;
  {
    Fixture f = Fixture::Make(kStraggler);
    auto result = f.cluster->runtime().LaunchKernel(f.ElasticSpec());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    makespan_steal = result->elastic->makespan_seconds;
    stolen = result->elastic->chunks_stolen;
    f.ExpectDoubled();
  }
  double makespan_static = 0.0;
  {
    Fixture f = Fixture::Make(kStraggler);
    ClusterRuntime::ElasticOptions options;
    options.stealing = false;
    auto result = f.cluster->runtime().LaunchKernel(f.ElasticSpec(options));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    makespan_static = result->elastic->makespan_seconds;
    EXPECT_EQ(result->elastic->chunks_stolen, 0u);
    f.ExpectDoubled();
  }
  EXPECT_GT(stolen, 0u);
  EXPECT_LT(makespan_steal, makespan_static * 0.75)
      << "steal=" << makespan_steal << " static=" << makespan_static;
}

TEST(ElasticLaunchTest, FaultFreeStragglerRunsEveryChunkOnceAndCountsEveryByte) {
  // Fast peers steal the straggler's tail, and later steals can move a
  // chunk back to a node it was taken from. Nothing fails, so no chunk
  // runs twice, and every input byte ships exactly once from the host.
  Fixture f = Fixture::Make({0.2, 1.0, 1.0});
  ClusterRuntime::ElasticOptions options;
  options.chunk_rows = kN / 32;
  auto result = f.cluster->runtime().LaunchKernel(f.ElasticSpec(options));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->elastic->chunks_stolen, 0u);
  EXPECT_EQ(result->elastic->chunks_reexecuted, 0u);
  EXPECT_EQ(result->bytes_shipped, std::uint64_t{kN} * 4);
  EXPECT_EQ(f.cluster->runtime().transfer_stats().reexec_bytes, 0u);
  f.ExpectDoubled();
}

TEST(ElasticLaunchTest, ScriptedKillCompletesBitIdentical) {
  Fixture f = Fixture::Make();
  elastic::FaultInjector faults;
  faults.ScriptKill(/*node=*/1, /*after_chunks=*/2);
  ClusterRuntime::ElasticOptions options;
  options.chunk_rows = kN / 16;  // ~16 chunks: the kill lands mid-launch.
  options.fault_injector = &faults;
  auto result = f.cluster->runtime().LaunchKernel(f.ElasticSpec(options));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->elastic->dead_nodes.size(), 1u);
  EXPECT_EQ(result->elastic->dead_nodes[0], 1u);
  EXPECT_FALSE(f.cluster->runtime().NodeAlive(1));
  // Node 1's finished chunks were in-place writes whose only fresh copy
  // died with it: they re-ran from the host shadow's pre-image. Exactly
  // once each — a double re-run would quadruple instead of double.
  EXPECT_GE(result->elastic->chunks_reexecuted, 1u);
  f.ExpectDoubled();
  // Re-executions shipped their input rows again; the stats say so.
  EXPECT_GT(f.cluster->runtime().transfer_stats().reexec_bytes, 0u);
}

TEST(ElasticLaunchTest, KillAfterAnOrdinaryLaunchRecoversItsOutput) {
  // An ordinary launch leaves node 1 the only owner of the doubled buffer,
  // and the host shadow still holds the initial write. Recovery after node
  // 1 dies must start from the doubled bytes: the elastic launch gathers
  // them into the shadow as its pre-image before its first chunk, so rows
  // node 1 never wrote stay co-owned and the rows it did write fall back
  // to that pre-image.
  Fixture f = Fixture::Make();
  ClusterRuntime::LaunchSpec first = f.Spec();
  first.force_node = 1;
  ASSERT_TRUE(f.cluster->runtime().LaunchKernel(first).ok());
  elastic::FaultInjector faults;
  faults.ScriptKill(/*node=*/1, /*after_chunks=*/2);
  ClusterRuntime::ElasticOptions options;
  options.fault_injector = &faults;
  auto result = f.cluster->runtime().LaunchKernel(f.ElasticSpec(options));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->elastic->dead_nodes.size(), 1u);
  EXPECT_EQ(result->elastic->dead_nodes[0], 1u);
  f.ExpectScaledBy(4);
}

TEST(ElasticLaunchTest, KillBeforeFirstChunkRecovers) {
  Fixture f = Fixture::Make();
  elastic::FaultInjector faults;
  faults.ScriptKill(/*node=*/2, /*after_chunks=*/0);
  ClusterRuntime::ElasticOptions options;
  options.fault_injector = &faults;
  auto result = f.cluster->runtime().LaunchKernel(f.ElasticSpec(options));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->elastic->dead_nodes.size(), 1u);
  // Nothing completed there, so nothing re-executes — its chunks simply
  // run elsewhere for the first time.
  f.ExpectDoubled();
}

TEST(ElasticLaunchTest, DeadNodeExcludedFromLaterLaunches) {
  Fixture f = Fixture::Make();
  elastic::FaultInjector faults;
  faults.ScriptKill(1, 0);
  ClusterRuntime::ElasticOptions options;
  options.fault_injector = &faults;
  ASSERT_TRUE(f.cluster->runtime().LaunchKernel(f.ElasticSpec(options)).ok());

  // A second elastic launch (no injector) plans around the dead node.
  auto again = f.cluster->runtime().LaunchKernel(f.ElasticSpec());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again->elastic->dead_nodes.empty());
  // A forced launch onto the corpse is refused.
  ClusterRuntime::LaunchSpec forced = f.Spec();
  forced.force_node = 1;
  auto refused = f.cluster->runtime().LaunchKernel(forced);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), ErrorCode::kNodeLost);
  // Probing it fails; the others still answer.
  EXPECT_FALSE(f.cluster->runtime().ProbeNode(1).ok());
  EXPECT_TRUE(f.cluster->runtime().ProbeNode(0).ok());
}

TEST(ElasticLaunchTest, HeartbeatSweepRunsCleanly) {
  Fixture f = Fixture::Make();
  ClusterRuntime::ElasticOptions options;
  options.heartbeat = true;
  options.heartbeat_interval = std::chrono::milliseconds(0);  // Every loop.
  auto result = f.cluster->runtime().LaunchKernel(f.ElasticSpec(options));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->elastic->dead_nodes.empty());
  f.ExpectDoubled();
}

TEST(ElasticLaunchTest, NonSplittableKernelRejected) {
  Fixture f = Fixture::Make();
  ClusterRuntime::LaunchSpec spec = f.ElasticSpec();
  // Whole-buffer (replicated) written arg pins the launch to one node.
  spec.args[0] = KernelArgValue::Buffer(f.buffer);
  auto result = f.cluster->runtime().LaunchKernel(spec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kInvalidOperation);
}

TEST(ElasticLaunchTest, FailedBuildProgramIdRejected) {
  Fixture f = Fixture::Make();
  ClusterRuntime& runtime = f.cluster->runtime();
  ASSERT_FALSE(runtime.BuildProgram("__kernel void broken(").ok());
  auto good = runtime.BuildProgram(kDoubler);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  // The failed build's id names no program: both entry points say so.
  ClusterRuntime::LaunchSpec spec = f.Spec();
  spec.program = *good - 1;
  auto launched = runtime.LaunchKernel(spec);
  ASSERT_FALSE(launched.ok());
  EXPECT_EQ(launched.status().code(), ErrorCode::kInvalidProgram);
  spec.elastic.emplace();
  auto elastic = runtime.LaunchKernel(spec);
  ASSERT_FALSE(elastic.ok());
  EXPECT_EQ(elastic.status().code(), ErrorCode::kInvalidProgram);
}

TEST(ElasticLaunchTest, OutOfRangePartitionRejectedBeforeAnyChunk) {
  Fixture f = Fixture::Make();
  ClusterRuntime& runtime = f.cluster->runtime();
  constexpr int kRows = 1 << 16;
  auto buffer = runtime.CreateBuffer(kRows * 4);
  ASSERT_TRUE(buffer.ok());
  std::vector<std::int32_t> values(kRows);
  std::iota(values.begin(), values.end(), 1);
  ASSERT_TRUE(runtime.WriteBuffer(*buffer, 0, values.data(), kRows * 4).ok());
  ClusterRuntime::LaunchSpec spec = f.ElasticSpec();
  spec.args[0] = KernelArgValue::PartitionedBuffer(*buffer, 4);
  spec.global[0] = 2 * kRows;  // The window runs past the buffer's end.
  auto result = runtime.LaunchKernel(spec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kInvalidValue);
  // Rejected up front, as LaunchKernel rejects it: no chunk ran.
  std::vector<std::int32_t> got(kRows);
  ASSERT_TRUE(runtime.ReadBuffer(*buffer, 0, got.data(), kRows * 4).ok());
  EXPECT_EQ(got, values);
}

TEST(ElasticLaunchTest, ElasticTagsOnSpecRejected) {
  Fixture f = Fixture::Make();
  ClusterRuntime::LaunchSpec spec = f.ElasticSpec();
  spec.force_node = 0;
  EXPECT_FALSE(f.cluster->runtime().LaunchKernel(spec).ok());
  // Refused at submit, before anything is queued.
  EXPECT_EQ(f.cluster->runtime().SubmitLaunch(spec).status().code(),
            ErrorCode::kInvalidValue);
}

TEST(ElasticLaunchTest, WaitsBehindAMarkerAndOrdersALaterRead) {
  // An elastic launch is one command: behind an unresolved marker it runs
  // no kernel, and a read submitted right after it, without a wait,
  // orders after it through the buffer's hazards.
  Fixture f = Fixture::Make();
  ClusterRuntime& runtime = f.cluster->runtime();
  auto marker = runtime.SubmitMarker();
  ASSERT_TRUE(marker.ok());
  auto launch = runtime.SubmitLaunch(f.ElasticSpec(), {*marker});
  ASSERT_TRUE(launch.ok()) << launch.status().ToString();
  std::vector<std::int32_t> got(kN);
  auto read = runtime.SubmitRead(f.buffer, 0, got.data(), kN * 4);
  ASSERT_TRUE(read.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(*runtime.CommandStateOf(*launch), CommandState::kQueued);
  EXPECT_EQ(*runtime.CommandStateOf(*read), CommandState::kQueued);
  for (std::size_t node = 0; node < runtime.devices().size(); ++node) {
    EXPECT_EQ(runtime.ObservedKernelRate(node, "doubler").samples, 0u)
        << "node " << node << " ran a kernel behind the marker";
  }
  ASSERT_TRUE(runtime.CompleteMarker(*marker).ok());
  ASSERT_TRUE(runtime.Wait(*read).ok());
  for (int i = 0; i < kN; ++i) ASSERT_EQ(got[i], 2 * (i + 1)) << i;
  EXPECT_EQ(*runtime.CommandStateOf(*launch), CommandState::kComplete);
  for (CommandHandle handle : {*marker, *launch, *read}) {
    ASSERT_TRUE(runtime.ReleaseCommand(handle).ok());
  }
}

TEST(ElasticLaunchTest, PlanNodeThatDiesBeforeTheCommandRunsHandsOverItsChunks) {
  // The launch is planned over all three GPUs at submit; node 1 dies
  // while the command still waits on its marker. Its chunks go to the
  // live nodes before the first dispatch.
  Fixture f = Fixture::Make();
  ClusterRuntime& runtime = f.cluster->runtime();
  auto marker = runtime.SubmitMarker();
  ASSERT_TRUE(marker.ok());
  auto launch = runtime.SubmitLaunch(f.ElasticSpec(), {*marker});
  ASSERT_TRUE(launch.ok()) << launch.status().ToString();
  ASSERT_TRUE(runtime.MarkNodeLost(1).ok());
  ASSERT_TRUE(runtime.CompleteMarker(*marker).ok());
  ASSERT_TRUE(runtime.Wait(*launch).ok());
  auto result = runtime.LaunchResultOf(*launch);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->shard_count, 3u);
  EXPECT_TRUE(result->elastic->dead_nodes.empty());
  EXPECT_EQ(runtime.ObservedKernelRate(1, "doubler").samples, 0u);
  f.ExpectDoubled();
}

TEST(ElasticLaunchTest, LaunchResultOfCarriesTheReport) {
  Fixture f = Fixture::Make();
  ClusterRuntime& runtime = f.cluster->runtime();
  auto launch = runtime.SubmitLaunch(f.ElasticSpec());
  ASSERT_TRUE(launch.ok()) << launch.status().ToString();
  ASSERT_TRUE(runtime.Wait(*launch).ok());
  auto result = runtime.LaunchResultOf(*launch);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->elastic.has_value());
  EXPECT_EQ(result->stage_count, result->elastic->chunks_total);
  EXPECT_EQ(result->modeled_seconds, result->elastic->makespan_seconds);
  EXPECT_EQ(result->bytes_shipped, std::uint64_t{kN} * 4);
  EXPECT_GT(result->virtual_completion, 0.0);
  // One command: its own handle is its only shard.
  auto shards = runtime.LaunchShardsOf(*launch);
  ASSERT_TRUE(shards.ok());
  ASSERT_EQ(shards->size(), 1u);
  EXPECT_EQ((*shards)[0].id, launch->id);
  ASSERT_TRUE(runtime.ReleaseCommand(*launch).ok());
  f.ExpectDoubled();
  // An ordinary launch carries no report.
  auto ordinary = runtime.LaunchKernel(f.Spec());
  ASSERT_TRUE(ordinary.ok()) << ordinary.status().ToString();
  EXPECT_FALSE(ordinary->elastic.has_value());
  f.ExpectScaledBy(4);
}

TEST(ElasticLaunchTest, OneShardPlanIsCutAndStolen) {
  // "hetero" places the whole launch on one GPU. The elastic launch cuts
  // that one shard into chunks, and the idle GPUs steal some of them.
  Fixture f = Fixture::Make();
  ClusterRuntime& runtime = f.cluster->runtime();
  ASSERT_TRUE(runtime.SetScheduler("hetero").ok());
  auto result = runtime.LaunchKernel(f.ElasticSpec());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->shard_count, 1u);
  EXPECT_EQ(result->elastic->chunks_total,
            ClusterRuntime::ElasticOptions::kDefaultChunksPerShard);
  EXPECT_GT(result->elastic->chunks_stolen, 0u);
  std::size_t ran = 0;
  for (std::size_t node = 0; node < runtime.devices().size(); ++node) {
    ran += runtime.ObservedKernelRate(node, "doubler").samples > 0 ? 1 : 0;
  }
  EXPECT_GE(ran, 2u);
  f.ExpectDoubled();
}

TEST(ElasticLaunchTest, PolicyThatCannotPlaceFails) {
  // The default "user" policy with no preferred device places nothing, so
  // there is no plan to cut.
  Fixture f = Fixture::Make();
  ClusterRuntime& runtime = f.cluster->runtime();
  ASSERT_TRUE(runtime.SetScheduler("user").ok());
  auto result = runtime.LaunchKernel(f.ElasticSpec());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kSchedulerError);
  ASSERT_TRUE(runtime.SetScheduler("hetero_split").ok());
  f.ExpectScaledBy(1);
}

}  // namespace
}  // namespace haocl::host
