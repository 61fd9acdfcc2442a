// Scheduling policies: eligibility rules, cost-model decisions, fairness
// properties, and the user-extension registry.
#include "sched/scheduler.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <random>
#include <tuple>

namespace haocl::sched {
namespace {

NodeView MakeNode(const std::string& name, NodeType type) {
  NodeView node;
  node.name = name;
  node.type = type;
  node.spec = sim::SpecForType(type);
  return node;
}

ClusterView MakeCluster(std::size_t gpus, std::size_t fpgas,
                        std::size_t cpus = 0) {
  ClusterView view;
  for (std::size_t i = 0; i < gpus; ++i) {
    view.nodes.push_back(MakeNode("gpu" + std::to_string(i), NodeType::kGpu));
  }
  for (std::size_t i = 0; i < fpgas; ++i) {
    view.nodes.push_back(
        MakeNode("fpga" + std::to_string(i), NodeType::kFpga));
  }
  for (std::size_t i = 0; i < cpus; ++i) {
    view.nodes.push_back(MakeNode("cpu" + std::to_string(i), NodeType::kCpu));
  }
  return view;
}

TaskInfo RegularTask(double gflops = 10.0) {
  TaskInfo task;
  task.kernel_name = "matmul_partition";
  task.cost.flops = gflops * 1e9;
  task.cost.bytes = 1e8;
  task.input_bytes = 1 << 20;
  task.output_bytes = 1 << 20;
  return task;
}

TEST(EligibilityTest, FpgaNeedsBitstream) {
  ClusterView cluster = MakeCluster(2, 2);
  TaskInfo task = RegularTask();
  task.fpga_binary_available = false;
  auto eligible = cluster.EligibleFor(task);
  ASSERT_EQ(eligible.size(), 2u);
  for (std::size_t i : eligible) {
    EXPECT_EQ(cluster.nodes[i].type, NodeType::kGpu);
  }
  task.fpga_binary_available = true;
  EXPECT_EQ(cluster.EligibleFor(task).size(), 4u);
}

TEST(EligibilityTest, DeadNodesExcluded) {
  ClusterView cluster = MakeCluster(3, 0);
  cluster.nodes[1].alive = false;
  auto eligible = cluster.EligibleFor(RegularTask());
  EXPECT_EQ(eligible, (std::vector<std::size_t>{0, 2}));
}

TEST(UserDirectedTest, HonorsInstructionAndRejectsMissing) {
  auto policy = MakeUserDirectedPolicy();
  ClusterView cluster = MakeCluster(2, 1);
  TaskInfo task = RegularTask();
  task.preferred_node = 2;
  auto node = policy->SelectNode(task, cluster);
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(*node, 2u);

  task.preferred_node = -1;
  EXPECT_EQ(policy->SelectNode(task, cluster).code(),
            ErrorCode::kSchedulerError);
  task.preferred_node = 99;
  EXPECT_FALSE(policy->SelectNode(task, cluster).ok());

  cluster.nodes[2].alive = false;
  task.preferred_node = 2;
  EXPECT_EQ(policy->SelectNode(task, cluster).code(),
            ErrorCode::kNodeUnreachable);
}

TEST(RoundRobinTest, RotatesUniformly) {
  auto policy = MakeRoundRobinPolicy();
  ClusterView cluster = MakeCluster(4, 0);
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 100; ++i) {
    auto node = policy->SelectNode(RegularTask(), cluster);
    ASSERT_TRUE(node.ok());
    counts[*node]++;
  }
  ASSERT_EQ(counts.size(), 4u);
  for (const auto& [node, count] : counts) EXPECT_EQ(count, 25);
}

TEST(LeastLoadedTest, AvoidsBackloggedNode) {
  auto policy = MakeLeastLoadedPolicy();
  ClusterView cluster = MakeCluster(3, 0);
  cluster.nodes[0].busy_seconds_ahead = 10.0;
  cluster.nodes[1].busy_seconds_ahead = 0.5;
  cluster.nodes[2].busy_seconds_ahead = 3.0;
  auto node = policy->SelectNode(RegularTask(), cluster);
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(*node, 1u);
}

TEST(HeteroTest, PicksGpuForRegularCompute) {
  auto policy = MakeHeterogeneityAwarePolicy();
  ClusterView cluster = MakeCluster(1, 1, 1);
  TaskInfo task = RegularTask(/*gflops=*/500.0);
  auto node = policy->SelectNode(task, cluster);
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(cluster.nodes[*node].type, NodeType::kGpu);
}

TEST(HeteroTest, PicksFpgaForIrregularKernels) {
  auto policy = MakeHeterogeneityAwarePolicy();
  ClusterView cluster = MakeCluster(1, 1);
  TaskInfo task = RegularTask(/*gflops=*/500.0);
  task.cost.irregular = true;  // GPU efficiency collapses, FPGA holds.
  auto node = policy->SelectNode(task, cluster);
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(cluster.nodes[*node].type, NodeType::kFpga);
}

TEST(HeteroTest, AccountsForBacklogAndTransfers) {
  auto policy = MakeHeterogeneityAwarePolicy();
  ClusterView cluster = MakeCluster(2, 0);
  cluster.nodes[0].busy_seconds_ahead = 100.0;  // Fast node, long queue.
  auto node = policy->SelectNode(RegularTask(), cluster);
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(*node, 1u);
}

TEST(PredictTest, KernelRateBeatsAgnosticBeatsStatic) {
  // The cost model prefers the most specific runtime profile: this
  // kernel's own observed rate on the node, then the node's agnostic
  // average, then the static device model.
  NodeView node = MakeNode("gpu0", NodeType::kGpu);
  TaskInfo task = RegularTask(100.0);
  const double static_seconds = PredictComputeSeconds(task, node);
  EXPECT_DOUBLE_EQ(static_seconds, StaticComputeSeconds(task, node));

  node.observed_seconds_per_flop = 2.0 * static_seconds / task.cost.flops;
  EXPECT_DOUBLE_EQ(PredictComputeSeconds(task, node), 2.0 * static_seconds);

  node.kernel_seconds_per_flop = 4.0 * static_seconds / task.cost.flops;
  node.kernel_rate_samples = 1;
  EXPECT_DOUBLE_EQ(PredictComputeSeconds(task, node), 4.0 * static_seconds);
  // StaticComputeSeconds never consults the profiles.
  EXPECT_DOUBLE_EQ(StaticComputeSeconds(task, node), static_seconds);
}

TEST(HeteroTest, RuntimeProfileOverridesStaticModel) {
  ClusterView cluster = MakeCluster(2, 0);
  TaskInfo task = RegularTask(100.0);
  // Static model says both nodes are equal; a runtime profile showing
  // node 0 is actually 10x slower must flip the decision.
  cluster.nodes[0].observed_seconds_per_flop = 10.0 / 5.5e12;
  cluster.nodes[1].observed_seconds_per_flop = 1.0 / 5.5e12;
  auto policy = MakeHeterogeneityAwarePolicy();
  auto node = policy->SelectNode(task, cluster);
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(*node, 1u);
}

TEST(PowerAwareTest, TradesLatencyForEnergyWithinBudget) {
  // A Tesla P4 is so efficient that the built-in presets rarely give a
  // slower-but-greener option; construct one explicitly (a low-power
  // accelerator with better FLOP/J but lower peak).
  ClusterView cluster = MakeCluster(1, 0);
  NodeView eco = MakeNode("eco0", NodeType::kFpga);
  eco.spec.compute_gflops = 1000.0;  // ~5.5x slower than the P4...
  eco.spec.power_watts = 10.0;       // ...but 100 GFLOP/J vs the P4's 73.
  cluster.nodes.push_back(eco);

  TaskInfo task;
  task.kernel_name = "matmul_partition";
  task.cost.flops = 1e10;
  task.cost.bytes = 1e6;

  // Generous budget: the greener node wins.
  auto relaxed = MakePowerAwarePolicy(/*max_slowdown=*/8.0);
  auto node = relaxed->SelectNode(task, cluster);
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(cluster.nodes[*node].name, "eco0");

  // Tight budget: the fastest node wins instead.
  auto strict = MakePowerAwarePolicy(1.0);
  node = strict->SelectNode(task, cluster);
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(cluster.nodes[*node].type, NodeType::kGpu);
}

TEST(PredictTest, CompletionIsMonotoneInWork) {
  NodeView node = MakeNode("gpu0", NodeType::kGpu);
  double prev = 0.0;
  for (double gflops = 1; gflops <= 1000; gflops *= 10) {
    TaskInfo task = RegularTask(gflops);
    const double t = PredictCompletionSeconds(task, node);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(PredictTest, EnergyTracksPower) {
  TaskInfo task = RegularTask(100.0);
  NodeView gpu = MakeNode("gpu", NodeType::kGpu);
  NodeView cpu = MakeNode("cpu", NodeType::kCpu);
  // CPU: slower AND higher wattage => strictly more energy.
  EXPECT_GT(PredictEnergyJoules(task, cpu), PredictEnergyJoules(task, gpu));
}

TEST(RegistryTest, BuiltinsPresent) {
  auto names = RegisteredPolicyNames();
  for (const char* want :
       {"user", "roundrobin", "leastloaded", "hetero", "hetero_split",
        "adaptive_split", "power"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), want), names.end())
        << want;
  }
  EXPECT_FALSE(MakePolicyByName("does-not-exist").ok());
}

TEST(RegistryTest, UserPolicyPlugsIn) {
  // The paper's extensibility claim: a custom policy registered by name.
  class AlwaysLast : public SchedulingPolicy {
   public:
    [[nodiscard]] std::string name() const override { return "alwayslast"; }
    Expected<std::size_t> SelectNode(const TaskInfo& task,
                                     const ClusterView& cluster) override {
      auto eligible = cluster.EligibleFor(task);
      if (eligible.empty()) {
        return Status(ErrorCode::kSchedulerError, "none");
      }
      return eligible.back();
    }
  };
  RegisterPolicy("alwayslast", [] {
    return std::unique_ptr<SchedulingPolicy>(new AlwaysLast());
  });
  auto policy = MakePolicyByName("alwayslast");
  ASSERT_TRUE(policy.ok());
  ClusterView cluster = MakeCluster(3, 0);
  auto node = (*policy)->SelectNode(RegularTask(), cluster);
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(*node, 2u);
}

// ---- Placement plans ------------------------------------------------------

TaskInfo SplittableTask(std::uint64_t extent, double gflops = 100.0) {
  TaskInfo task = RegularTask(gflops);
  task.dim0_extent = extent;
  task.splittable = true;
  return task;
}

TEST(PlanValidationTest, AcceptsSingleFullRangeShard) {
  ClusterView cluster = MakeCluster(2, 0);
  TaskInfo task = RegularTask();
  task.dim0_extent = 128;
  auto plan = PlacementPlan::SingleNode(1, 128);
  EXPECT_TRUE(ValidatePlan(plan, task, cluster).ok());
}

TEST(PlanValidationTest, RejectsEmptyPlanAndEmptyShard) {
  ClusterView cluster = MakeCluster(2, 0);
  TaskInfo task = SplittableTask(128);
  PlacementPlan plan;
  EXPECT_FALSE(ValidatePlan(plan, task, cluster).ok());
  plan.shards = {{0, 0, 128, 1.0}, {1, 128, 0, 0.0}};
  EXPECT_FALSE(ValidatePlan(plan, task, cluster).ok());
}

TEST(PlanValidationTest, RejectsOverlapGapAndShortCoverage) {
  ClusterView cluster = MakeCluster(2, 0);
  TaskInfo task = SplittableTask(128);
  PlacementPlan plan;
  plan.shards = {{0, 0, 80, 0.5}, {1, 64, 64, 0.5}};  // Overlap at 64..80.
  EXPECT_FALSE(ValidatePlan(plan, task, cluster).ok());
  plan.shards = {{0, 0, 32, 0.5}, {1, 64, 64, 0.5}};  // Gap 32..64.
  EXPECT_FALSE(ValidatePlan(plan, task, cluster).ok());
  plan.shards = {{0, 0, 64, 0.5}, {1, 64, 32, 0.5}};  // Covers 96 of 128.
  EXPECT_FALSE(ValidatePlan(plan, task, cluster).ok());
}

TEST(PlanValidationTest, RejectsOutOfRangeShards) {
  ClusterView cluster = MakeCluster(2, 0);
  TaskInfo task = SplittableTask(128);
  PlacementPlan plan;
  plan.shards = {{0, 0, 64, 0.5}, {1, 64, 128, 0.5}};  // Past the extent.
  EXPECT_FALSE(ValidatePlan(plan, task, cluster).ok());
  plan.shards = {{7, 0, 128, 1.0}};  // No such node.
  EXPECT_FALSE(ValidatePlan(plan, task, cluster).ok());
  cluster.nodes[1].alive = false;
  plan.shards = {{0, 0, 64, 0.5}, {1, 64, 64, 0.5}};  // Dead node.
  EXPECT_FALSE(ValidatePlan(plan, task, cluster).ok());
}

TEST(PlanValidationTest, MultiShardNeedsSplittableTask) {
  ClusterView cluster = MakeCluster(2, 0);
  TaskInfo task = RegularTask();
  task.dim0_extent = 128;
  task.splittable = false;
  PlacementPlan plan;
  plan.shards = {{0, 0, 64, 0.5}, {1, 64, 64, 0.5}};
  EXPECT_FALSE(ValidatePlan(plan, task, cluster).ok());
  task.splittable = true;
  EXPECT_TRUE(ValidatePlan(plan, task, cluster).ok());
}

TEST(PlanAdapterTest, SelectNodeOnlyPoliciesPlanOneFullShard) {
  // A policy written against the old node-picking API — including
  // user-registered ones — must plan exactly the shard SelectNode implies.
  class AlwaysSecond : public SchedulingPolicy {
   public:
    [[nodiscard]] std::string name() const override { return "alwayssecond"; }
    Expected<std::size_t> SelectNode(const TaskInfo&,
                                     const ClusterView&) override {
      return 1;
    }
  };
  AlwaysSecond policy;
  ClusterView cluster = MakeCluster(3, 0);
  TaskInfo task = SplittableTask(1000);
  auto plan = policy.PlanLaunch(task, cluster);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->shards.size(), 1u);
  EXPECT_EQ(plan->shards[0].node, 1u);
  EXPECT_EQ(plan->shards[0].global_offset, 0u);
  EXPECT_EQ(plan->shards[0].global_count, 1000u);
  EXPECT_TRUE(ValidatePlan(*plan, task, cluster).ok());

  // Built-in single-node policies go through the same adapter.
  auto builtin = MakeLeastLoadedPolicy();
  auto builtin_plan = builtin->PlanLaunch(task, cluster);
  auto builtin_node = builtin->SelectNode(task, cluster);
  ASSERT_TRUE(builtin_plan.ok() && builtin_node.ok());
  ASSERT_EQ(builtin_plan->shards.size(), 1u);
  EXPECT_EQ(builtin_plan->shards[0].node, *builtin_node);
  EXPECT_EQ(builtin_plan->shards[0].global_count, 1000u);
}

TEST(HeteroSplitTest, ShardsTileTheRangeAcrossEligibleNodes) {
  auto policy = MakeHeterogeneityAwareSplitPolicy();
  ClusterView cluster = MakeCluster(2, 0, 1);
  TaskInfo task = SplittableTask(4096);
  auto plan = policy->PlanLaunch(task, cluster);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(ValidatePlan(*plan, task, cluster).ok());
  EXPECT_GE(plan->shards.size(), 2u);
  std::uint64_t covered = 0;
  for (const auto& shard : plan->shards) covered += shard.global_count;
  EXPECT_EQ(covered, 4096u);
}

TEST(HeteroSplitTest, FasterNodesGetLargerShards) {
  auto policy = MakeHeterogeneityAwareSplitPolicy();
  ClusterView cluster = MakeCluster(1, 0, 1);  // GPU + CPU.
  TaskInfo task = SplittableTask(4096, /*gflops=*/500.0);
  auto plan = policy->PlanLaunch(task, cluster);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->shards.size(), 2u);
  std::uint64_t gpu_rows = 0;
  std::uint64_t cpu_rows = 0;
  for (const auto& shard : plan->shards) {
    if (cluster.nodes[shard.node].type == NodeType::kGpu) {
      gpu_rows = shard.global_count;
    } else {
      cpu_rows = shard.global_count;
    }
  }
  EXPECT_GT(gpu_rows, cpu_rows);
  // Shares follow the compute model: rows_i ~ 1 / compute_seconds_i.
  const double gpu_seconds =
      PredictComputeSeconds(task, cluster.nodes[0]);
  const double cpu_seconds =
      PredictComputeSeconds(task, cluster.nodes[1]);
  const double want_ratio = cpu_seconds / gpu_seconds;
  const double got_ratio =
      static_cast<double>(gpu_rows) / static_cast<double>(cpu_rows);
  EXPECT_NEAR(got_ratio, want_ratio, 0.25 * want_ratio);
}

TEST(HeteroSplitTest, NonSplittableFallsBackToBestSingleNode) {
  auto policy = MakeHeterogeneityAwareSplitPolicy();
  ClusterView cluster = MakeCluster(2, 0, 1);
  TaskInfo task = RegularTask(500.0);
  task.dim0_extent = 4096;
  task.splittable = false;
  auto plan = policy->PlanLaunch(task, cluster);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->shards.size(), 1u);
  EXPECT_EQ(plan->shards[0].global_count, 4096u);
  auto best = MakeHeterogeneityAwarePolicy()->SelectNode(task, cluster);
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(plan->shards[0].node, *best);
}

TEST(HeteroSplitTest, RespectsWorkGroupAlignment) {
  auto policy = MakeHeterogeneityAwareSplitPolicy();
  ClusterView cluster = MakeCluster(2, 0, 1);
  TaskInfo task = SplittableTask(1024);
  task.dim0_align = 64;
  auto plan = policy->PlanLaunch(task, cluster);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(ValidatePlan(*plan, task, cluster).ok());
  for (const auto& shard : plan->shards) {
    EXPECT_EQ(shard.global_offset % 64, 0u);
  }
}

TEST(HeteroSplitTest, RoundingLeftoverGoesToTheFastestShard) {
  // Skewed cluster, residency-ordered so the SLOWEST device owns the last
  // shard: the whole-alignment part of the rounding leftover must land on
  // the fastest shard, not blindly on the tail, while offsets stay
  // aligned and the sub-alignment tail rides the last shard.
  auto policy = MakeHeterogeneityAwareSplitPolicy();
  ClusterView cluster = MakeCluster(1, 0, 1);  // GPU (fast) + CPU (slow).
  TaskInfo task = SplittableTask(1000 * 64 + 17, /*gflops=*/500.0);
  task.dim0_align = 64;
  // Residency hints force the CPU's shard LAST (GPU holds the front).
  cluster.nodes[0].resident_dim0_begin = 0;
  cluster.nodes[1].resident_dim0_begin = 1;
  auto plan = policy->PlanLaunch(task, cluster);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(ValidatePlan(*plan, task, cluster).ok());
  ASSERT_EQ(plan->shards.size(), 2u);
  EXPECT_EQ(plan->provenance, PlacementPlan::Provenance::kStaticModel);
  ASSERT_EQ(plan->shards[0].node, 0u);  // GPU first by residency.
  ASSERT_EQ(plan->shards[1].node, 1u);
  for (const auto& shard : plan->shards) {
    EXPECT_EQ(shard.global_offset % 64, 0u);
  }
  // The GPU shard must exceed its pure proportional floor by at least the
  // whole-align leftover it absorbed, and the CPU tail carries ONLY its
  // floor plus the sub-align remainder (17) — the old code dumped the
  // whole leftover on the tail, growing the slowest device's share.
  const std::uint64_t units = task.dim0_extent / 64;
  const double gpu_rate = 1.0 / StaticComputeSeconds(task, cluster.nodes[0]);
  const double cpu_rate = 1.0 / StaticComputeSeconds(task, cluster.nodes[1]);
  const auto cpu_floor = static_cast<std::uint64_t>(
                             static_cast<double>(units) * cpu_rate /
                             (gpu_rate + cpu_rate)) *
                         64;
  EXPECT_EQ(plan->shards[1].global_count, cpu_floor + 17);
}

TEST(AdaptiveSplitTest, NoSamplesPlansLikeHeteroSplit) {
  // First launch of a kernel: no observed rates anywhere, so the adaptive
  // policy must produce exactly the static policy's plan.
  auto adaptive = MakeAdaptiveSplitPolicy();
  auto baseline = MakeHeterogeneityAwareSplitPolicy();
  ClusterView cluster = MakeCluster(2, 0, 1);
  TaskInfo task = SplittableTask(4096, /*gflops=*/500.0);
  auto got = adaptive->PlanLaunch(task, cluster);
  auto want = baseline->PlanLaunch(task, cluster);
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_EQ(got->provenance, PlacementPlan::Provenance::kStaticModel);
  ASSERT_EQ(got->shards.size(), want->shards.size());
  for (std::size_t i = 0; i < got->shards.size(); ++i) {
    EXPECT_EQ(got->shards[i].node, want->shards[i].node);
    EXPECT_EQ(got->shards[i].global_offset, want->shards[i].global_offset);
    EXPECT_EQ(got->shards[i].global_count, want->shards[i].global_count);
  }
}

TEST(AdaptiveSplitTest, ObservedRatesReplanTheSplit) {
  // Two spec-identical GPUs, but the observed rate table says node 0 is
  // really 3x slower: the re-split must give node 1 ~3x the rows while
  // the static policy still splits ~50/50.
  auto adaptive = MakeAdaptiveSplitPolicy();
  ClusterView cluster = MakeCluster(2, 0);
  TaskInfo task = SplittableTask(4096, /*gflops=*/500.0);
  const double spec_rate =
      StaticComputeSeconds(task, cluster.nodes[0]) / task.cost.flops;
  cluster.nodes[0].kernel_seconds_per_flop = 3.0 * spec_rate;
  cluster.nodes[0].kernel_rate_samples = 2;
  cluster.nodes[1].kernel_seconds_per_flop = spec_rate;
  cluster.nodes[1].kernel_rate_samples = 2;
  auto plan = adaptive->PlanLaunch(task, cluster);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(ValidatePlan(*plan, task, cluster).ok());
  EXPECT_EQ(plan->provenance, PlacementPlan::Provenance::kObservedRates);
  ASSERT_EQ(plan->shards.size(), 2u);
  std::uint64_t slow_rows = 0;
  std::uint64_t fast_rows = 0;
  for (const auto& shard : plan->shards) {
    (shard.node == 0 ? slow_rows : fast_rows) = shard.global_count;
  }
  const double ratio =
      static_cast<double>(fast_rows) / static_cast<double>(slow_rows);
  EXPECT_NEAR(ratio, 3.0, 0.3);

  // The static baseline ignores the table entirely.
  auto baseline = MakeHeterogeneityAwareSplitPolicy()->PlanLaunch(task,
                                                                  cluster);
  ASSERT_TRUE(baseline.ok());
  ASSERT_EQ(baseline->shards.size(), 2u);
  EXPECT_EQ(baseline->shards[0].global_count,
            baseline->shards[1].global_count);

  // Mixed knowledge (one node sampled, one not) is flagged as blended.
  cluster.nodes[1].kernel_rate_samples = 0;
  cluster.nodes[1].kernel_seconds_per_flop = 0.0;
  auto blended = adaptive->PlanLaunch(task, cluster);
  ASSERT_TRUE(blended.ok());
  EXPECT_EQ(blended->provenance, PlacementPlan::Provenance::kBlended);
}

TEST(AdaptiveSplitTest, ValidatePlanHoldsUnderRandomizedResplits) {
  // Property test: whatever the extents, alignments, backlogs, residency
  // hints, and observed-rate perturbations, every adaptive re-split must
  // pass the coverage/overlap/alignment validator.
  auto policy = MakeAdaptiveSplitPolicy();
  std::mt19937 rng(20260730);
  std::uniform_int_distribution<int> node_count(2, 5);
  std::uniform_int_distribution<int> align_pick(0, 3);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const std::uint64_t aligns[] = {1, 16, 64, 128};
  for (int iteration = 0; iteration < 300; ++iteration) {
    const int n = node_count(rng);
    ClusterView cluster = MakeCluster(n / 2, 0, n - n / 2);
    TaskInfo task = SplittableTask(
        1 + static_cast<std::uint64_t>(unit(rng) * 100000.0),
        /*gflops=*/1.0 + unit(rng) * 500.0);
    task.dim0_align = aligns[align_pick(rng)];
    for (NodeView& node : cluster.nodes) {
      node.busy_seconds_ahead = unit(rng) * 0.1;
      if (unit(rng) < 0.7) {
        const double spec_rate =
            StaticComputeSeconds(task, node) / task.cost.flops;
        // Observed rate off the spec by up to 8x either way.
        node.kernel_seconds_per_flop =
            spec_rate * std::pow(8.0, 2.0 * unit(rng) - 1.0);
        node.kernel_rate_samples = 1 + static_cast<std::uint64_t>(
                                           unit(rng) * 10.0);
      }
      if (unit(rng) < 0.5) {
        node.resident_dim0_begin = static_cast<std::uint64_t>(
            unit(rng) * static_cast<double>(task.dim0_extent));
      }
    }
    auto plan = policy->PlanLaunch(task, cluster);
    ASSERT_TRUE(plan.ok()) << "iteration " << iteration;
    EXPECT_TRUE(ValidatePlan(*plan, task, cluster).ok())
        << "iteration " << iteration << ": "
        << ValidatePlan(*plan, task, cluster).ToString();
  }
}

// Parameterized sweep: for every policy, selections are always eligible.
class AllPoliciesTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AllPoliciesTest, SelectionsAreAlwaysEligible) {
  auto policy = MakePolicyByName(GetParam());
  ASSERT_TRUE(policy.ok());
  ClusterView cluster = MakeCluster(3, 2, 1);
  cluster.nodes[4].alive = false;
  for (int i = 0; i < 50; ++i) {
    TaskInfo task = RegularTask(1.0 + i);
    task.fpga_binary_available = i % 2 == 0;
    task.preferred_node = 0;  // Only the user policy consumes this.
    auto node = (*policy)->SelectNode(task, cluster);
    ASSERT_TRUE(node.ok()) << GetParam();
    EXPECT_TRUE(cluster.nodes[*node].alive);
    if (!task.fpga_binary_available) {
      EXPECT_NE(cluster.nodes[*node].type, NodeType::kFpga);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, AllPoliciesTest,
                         ::testing::Values("user", "roundrobin",
                                           "leastloaded", "hetero",
                                           "hetero_split", "adaptive_split",
                                           "power"));

// ---- Tiered memory: capacity-aware plans ----------------------------------

// 1 KiB per dim-0 index, no replicated args, splittable over 1000 indices.
TaskInfo MemoryBoundTask() {
  TaskInfo task = RegularTask();
  task.splittable = true;
  task.dim0_extent = 1000;
  task.bytes_per_index = 1024;
  task.replicated_bytes = 0;
  return task;
}

TEST(PlanValidationTest, StageRowsHonorsCapacity) {
  TaskInfo task = MemoryBoundTask();
  // Unknown capacity: everything fits in-core.
  EXPECT_EQ(StageRows(task, 0, 1000), std::optional<std::uint64_t>(0));
  // Holds the whole shard.
  EXPECT_EQ(StageRows(task, 1 << 20, 1000), std::optional<std::uint64_t>(0));
  // Oversubscribed but stageable: two 32-row stages fill 64 KiB.
  EXPECT_EQ(StageRows(task, 64 << 10, 1000), std::optional<std::uint64_t>(32));
  task.dim0_align = 24;  // Stages stay whole alignment units.
  EXPECT_EQ(StageRows(task, 64 << 10, 1000), std::optional<std::uint64_t>(24));
  task.dim0_align = 1;
  task.splittable = false;  // Cannot stage: must fit whole.
  EXPECT_FALSE(StageRows(task, 64 << 10, 1000).has_value());
  task.splittable = true;
  task.replicated_bytes = 63 << 10;  // Replicated args crowd out stages.
  EXPECT_FALSE(StageRows(task, 64 << 10, 1000).has_value());
}

TEST(PlanValidationTest, RejectsShardsThatCannotStage) {
  ClusterView cluster = MakeCluster(1, 0);
  cluster.nodes[0].mem_capacity_bytes = 64 << 10;
  TaskInfo task = MemoryBoundTask();
  task.splittable = false;  // 1000 KiB working set, 64 KiB device.
  PlacementPlan plan = PlacementPlan::SingleNode(0, task.dim0_extent);
  Status status = ValidatePlan(plan, task, cluster);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("cannot fit or stage"), std::string::npos);
  task.splittable = true;  // Staging makes the same plan feasible.
  EXPECT_TRUE(ValidatePlan(plan, task, cluster).ok());
}

TEST(HeteroSplitTest, CapacityCapsShardSizes) {
  // Two identical GPUs, but one can hold only 100 indices in-core: the
  // static rate split (50/50) must shift the excess to the roomy node so
  // the small-memory node gets a smaller, feasible shard.
  ClusterView cluster = MakeCluster(2, 0);
  cluster.nodes[0].mem_capacity_bytes = 100 * 1024;
  cluster.nodes[1].mem_capacity_bytes = 0;  // Unbounded.
  TaskInfo task = MemoryBoundTask();
  auto policy = MakeHeterogeneityAwareSplitPolicy();
  auto plan = policy->PlanLaunch(task, cluster);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(ValidatePlan(*plan, task, cluster).ok());
  ASSERT_EQ(plan->shards.size(), 2u);
  for (const PlacementShard& shard : plan->shards) {
    if (shard.node == 0) {
      EXPECT_LE(shard.global_count, 100u);
    } else {
      EXPECT_GE(shard.global_count, 900u);
    }
  }
}

TEST(HeteroSplitTest, ClusterWideShortfallLeavesStagedRemainder) {
  // Neither node holds its half in-core; the capped excess lands on the
  // fastest node, whose shard then stages out-of-core — the plan is still
  // valid because the task is splittable.
  ClusterView cluster = MakeCluster(2, 0);
  cluster.nodes[0].mem_capacity_bytes = 100 * 1024;
  cluster.nodes[1].mem_capacity_bytes = 100 * 1024;
  TaskInfo task = MemoryBoundTask();
  auto policy = MakeHeterogeneityAwareSplitPolicy();
  auto plan = policy->PlanLaunch(task, cluster);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(ValidatePlan(*plan, task, cluster).ok());
  std::uint64_t total = 0;
  for (const PlacementShard& shard : plan->shards) {
    total += shard.global_count;
  }
  EXPECT_EQ(total, task.dim0_extent);
}

// ---- ChunkifyPlan: the one cutter behind elastic chunks and OOC stages ----

// [0, 40) on node 0, [40, 70) on node 1, [70, 100) on node 2.
PlacementPlan ThreeShardPlan() {
  PlacementPlan plan;
  plan.shards = {{0, 0, 40, 0.4}, {1, 40, 30, 0.3}, {2, 70, 30, 0.3}};
  return plan;
}

// (shard, offset, count) per chunk, for whole-list comparisons.
using Span = std::tuple<std::size_t, std::uint64_t, std::uint64_t>;
std::vector<Span> Spans(const std::vector<ChunkSpan>& chunks) {
  std::vector<Span> out;
  for (const ChunkSpan& chunk : chunks) {
    out.emplace_back(chunk.shard, chunk.offset, chunk.count);
  }
  return out;
}

TEST(ChunkifyPlanTest, EachShardIsCutAtItsOwnBudget) {
  const std::vector<std::uint64_t> rows = {20, 15, 10};
  const std::vector<Span> want = {{0, 0, 20},  {0, 20, 20}, {1, 40, 15},
                                  {1, 55, 15}, {2, 70, 10}, {2, 80, 10},
                                  {2, 90, 10}};
  EXPECT_EQ(Spans(ChunkifyPlan(ThreeShardPlan(), 1, rows)), want);
}

TEST(ChunkifyPlanTest, BudgetRoundsUpToTheAlignment) {
  // A 5-row budget under 8-row alignment cuts 8-row chunks: every chunk
  // boundary stays a legal work-group boundary.
  const std::vector<std::uint64_t> rows = {5};
  const std::vector<ChunkSpan> chunks =
      ChunkifyPlan(PlacementPlan::SingleNode(0, 40), 8, rows);
  ASSERT_EQ(chunks.size(), 5u);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].offset, 8 * i);
    EXPECT_EQ(chunks[i].count, 8u);
  }
}

TEST(ChunkifyPlanTest, ZeroBudgetGivesOneChunkPerShard) {
  const std::vector<std::uint64_t> rows = {0, 0, 0};
  const std::vector<Span> want = {{0, 0, 40}, {1, 40, 30}, {2, 70, 30}};
  EXPECT_EQ(Spans(ChunkifyPlan(ThreeShardPlan(), 1, rows)), want);
  // Zero mixes with real budgets: only the budgeted shard is cut.
  const std::vector<std::uint64_t> mixed = {0, 10, 0};
  EXPECT_EQ(ChunkifyPlan(ThreeShardPlan(), 1, mixed).size(), 5u);
}

TEST(ChunkifyPlanTest, LastChunkIsTheShortRemainder) {
  const std::vector<std::uint64_t> rows = {30};
  const std::vector<Span> want = {
      {0, 0, 30}, {0, 30, 30}, {0, 60, 30}, {0, 90, 10}};
  EXPECT_EQ(Spans(ChunkifyPlan(PlacementPlan::SingleNode(0, 100), 1, rows)),
            want);
  // With alignment the budget rounds up (30 -> 32) and the remainder is
  // what is left: 100 = 3 x 32 + 4.
  const std::vector<ChunkSpan> aligned =
      ChunkifyPlan(PlacementPlan::SingleNode(0, 100), 4, rows);
  ASSERT_EQ(aligned.size(), 4u);
  EXPECT_EQ(aligned.back().offset, 96u);
  EXPECT_EQ(aligned.back().count, 4u);
}

}  // namespace
}  // namespace haocl::sched
