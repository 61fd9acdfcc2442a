// StealCoordinator unit tests against a scripted mock executor: virtual-time
// dispatch, straggler stealing, liveness-vs-fatal failure triage,
// mid-launch death recovery, and the all-dead terminal case.
#include "elastic/steal_coordinator.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "elastic/fault_injector.h"

namespace haocl::elastic {
namespace {

sched::PlacementPlan PlanFor(
    const std::vector<std::pair<std::size_t, std::uint64_t>>& shards) {
  sched::PlacementPlan plan;
  std::uint64_t offset = 0;
  for (const auto& [node, rows] : shards) {
    plan.shards.push_back(
        {.node = node, .global_offset = offset, .global_count = rows});
    offset += rows;
  }
  return plan;
}

// Executor with per-node scripted seconds-per-row, failure scripts, and a
// full audit trail of what ran where.
class MockExecutor : public ChunkExecutor {
 public:
  struct Exec {
    std::uint64_t chunk_id;
    std::size_t node;
    std::uint64_t offset;
    std::uint64_t count;
  };

  explicit MockExecutor(std::vector<double> seconds_per_row)
      : seconds_per_row_(std::move(seconds_per_row)) {}

  Expected<ChunkOutcome> Execute(const Chunk& chunk,
                                 std::size_t node) override {
    ++calls_on_[node];
    auto transient = fail_times_.find(node);
    if (transient != fail_times_.end() && transient->second > 0) {
      --transient->second;
      return Status(fail_code_, "scripted transient failure");
    }
    if (fail_after_.count(node) != 0 && executed_on_[node] >= fail_after_[node]) {
      return Status(fail_code_, "scripted failure");
    }
    ++executed_on_[node];
    executions_.push_back({chunk.id, node, chunk.offset, chunk.count});
    ChunkOutcome outcome;
    outcome.modeled_seconds =
        static_cast<double>(chunk.count) * seconds_per_row_[node];
    outcome.bytes_shipped = chunk.count * 4;
    return outcome;
  }

  Status Probe(std::size_t node) override {
    if (dead_to_probe_.count(node) != 0) {
      return Status(ErrorCode::kNodeLost, "probe: dead");
    }
    return Status::Ok();
  }

  double SecondsPerRow(std::size_t node) override {
    return seconds_per_row_[node];
  }
  double BacklogSeconds(std::size_t node) override {
    auto it = backlog_.find(node);
    return it == backlog_.end() ? 0.0 : it->second;
  }
  std::uint64_t ResidentRowsOn(std::size_t node, std::uint64_t offset,
                               std::uint64_t count) override {
    auto it = resident_.find(node);
    if (it == resident_.end()) return 0;
    const auto [begin, end] = it->second;
    const std::uint64_t lo = std::max(offset, begin);
    const std::uint64_t hi = std::min(offset + count, end);
    return hi > lo ? hi - lo : 0;
  }

  Expected<std::vector<ChunkLedger::RowSpan>> OnNodeDead(
      std::size_t node) override {
    dead_declared_.insert(node);
    auto it = lost_rows_.find(node);
    if (it == lost_rows_.end()) return std::vector<ChunkLedger::RowSpan>{};
    return it->second;
  }

  std::vector<double> seconds_per_row_;
  std::map<std::size_t, double> backlog_;
  // Node -> resident row window [begin, end) for locality ranking.
  std::map<std::size_t, std::pair<std::uint64_t, std::uint64_t>> resident_;
  // Node -> fail every Execute once `executed_on_` reaches this count.
  std::map<std::size_t, std::uint64_t> fail_after_;
  // Node -> fail the next N Executes, then recover.
  std::map<std::size_t, std::uint64_t> fail_times_;
  ErrorCode fail_code_ = ErrorCode::kNodeLost;
  std::set<std::size_t> dead_to_probe_;
  std::map<std::size_t, std::vector<ChunkLedger::RowSpan>> lost_rows_;

  std::vector<Exec> executions_;
  std::map<std::size_t, std::uint64_t> executed_on_;  // Successful runs.
  std::map<std::size_t, std::uint64_t> calls_on_;     // Every Execute call.
  std::set<std::size_t> dead_declared_;
};

// The first chunk `thief` ran; its rows name the victim of the first steal
// when the thief owned no rows of its own.
const MockExecutor::Exec* FirstExecOn(const MockExecutor& exec,
                                      std::size_t thief) {
  for (const MockExecutor::Exec& e : exec.executions_) {
    if (e.node == thief) return &e;
  }
  return nullptr;
}

TEST(StealCoordinatorTest, BalancedNodesKeepTheirOwnChunks) {
  ChunkLedger ledger;
  ASSERT_TRUE(ledger.Init(PlanFor({{0, 64}, {1, 64}}), 1, 16).ok());
  MockExecutor exec({0.001, 0.001});
  StealCoordinator coordinator(&ledger, &exec, {0, 1}, {});
  const CoordinatorReport report = coordinator.Run();
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_EQ(report.chunks_total, 8u);
  EXPECT_EQ(report.chunks_stolen, 0u);
  EXPECT_EQ(report.chunks_reexecuted, 0u);
  for (const auto& e : exec.executions_) {
    EXPECT_EQ(e.node, e.offset < 64 ? 0u : 1u);
  }
  EXPECT_TRUE(ledger.AllDone());
  // Both clocks ~0.064s; makespan is the max.
  EXPECT_NEAR(report.makespan_seconds, 0.064, 1e-9);
}

TEST(StealCoordinatorTest, FastNodeStealsStragglerTail) {
  // Node 0 is 5x slower than node 1 but the plan split 50/50 (the host's
  // static model was wrong). Node 1 must steal node 0's tail.
  ChunkLedger ledger;
  ASSERT_TRUE(ledger.Init(PlanFor({{0, 64}, {1, 64}}), 1, 16).ok());
  MockExecutor exec({0.005, 0.001});
  StealCoordinator coordinator(&ledger, &exec, {0, 1}, {});
  const CoordinatorReport report = coordinator.Run();
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_GT(report.chunks_stolen, 0u);
  EXPECT_EQ(report.chunks_reexecuted, 0u);  // Stealing never re-runs work.
  // Node 1 ran rows of node 0's range: the steals took its tail.
  bool ran_victim_rows = false;
  for (const auto& e : exec.executions_) {
    ran_victim_rows |= e.node == 1 && e.offset < 64;
  }
  EXPECT_TRUE(ran_victim_rows);
  // Every row ran exactly once (no dropped, no duplicated work).
  std::set<std::uint64_t> rows;
  for (const auto& e : exec.executions_) {
    for (std::uint64_t r = e.offset; r < e.offset + e.count; ++r) {
      EXPECT_TRUE(rows.insert(r).second) << "row " << r << " ran twice";
    }
  }
  EXPECT_EQ(rows.size(), 128u);
  // The makespan beats the no-steal schedule (node 0 alone: 0.32s).
  EXPECT_LT(report.makespan_seconds, 0.32);
}

TEST(StealCoordinatorTest, StealingOffRunsStaticPlan) {
  ChunkLedger ledger;
  ASSERT_TRUE(ledger.Init(PlanFor({{0, 64}, {1, 64}}), 1, 16).ok());
  MockExecutor exec({0.005, 0.001});
  CoordinatorOptions options;
  options.stealing = false;
  StealCoordinator coordinator(&ledger, &exec, {0, 1}, options);
  const CoordinatorReport report = coordinator.Run();
  ASSERT_TRUE(report.status.ok());
  EXPECT_EQ(report.chunks_stolen, 0u);
  EXPECT_NEAR(report.makespan_seconds, 0.32, 1e-9);  // The straggler's tail.
}

TEST(StealCoordinatorTest, BacklogBiasesVictimChoice) {
  // Nodes 1 and 2 have identical pending work, but node 2 also has broker
  // backlog queued ahead — it is the slower one to finish, so the thief
  // must pick it.
  ChunkLedger ledger;
  ASSERT_TRUE(ledger.Init(PlanFor({{1, 32}, {2, 32}}), 1, 16).ok());
  MockExecutor exec({0.001, 0.001, 0.001});
  exec.backlog_[2] = 1.0;
  CoordinatorOptions options;
  options.max_steal_chunks = 1;
  StealCoordinator coordinator(&ledger, &exec, {0, 1, 2}, options);
  const CoordinatorReport report = coordinator.Run();
  ASSERT_TRUE(report.status.ok());
  ASSERT_GT(report.chunks_stolen, 0u);
  // The first steal hit the backlogged node: node 0's first chunk lies in
  // node 2's rows [32, 64).
  const MockExecutor::Exec* first = FirstExecOn(exec, 0);
  ASSERT_NE(first, nullptr);
  EXPECT_GE(first->offset, 32u);
}

TEST(StealCoordinatorTest, LocalityBreaksVictimTies) {
  // Two equally-loaded victims; the thief's directory already holds node
  // 2's rows [32, 64), so node 2 is preferred within the 10% work band.
  ChunkLedger ledger;
  ASSERT_TRUE(ledger.Init(PlanFor({{1, 32}, {2, 32}}), 1, 16).ok());
  MockExecutor exec({0.001, 0.001, 0.001});
  exec.resident_[0] = {32, 64};
  CoordinatorOptions options;
  options.max_steal_chunks = 1;
  StealCoordinator coordinator(&ledger, &exec, {0, 1, 2}, options);
  const CoordinatorReport report = coordinator.Run();
  ASSERT_TRUE(report.status.ok());
  ASSERT_GT(report.chunks_stolen, 0u);
  // The FIRST steal (both victims equally loaded) chose the local one;
  // later steals may legitimately drain the other victim too.
  const MockExecutor::Exec* first = FirstExecOn(exec, 0);
  ASSERT_NE(first, nullptr);
  EXPECT_GE(first->offset, 32u);
}

TEST(StealCoordinatorTest, NetworkErrorFailsOverEvenWhenProbeAnswers) {
  ChunkLedger ledger;
  ASSERT_TRUE(ledger.Init(PlanFor({{0, 32}, {1, 32}}), 1, 16).ok());
  MockExecutor exec({0.001, 0.001});
  // Node 0's first two Executes fail with a network error, but the node
  // still answers probes. The timed-out request could still run there, so
  // a retry on node 0 might run beside it: the node fails over at its
  // first failure and never gets another chunk.
  exec.fail_times_[0] = 2;
  exec.fail_code_ = ErrorCode::kNetworkError;
  StealCoordinator coordinator(&ledger, &exec, {0, 1}, {});
  const CoordinatorReport report = coordinator.Run();
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_EQ(report.dead_nodes, std::vector<std::size_t>{0});
  EXPECT_EQ(exec.dead_declared_.count(0), 1u);
  EXPECT_EQ(exec.calls_on_[0], 1u);
  EXPECT_EQ(exec.executed_on_[0], 0u);
  EXPECT_EQ(exec.executed_on_[1], 4u);
  for (const MockExecutor::Exec& run : exec.executions_) {
    EXPECT_EQ(run.node, 1u) << "chunk " << run.chunk_id;
  }
  EXPECT_TRUE(ledger.AllDone());
}

TEST(StealCoordinatorTest, FatalErrorAbortsLaunch) {
  ChunkLedger ledger;
  ASSERT_TRUE(ledger.Init(PlanFor({{0, 32}}), 1, 16).ok());
  MockExecutor exec({0.001});
  exec.fail_after_[0] = 0;
  exec.fail_code_ = ErrorCode::kInvalidKernelName;  // Not a liveness error.
  StealCoordinator coordinator(&ledger, &exec, {0}, {});
  const CoordinatorReport report = coordinator.Run();
  EXPECT_EQ(report.status.code(), ErrorCode::kInvalidKernelName);
  EXPECT_TRUE(report.dead_nodes.empty());
}

TEST(StealCoordinatorTest, DeadNodeChunksRequeueOntoSurvivors) {
  ChunkLedger ledger;
  ASSERT_TRUE(ledger.Init(PlanFor({{0, 64}, {1, 64}}), 1, 16).ok());
  MockExecutor exec({0.001, 0.001});
  // Node 0 completes 2 chunks then every Execute fails kNodeLost, and
  // probes agree it is dead. Its outputs for rows [0,32) survived (no
  // lost_rows_ script) so only the NOT-done chunks re-run on node 1.
  exec.fail_after_[0] = 2;
  exec.dead_to_probe_.insert(0);
  StealCoordinator coordinator(&ledger, &exec, {0, 1}, {});
  const CoordinatorReport report = coordinator.Run();
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  ASSERT_EQ(report.dead_nodes.size(), 1u);
  EXPECT_EQ(report.dead_nodes[0], 0u);
  EXPECT_EQ(exec.dead_declared_.count(0), 1u);
  EXPECT_TRUE(ledger.AllDone());
  // Done rows [0,32) ran exactly once; everything else completed on node 1.
  std::map<std::uint64_t, std::uint64_t> runs;
  for (const auto& e : exec.executions_) {
    for (std::uint64_t r = e.offset; r < e.offset + e.count; ++r) ++runs[r];
  }
  for (std::uint64_t r = 0; r < 128; ++r) {
    EXPECT_EQ(runs[r], 1u) << "row " << r;
  }
}

TEST(StealCoordinatorTest, LostOutputRowsReexecute) {
  ChunkLedger ledger;
  ASSERT_TRUE(ledger.Init(PlanFor({{0, 64}, {1, 64}}), 1, 16).ok());
  MockExecutor exec({0.001, 0.001});
  exec.fail_after_[0] = 2;  // Dies with [0,32) done...
  exec.dead_to_probe_.insert(0);
  exec.lost_rows_[0] = {{16, 32}};  // ...but [16,32)'s output died with it.
  StealCoordinator coordinator(&ledger, &exec, {0, 1}, {});
  const CoordinatorReport report = coordinator.Run();
  ASSERT_TRUE(report.status.ok());
  EXPECT_TRUE(ledger.AllDone());
  std::map<std::uint64_t, std::uint64_t> runs;
  for (const auto& e : exec.executions_) {
    for (std::uint64_t r = e.offset; r < e.offset + e.count; ++r) ++runs[r];
  }
  for (std::uint64_t r = 0; r < 128; ++r) {
    EXPECT_EQ(runs[r], r >= 16 && r < 32 ? 2u : 1u) << "row " << r;
  }
  EXPECT_GE(report.chunks_reexecuted, 1u);
}

TEST(StealCoordinatorTest, AllNodesDeadReportsNodeLost) {
  ChunkLedger ledger;
  ASSERT_TRUE(ledger.Init(PlanFor({{0, 32}, {1, 32}}), 1, 16).ok());
  MockExecutor exec({0.001, 0.001});
  exec.fail_after_[0] = 0;
  exec.fail_after_[1] = 0;
  exec.dead_to_probe_ = {0, 1};
  StealCoordinator coordinator(&ledger, &exec, {0, 1}, {});
  const CoordinatorReport report = coordinator.Run();
  EXPECT_EQ(report.status.code(), ErrorCode::kNodeLost);
  EXPECT_EQ(report.dead_nodes.size(), 2u);
}

TEST(StealCoordinatorTest, ChunksNoLiveNodeOwnsEndTheLaunch) {
  // Node 5 is no participant, so no node can run or steal its chunks.
  // Once node 1 has stolen node 0's tail their clocks differ, and the
  // launch must end as stalled instead of parking them in turn forever.
  ChunkLedger ledger;
  ASSERT_TRUE(ledger.Init(PlanFor({{0, 32}, {5, 32}}), 1, 16).ok());
  MockExecutor exec({0.001, 0.002});
  StealCoordinator coordinator(&ledger, &exec, {0, 1}, {});
  const CoordinatorReport report = coordinator.Run();
  EXPECT_EQ(report.status.code(), ErrorCode::kInternal);
  EXPECT_EQ(exec.executions_.size(), 2u);  // Node 0's two chunks.
  EXPECT_EQ(ledger.RemainingChunks(), 2u);
}

TEST(StealCoordinatorTest, RefusedCompletionEndsTheLaunch) {
  // An executor that re-targets the chunk it is running breaks the rule
  // the coordinator relies on; the ledger refuses the stale completion and
  // the launch ends with that status instead of counting the result.
  ChunkLedger ledger;
  ASSERT_TRUE(ledger.Init(PlanFor({{0, 32}, {1, 32}}), 1, 16).ok());
  class Retargets : public MockExecutor {
   public:
    explicit Retargets(ChunkLedger* ledger)
        : MockExecutor({0.001, 0.001}), ledger_(ledger) {}
    Expected<ChunkOutcome> Execute(const Chunk& chunk,
                                   std::size_t node) override {
      EXPECT_TRUE(ledger_->Requeue(chunk.id).ok());
      EXPECT_FALSE(ledger_->Steal(node, 1 - node, 4).empty());
      return MockExecutor::Execute(chunk, node);
    }
    ChunkLedger* ledger_;
  } exec(&ledger);
  StealCoordinator coordinator(&ledger, &exec, {0, 1}, {});
  const CoordinatorReport report = coordinator.Run();
  EXPECT_EQ(report.status.code(), ErrorCode::kInvalidOperation);
  EXPECT_EQ(exec.executions_.size(), 1u);
  EXPECT_FALSE(ledger.AllDone());
}

TEST(FaultInjectorTest, ScriptedKillTripsAfterNChunks) {
  FaultInjector faults;
  faults.ScriptKill(0, /*after_chunks=*/2);
  int hook_fired = 0;
  faults.SetKillHook([&](std::size_t node) {
    EXPECT_EQ(node, 0u);
    ++hook_fired;
  });
  EXPECT_TRUE(faults.BeforeExecute(0).ok());
  faults.AfterExecute(0);
  EXPECT_TRUE(faults.BeforeExecute(0).ok());
  faults.AfterExecute(0);  // Completion #2 trips the kill.
  EXPECT_EQ(hook_fired, 1);
  EXPECT_TRUE(faults.IsDead(0));
  const Status dead = faults.BeforeExecute(0);
  EXPECT_EQ(dead.code(), ErrorCode::kNodeLost);
  EXPECT_EQ(faults.CompletedChunks(0), 2u);
  // Other nodes are untouched.
  EXPECT_TRUE(faults.BeforeExecute(1).ok());
}

}  // namespace
}  // namespace haocl::elastic
