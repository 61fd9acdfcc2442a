// ChunkLedger unit tests: chunking, acquire order, tail stealing, refusal
// of a stale MarkDone, and failure re-queue with output-loss dedup.
#include "elastic/chunk_ledger.h"

#include <gtest/gtest.h>

namespace haocl::elastic {
namespace {

sched::PlacementPlan TwoShardPlan() {
  // Node 0: rows [0, 64); node 1: rows [64, 128).
  sched::PlacementPlan plan;
  plan.shards.push_back({.node = 0, .global_offset = 0, .global_count = 64});
  plan.shards.push_back({.node = 1, .global_offset = 64, .global_count = 64});
  return plan;
}

TEST(ChunkLedgerTest, InitCutsShardsIntoAlignedChunks) {
  ChunkLedger ledger;
  ASSERT_TRUE(ledger.Init(TwoShardPlan(), /*align=*/1, /*chunk_rows=*/16).ok());
  const auto chunks = ledger.Snapshot();
  ASSERT_EQ(chunks.size(), 8u);
  EXPECT_EQ(ledger.stats().total_chunks, 8u);
  std::uint64_t expect_offset = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].id, i + 1);  // Dense, 1-based, offset order.
    EXPECT_EQ(chunks[i].offset, expect_offset);
    EXPECT_EQ(chunks[i].count, 16u);
    EXPECT_EQ(chunks[i].owner, i < 4 ? 0u : 1u);
    EXPECT_EQ(chunks[i].state, ChunkState::kPending);
    expect_offset += 16;
  }
}

TEST(ChunkLedgerTest, EmptyPlanRejected) {
  ChunkLedger ledger;
  EXPECT_FALSE(ledger.Init(sched::PlacementPlan{}, 1, 16).ok());
}

TEST(ChunkLedgerTest, AcquireFrontOfOwnRange) {
  ChunkLedger ledger;
  ASSERT_TRUE(ledger.Init(TwoShardPlan(), 1, 16).ok());
  auto chunk = ledger.Acquire(1);
  ASSERT_TRUE(chunk.has_value());
  EXPECT_EQ(chunk->offset, 64u);  // Node 1's FRONT chunk, not node 0's.
  EXPECT_EQ(chunk->attempts, 1u);
  auto next = ledger.Acquire(1);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->offset, 80u);
  EXPECT_EQ(ledger.PendingRowsOf(1), 32u);
  // A node with no shard has nothing until it steals.
  EXPECT_FALSE(ledger.Acquire(7).has_value());
}

TEST(ChunkLedgerTest, StealTakesTailChunksOnly) {
  ChunkLedger ledger;
  ASSERT_TRUE(ledger.Init(TwoShardPlan(), 1, 16).ok());
  auto running = ledger.Acquire(0);  // [0,16) running on the victim.
  ASSERT_TRUE(running.has_value());
  const auto stolen = ledger.Steal(/*victim=*/0, /*thief=*/1, 2);
  ASSERT_EQ(stolen.size(), 2u);
  // Tail of the victim's pending range, returned in offset order.
  EXPECT_EQ(stolen[0].offset, 32u);
  EXPECT_EQ(stolen[1].offset, 48u);
  for (const Chunk& chunk : stolen) {
    EXPECT_EQ(chunk.owner, 1u);
    EXPECT_TRUE(chunk.stolen);
    EXPECT_EQ(chunk.state, ChunkState::kPending);
  }
  EXPECT_EQ(ledger.stats().stolen_chunks, 2u);
  EXPECT_EQ(ledger.PendingRowsOf(0), 16u);  // Only [16,32) left.
  // The running chunk was never touched.
  EXPECT_TRUE(ledger.MarkDone(running->id, 0).ok());
}

TEST(ChunkLedgerTest, MarkDoneAfterRetargetIsRevoked) {
  ChunkLedger ledger;
  ASSERT_TRUE(ledger.Init(TwoShardPlan(), 1, 16).ok());
  auto chunk = ledger.Acquire(0);
  ASSERT_TRUE(chunk.has_value());
  ASSERT_TRUE(ledger.Requeue(chunk->id).ok());          // Back to pending...
  (void)ledger.Steal(0, 1, 4);                          // ...stolen by node 1.
  // Node 0's stale completion must not win.
  const Status late = ledger.MarkDone(chunk->id, 0);
  EXPECT_EQ(late.code(), ErrorCode::kInvalidOperation);
  // The new owner completes it for real.
  auto retry = ledger.Acquire(1);
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(retry->id, chunk->id);
  EXPECT_EQ(retry->attempts, 2u);
  EXPECT_TRUE(ledger.MarkDone(retry->id, 1).ok());
}

TEST(ChunkLedgerTest, DrainsToAllDone) {
  ChunkLedger ledger;
  ASSERT_TRUE(ledger.Init(TwoShardPlan(), 1, 16).ok());
  for (std::size_t node = 0; node < 2; ++node) {
    while (auto chunk = ledger.Acquire(node)) {
      ASSERT_TRUE(ledger.MarkDone(chunk->id, node).ok());
    }
  }
  EXPECT_TRUE(ledger.AllDone());
  EXPECT_EQ(ledger.RemainingChunks(), 0u);
  EXPECT_EQ(ledger.stats().done_chunks, 8u);
}

TEST(ChunkLedgerTest, ReassignLostRequeuesNonDoneAndLostOutputs) {
  ChunkLedger ledger;
  ASSERT_TRUE(ledger.Init(TwoShardPlan(), 1, 16).ok());
  // Node 0 completes [0,16) and [16,32), is running [32,48).
  auto first = ledger.Acquire(0);
  ASSERT_TRUE(ledger.MarkDone(first->id, 0).ok());
  auto second = ledger.Acquire(0);
  ASSERT_TRUE(ledger.MarkDone(second->id, 0).ok());
  auto third = ledger.Acquire(0);
  ASSERT_TRUE(third.has_value());

  // Node 0 dies. Outputs of [16,48) died with it; [0,16) survived (say it
  // was gathered to the host before the crash).
  const auto requeued =
      ledger.ReassignLost(/*dead=*/0, /*survivors=*/{1}, {{16, 48}});
  // Re-queued: done-[16,32) (output lost), running-[32,48), pending-[48,64).
  ASSERT_EQ(requeued.size(), 3u);
  EXPECT_EQ(requeued[0].offset, 16u);
  EXPECT_EQ(requeued[1].offset, 32u);
  EXPECT_EQ(requeued[2].offset, 48u);
  for (const Chunk& chunk : requeued) {
    EXPECT_EQ(chunk.owner, 1u);
    EXPECT_EQ(chunk.state, ChunkState::kPending);
  }
  // Done chunk [0,16) whose output survived is NOT re-run (it would
  // double-apply an in-place kernel).
  const auto chunks = ledger.Snapshot();
  EXPECT_EQ(chunks[0].state, ChunkState::kDone);
  EXPECT_EQ(ledger.stats().requeued_chunks, 3u);
  EXPECT_EQ(ledger.PendingRowsOf(1), 64u + 48u);
}

TEST(ChunkLedgerTest, ReassignRotatesAcrossSurvivors) {
  sched::PlacementPlan plan;
  plan.shards.push_back({.node = 0, .global_offset = 0, .global_count = 64});
  ChunkLedger ledger;
  ASSERT_TRUE(ledger.Init(plan, 1, 16).ok());
  const auto requeued = ledger.ReassignLost(0, {1, 2}, {});
  ASSERT_EQ(requeued.size(), 4u);
  EXPECT_EQ(requeued[0].owner, 1u);
  EXPECT_EQ(requeued[1].owner, 2u);
  EXPECT_EQ(requeued[2].owner, 1u);
  EXPECT_EQ(requeued[3].owner, 2u);
}

TEST(ChunkLedgerTest, AlignmentRoundsChunkRows) {
  sched::PlacementPlan plan;
  plan.shards.push_back({.node = 0, .global_offset = 0, .global_count = 100});
  ChunkLedger ledger;
  // chunk_rows=30 with align=16 -> 32-row chunks plus the short tail.
  ASSERT_TRUE(ledger.Init(plan, /*align=*/16, /*chunk_rows=*/30).ok());
  const auto chunks = ledger.Snapshot();
  ASSERT_EQ(chunks.size(), 4u);
  EXPECT_EQ(chunks[0].count, 32u);
  EXPECT_EQ(chunks[1].count, 32u);
  EXPECT_EQ(chunks[2].count, 32u);
  EXPECT_EQ(chunks[3].count, 4u);  // 100 % 32, the unaligned tail.
}

}  // namespace
}  // namespace haocl::elastic
