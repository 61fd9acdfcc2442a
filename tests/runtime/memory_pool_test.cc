// MemoryPool: the shared reservation API both the host's per-node ledgers
// and the node-side DeviceSession pools are built on.
#include "runtime/memory_pool.h"

#include <gtest/gtest.h>

#include <vector>

namespace haocl::runtime {
namespace {

TEST(MemoryPoolTest, ReserveChargesOnlyNewBytes) {
  MemoryPool pool(1000);
  ASSERT_TRUE(pool.Reserve(1, 0, 100).ok());
  EXPECT_EQ(pool.resident_bytes(), 100u);
  // Overlapping re-reservation charges only the uncovered tail.
  ASSERT_TRUE(pool.Reserve(1, 50, 150).ok());
  EXPECT_EQ(pool.resident_bytes(), 150u);
  EXPECT_EQ(pool.ResidentOf(1), 150u);
  // Fully covered: free.
  ASSERT_TRUE(pool.Reserve(1, 0, 150).ok());
  EXPECT_EQ(pool.resident_bytes(), 150u);
  // A different buffer accounts separately.
  ASSERT_TRUE(pool.Reserve(2, 0, 100).ok());
  EXPECT_EQ(pool.resident_bytes(), 250u);
  EXPECT_EQ(pool.free_bytes(), 750u);
}

TEST(MemoryPoolTest, CapacityEnforcedAllOrNothing) {
  MemoryPool pool(100);
  ASSERT_TRUE(pool.Reserve(1, 0, 80).ok());
  // 30 new bytes would exceed 100: nothing is charged.
  EXPECT_EQ(pool.Reserve(2, 0, 30).code(),
            ErrorCode::kMemObjectAllocationFailure);
  EXPECT_EQ(pool.resident_bytes(), 80u);
  EXPECT_EQ(pool.ResidentOf(2), 0u);
  // Exactly filling the pool is fine.
  ASSERT_TRUE(pool.Reserve(2, 0, 20).ok());
  EXPECT_EQ(pool.free_bytes(), 0u);
}

TEST(MemoryPoolTest, ReserveAllIsTransactional) {
  MemoryPool pool(100);
  // The two ranges overlap: the transaction needs 60 bytes, not 80.
  ASSERT_TRUE(pool.ReserveAll({{1, 0, 40}, {1, 20, 60}}).ok());
  EXPECT_EQ(pool.resident_bytes(), 60u);
  // Second transaction would need 70 new bytes (> 40 free): refused whole,
  // including the part that would have fit.
  EXPECT_FALSE(pool.ReserveAll({{2, 0, 30}, {3, 0, 40}}).ok());
  EXPECT_EQ(pool.ResidentOf(2), 0u);
  EXPECT_EQ(pool.ResidentOf(3), 0u);
  EXPECT_EQ(pool.resident_bytes(), 60u);
}

TEST(MemoryPoolTest, ReserveAllReportsTheSpansItCharged) {
  MemoryPool pool(1000);
  ASSERT_TRUE(pool.ReserveAll({{1, 0, 10}, {1, 20, 30}}).ok());
  // Overlapping requests over held bytes: only the gaps are new, each once.
  std::vector<MemoryPool::BufferRange> charged;
  ASSERT_TRUE(
      pool.ReserveAll({{1, 0, 40}, {1, 35, 50}, {2, 5, 15}}, &charged).ok());
  ASSERT_EQ(charged.size(), 3u);
  EXPECT_EQ(charged[0].buffer, 1u);
  EXPECT_EQ(charged[0].begin, 10u);
  EXPECT_EQ(charged[0].end, 20u);
  EXPECT_EQ(charged[1].begin, 30u);
  EXPECT_EQ(charged[1].end, 50u);
  EXPECT_EQ(charged[2].buffer, 2u);
  EXPECT_EQ(charged[2].begin, 5u);
  EXPECT_EQ(charged[2].end, 15u);
  EXPECT_EQ(pool.resident_bytes(), 60u);
  // Releasing exactly those spans restores the earlier residency.
  for (const MemoryPool::BufferRange& span : charged) {
    pool.Release(span.buffer, span.begin, span.end);
  }
  EXPECT_EQ(pool.resident_bytes(), 20u);
  // Nothing new: nothing charged.
  charged.clear();
  ASSERT_TRUE(pool.ReserveAll({{1, 0, 10}}, &charged).ok());
  EXPECT_TRUE(charged.empty());
}

TEST(MemoryPoolTest, ReleaseSplitsIntervals) {
  MemoryPool pool(1000);
  ASSERT_TRUE(pool.Reserve(1, 0, 100).ok());
  EXPECT_EQ(pool.Release(1, 25, 75), 50u);
  EXPECT_EQ(pool.resident_bytes(), 50u);
  auto spans = pool.ResidentSpansOf(1);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].begin, 0u);
  EXPECT_EQ(spans[0].end, 25u);
  EXPECT_EQ(spans[1].begin, 75u);
  EXPECT_EQ(spans[1].end, 100u);
  // Releasing an unmaterialized range is a no-op.
  EXPECT_EQ(pool.Release(1, 30, 60), 0u);
  EXPECT_EQ(pool.ReleaseBuffer(1), 50u);
  EXPECT_EQ(pool.resident_bytes(), 0u);
  EXPECT_TRUE(pool.ResidentBuffers().empty());
}

TEST(MemoryPoolTest, NewBytesInCostsWithoutMutating) {
  MemoryPool pool(1000);
  ASSERT_TRUE(pool.Reserve(7, 0, 100).ok());
  EXPECT_EQ(pool.NewBytesIn({{7, 50, 200}}), 100u);
  EXPECT_EQ(pool.NewBytesIn({{7, 50, 200}, {8, 0, 10}}), 110u);
  // Overlap within the query is counted once.
  EXPECT_EQ(pool.NewBytesIn({{8, 0, 30}, {8, 20, 50}}), 50u);
  EXPECT_EQ(pool.resident_bytes(), 100u);
}

TEST(MemoryPoolTest, UnboundedPoolNeverFails) {
  MemoryPool pool;  // Capacity 0 = unbounded.
  EXPECT_FALSE(pool.bounded());
  ASSERT_TRUE(pool.Reserve(1, 0, 1ull << 40).ok());
  EXPECT_EQ(pool.free_bytes(), ~0ull);
  EXPECT_EQ(pool.resident_bytes(), 1ull << 40);
}

TEST(MemoryPoolTest, ResidentBuffersReportsTotals) {
  MemoryPool pool(1000);
  ASSERT_TRUE(pool.ReserveAll({{3, 0, 10}, {1, 0, 30}, {2, 5, 25}}).ok());
  auto buffers = pool.ResidentBuffers();
  ASSERT_EQ(buffers.size(), 3u);
  EXPECT_EQ(buffers[0], (std::pair<std::uint64_t, std::uint64_t>{1, 30}));
  EXPECT_EQ(buffers[1], (std::pair<std::uint64_t, std::uint64_t>{2, 20}));
  EXPECT_EQ(buffers[2], (std::pair<std::uint64_t, std::uint64_t>{3, 10}));
}

}  // namespace
}  // namespace haocl::runtime
