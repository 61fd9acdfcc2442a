// RegionDirectory unit tests: interval arithmetic the coherence layer
// stands on — tiling invariants, write/transfer transitions, coalescing,
// and the missing-range queries the transfer engine plans with.
#include "host/region_directory.h"

#include <gtest/gtest.h>

namespace haocl::host {
namespace {

constexpr RegionDirectory::Owner kN0 = 0;
constexpr RegionDirectory::Owner kN1 = 1;
constexpr RegionDirectory::Owner kN2 = 2;
constexpr RegionDirectory::Owner kHost = 3;

RegionDirectory Make(std::uint64_t size = 1000) {
  return RegionDirectory(size, /*owner_count=*/4, /*initial_owner=*/kHost);
}

// Every byte in [0, size) belongs to exactly one region, regions are
// ordered, non-empty, and always have at least one owner.
void CheckInvariants(const RegionDirectory& dir) {
  std::uint64_t expected_begin = 0;
  for (const auto& region : dir.regions()) {
    EXPECT_EQ(region.begin, expected_begin);
    EXPECT_LT(region.begin, region.end);
    EXPECT_FALSE(region.owners.empty());
    EXPECT_TRUE(std::is_sorted(region.owners.begin(), region.owners.end()));
    expected_begin = region.end;
  }
  EXPECT_EQ(expected_begin, dir.size());
}

TEST(RegionDirectoryTest, StartsWithInitialOwnerEverywhere) {
  RegionDirectory dir = Make();
  EXPECT_EQ(dir.region_count(), 1u);
  EXPECT_TRUE(dir.Covers(kHost, 0, 1000));
  EXPECT_FALSE(dir.Covers(kN0, 0, 1));
  EXPECT_EQ(dir.BytesOwnedBy(kHost, 0, 1000), 1000u);
  EXPECT_EQ(dir.BytesOwnedBy(kN0, 0, 1000), 0u);
  EXPECT_EQ(dir.epoch(), 0u);
  CheckInvariants(dir);
}

TEST(RegionDirectoryTest, MarkWrittenReplacesOwnersAndBumpsEpoch) {
  RegionDirectory dir = Make();
  dir.MarkWritten(100, 300, kN1);
  EXPECT_EQ(dir.epoch(), 1u);
  EXPECT_TRUE(dir.Covers(kN1, 100, 300));
  EXPECT_FALSE(dir.Covers(kHost, 100, 300));
  EXPECT_TRUE(dir.Covers(kHost, 0, 100));
  EXPECT_TRUE(dir.Covers(kHost, 300, 1000));
  EXPECT_EQ(dir.BytesOwnedBy(kN1, 0, 1000), 200u);
  EXPECT_EQ(dir.BytesOwnedBy(kHost, 0, 1000), 800u);
  // A window counts only its own bytes, clipping the regions it cuts.
  EXPECT_EQ(dir.BytesOwnedBy(kN1, 250, 400), 50u);
  EXPECT_EQ(dir.BytesOwnedBy(kHost, 50, 350), 100u);
  EXPECT_EQ(dir.BytesOwnedBy(kN1, 150, 150), 0u);
  CheckInvariants(dir);
}

TEST(RegionDirectoryTest, AddOwnerJoinsWithoutEvicting) {
  RegionDirectory dir = Make();
  dir.MarkWritten(0, 1000, kN0);
  dir.AddOwner(200, 600, kN1);
  EXPECT_TRUE(dir.Covers(kN0, 0, 1000));
  EXPECT_TRUE(dir.Covers(kN1, 200, 600));
  EXPECT_FALSE(dir.Covers(kN1, 199, 201));
  CheckInvariants(dir);
}

TEST(RegionDirectoryTest, AdjacentEqualOwnerRegionsCoalesce) {
  RegionDirectory dir = Make();
  dir.MarkWritten(0, 500, kN0);
  dir.MarkWritten(500, 1000, kN0);
  EXPECT_EQ(dir.region_count(), 1u);
  // Different owners stay split...
  dir.MarkWritten(250, 750, kN1);
  EXPECT_EQ(dir.region_count(), 3u);
  // ...until a covering write folds them back together.
  dir.MarkWritten(0, 1000, kN2);
  EXPECT_EQ(dir.region_count(), 1u);
  CheckInvariants(dir);
}

TEST(RegionDirectoryTest, MissingForCoalescesAcrossOwnerBoundaries) {
  RegionDirectory dir = Make();
  // [0,200) node0, [200,400) node1, [400,600) host, [600,1000) node2:
  dir.MarkWritten(0, 200, kN0);
  dir.MarkWritten(200, 400, kN1);
  dir.MarkWritten(600, 1000, kN2);
  // The host misses [0,400) and [600,1000); the two stale runs either side
  // of its [400,600) must each come back as ONE span even though their
  // owner sets differ mid-run.
  auto missing = dir.MissingFor(kHost, 0, 1000);
  ASSERT_EQ(missing.size(), 2u);
  EXPECT_EQ(missing[0].begin, 0u);
  EXPECT_EQ(missing[0].end, 400u);
  EXPECT_EQ(missing[1].begin, 600u);
  EXPECT_EQ(missing[1].end, 1000u);
  // Clipped queries clip the spans too.
  missing = dir.MissingFor(kHost, 100, 700);
  ASSERT_EQ(missing.size(), 2u);
  EXPECT_EQ(missing[0].begin, 100u);
  EXPECT_EQ(missing[0].end, 400u);
  EXPECT_EQ(missing[1].begin, 600u);
  EXPECT_EQ(missing[1].end, 700u);
  EXPECT_TRUE(dir.MissingFor(kHost, 450, 550).empty());
}

TEST(RegionDirectoryTest, QueryClipsToRange) {
  RegionDirectory dir = Make();
  dir.MarkWritten(300, 700, kN0);
  auto regions = dir.Query(100, 500);
  ASSERT_EQ(regions.size(), 2u);
  EXPECT_EQ(regions[0].begin, 100u);
  EXPECT_EQ(regions[0].end, 300u);
  EXPECT_EQ(regions[0].owners, std::vector<RegionDirectory::Owner>{kHost});
  EXPECT_EQ(regions[1].begin, 300u);
  EXPECT_EQ(regions[1].end, 500u);
  EXPECT_EQ(regions[1].owners, std::vector<RegionDirectory::Owner>{kN0});
}

TEST(RegionDirectoryTest, EpochsTrackDistinctWrites) {
  RegionDirectory dir = Make();
  dir.MarkWritten(0, 500, kN0);   // epoch 1
  dir.MarkWritten(500, 1000, kN1);  // epoch 2
  auto regions = dir.Query(0, 1000);
  ASSERT_EQ(regions.size(), 2u);
  EXPECT_EQ(regions[0].epoch, 1u);
  EXPECT_EQ(regions[1].epoch, 2u);
  // A transfer does not advance the epoch.
  dir.AddOwner(0, 500, kHost);
  EXPECT_EQ(dir.epoch(), 2u);
}

TEST(RegionDirectoryTest, ManyInterleavedWritesKeepTilingSound) {
  RegionDirectory dir = Make(4096);
  std::uint64_t state = 12345;
  auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t a = next() % 4096;
    const std::uint64_t b = next() % 4096;
    const std::uint64_t begin = std::min(a, b);
    const std::uint64_t end = std::max(a, b) + 1;
    const auto owner = static_cast<RegionDirectory::Owner>(next() % 4);
    if (next() % 2 == 0) {
      dir.MarkWritten(begin, end, owner);
      EXPECT_TRUE(dir.Covers(owner, begin, end));
      EXPECT_TRUE(dir.MissingFor(owner, begin, end).empty());
    } else {
      dir.AddOwner(begin, end, owner);
      EXPECT_TRUE(dir.Covers(owner, begin, end));
    }
    CheckInvariants(dir);
  }
  // Steady state stays compact: at most one region per owner-set change,
  // far below the operation count.
  EXPECT_LT(dir.region_count(), 64u);
}

}  // namespace
}  // namespace haocl::host
