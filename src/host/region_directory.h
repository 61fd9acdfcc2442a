// RegionDirectory: per-buffer interval map of byte-range ownership.
//
// The coherence layer tracks, for every byte range of a logical buffer,
// WHICH participants currently hold a fresh copy ("owners") and the dirty
// epoch of the write that produced those bytes. Owners are dense indices:
// 0..node_count-1 are device nodes and host_owner() (== node_count) is the
// host shadow — the host is just another peer, not the hub of a star.
//
// The directory is a totally ordered, gap-free tiling of [0, size): every
// byte always has at least one owner (writes replace the owner set, they
// never empty it). Adjacent regions with identical owner sets coalesce, so
// steady-state buffers collapse back to a handful of regions no matter how
// many partitioned launches sliced them up.
//
// Thread-compatibility: none. Callers (LogicalBuffer) guard the directory
// with the buffer's own mutex.
#pragma once

#include <cstdint>
#include <vector>

namespace haocl::host {

class RegionDirectory {
 public:
  using Owner = std::uint32_t;

  // One interval of the tiling: [begin, end) with its sorted owner set and
  // the epoch of the write whose bytes these are.
  struct Region {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    std::vector<Owner> owners;
    std::uint64_t epoch = 0;
  };

  // A bare byte range (MissingFor result).
  struct Span {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
  };

  RegionDirectory() = default;
  // Directory over [0, size) with owners 0..owner_count-1; the whole range
  // starts owned by `initial_owner` at epoch 0.
  RegionDirectory(std::uint64_t size, Owner owner_count, Owner initial_owner);

  [[nodiscard]] std::uint64_t size() const { return size_; }
  [[nodiscard]] Owner owner_count() const { return owner_count_; }
  [[nodiscard]] Owner host_owner() const { return owner_count_ - 1; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] std::size_t region_count() const { return regions_.size(); }

  // A write landed: [begin, end) now has exactly one fresh copy, at
  // `owner`, and the global dirty epoch advances. Every other participant's
  // copy of the range is stale from here on.
  void MarkWritten(std::uint64_t begin, std::uint64_t end, Owner owner);

  // A transfer completed: `owner` received fresh bytes of [begin, end) from
  // a current owner and joins each region's owner set (epochs unchanged).
  void AddOwner(std::uint64_t begin, std::uint64_t end, Owner owner);

  // Eviction demoted `owner`'s copy of [begin, end): drops it from each
  // region's owner set where it is NOT the sole owner. Regions where it is
  // the last fresh copy are left untouched (the tiling stays gap-free —
  // spill such ranges to another owner first), and their count is
  // returned so callers can detect a demotion that was refused.
  std::size_t RemoveOwner(std::uint64_t begin, std::uint64_t end, Owner owner);

  // True when `owner` holds fresh bytes for EVERY byte of [begin, end).
  [[nodiscard]] bool Covers(Owner owner, std::uint64_t begin,
                            std::uint64_t end) const;

  // Maximal spans of [begin, end) with no fresh copy at `owner`, in order.
  // Adjacent/overlapping stale regions coalesce into one span even when
  // their owner sets differ — the transfer planner re-segments by source,
  // so callers never ship a byte range twice.
  [[nodiscard]] std::vector<Span> MissingFor(Owner owner, std::uint64_t begin,
                                             std::uint64_t end) const;

  // Regions overlapping [begin, end), clipped to the range, in order.
  [[nodiscard]] std::vector<Region> Query(std::uint64_t begin,
                                          std::uint64_t end) const;

  // The whole tiling, in order (snapshot/tests).
  [[nodiscard]] const std::vector<Region>& regions() const { return regions_; }

  // Bytes of [begin, end) with a fresh copy at `owner`.
  [[nodiscard]] std::uint64_t BytesOwnedBy(Owner owner, std::uint64_t begin,
                                           std::uint64_t end) const;

 private:
  // Index of the region containing byte `pos`.
  [[nodiscard]] std::size_t RegionAt(std::uint64_t pos) const;
  // Ensures a region boundary at `pos` (splits the covering region).
  void SplitAt(std::uint64_t pos);
  // Merges adjacent regions with identical owner sets.
  void Coalesce();

  std::uint64_t size_ = 0;
  Owner owner_count_ = 0;
  std::uint64_t epoch_ = 0;
  std::vector<Region> regions_;  // Sorted, contiguous, non-empty tiling.
};

}  // namespace haocl::host
