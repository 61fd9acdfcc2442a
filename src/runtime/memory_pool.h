// MemoryPool: byte-accurate accounting of one device's memory tier.
//
// The pool tracks which byte ranges of which logical buffers are
// MATERIALIZED on a device (occupying its memory), independently of
// whether those bytes are fresh — a replica that went stale still holds
// silicon until it is evicted. Both sides of the wire share this one
// reservation API: the host runtime keeps a pool per node (the
// authoritative ledger its eviction policy and the scheduler's
// mem_free_bytes read), and each DeviceSession charges its node's shared
// ledger (fed by the transfers it observes plus explicit
// reservation/eviction notices). The node's ledger also enforces tenant
// quotas and other sessions' residency, which the host cannot see, so it
// may refuse bytes the host admitted; the host then hands back what its
// reservation newly charged (ClusterRuntime::StageWorkingSet).
//
// Reservations are all-or-nothing against the capacity: Reserve charges
// only the bytes not already resident and fails without side effects when
// they would not fit. Capacity 0 means unbounded (a device that never
// reported one).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "common/status.h"

namespace haocl::runtime {

class MemoryPool {
 public:
  // One byte range of one logical buffer.
  struct BufferRange {
    std::uint64_t buffer = 0;
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
  };
  struct Span {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
  };

  MemoryPool() = default;
  explicit MemoryPool(std::uint64_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  [[nodiscard]] std::uint64_t capacity() const { return capacity_; }
  [[nodiscard]] bool bounded() const { return capacity_ != 0; }

  // Charges the not-yet-resident bytes of [begin, end). Fails with
  // kMemObjectAllocationFailure (charging nothing) when they would push
  // the pool past its capacity.
  Status Reserve(std::uint64_t buffer, std::uint64_t begin, std::uint64_t end);

  // Transactional multi-range reserve: either every range is charged or
  // none is. Ranges may overlap each other and existing residency; each
  // byte is charged at most once. On success, `charged` (when given)
  // receives the disjoint spans this call newly charged.
  Status ReserveAll(const std::vector<BufferRange>& ranges,
                    std::vector<BufferRange>* charged = nullptr);

  // Releases the resident bytes of [begin, end) (no-op where nothing is
  // resident). Returns the number of bytes actually freed.
  std::uint64_t Release(std::uint64_t buffer, std::uint64_t begin,
                        std::uint64_t end);
  // Releases everything the buffer holds; returns the bytes freed.
  std::uint64_t ReleaseBuffer(std::uint64_t buffer);

  [[nodiscard]] std::uint64_t resident_bytes() const;
  [[nodiscard]] std::uint64_t free_bytes() const;  // ~0 when unbounded.
  [[nodiscard]] std::uint64_t ResidentOf(std::uint64_t buffer) const;
  // Bytes a Reserve of the ranges would newly charge right now.
  [[nodiscard]] std::uint64_t NewBytesIn(
      const std::vector<BufferRange>& ranges) const;
  // Every buffer with resident bytes, as (buffer, bytes) pairs.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>>
  ResidentBuffers() const;
  // Resident spans of one buffer, in order (tests / spill planning).
  [[nodiscard]] std::vector<Span> ResidentSpansOf(std::uint64_t buffer) const;

 private:
  // Sorted disjoint non-adjacent intervals, keyed by begin.
  using IntervalMap = std::map<std::uint64_t, std::uint64_t>;

  // Bytes of [begin, end) not covered by `intervals`.
  static std::uint64_t UncoveredLocked(const IntervalMap& intervals,
                                       std::uint64_t begin, std::uint64_t end);
  // Costs the transaction without mutating buffers_: builds the
  // would-be interval sets of every touched buffer into `scratch`
  // (double-counting nothing, even across overlapping ranges) and
  // returns the newly covered bytes. Requires mutex_ held.
  std::uint64_t CostLocked(const std::vector<BufferRange>& ranges,
                           std::map<std::uint64_t, IntervalMap>* scratch)
      const;
  // Inserts [begin, end), merging; returns newly covered bytes.
  static std::uint64_t InsertLocked(IntervalMap& intervals,
                                    std::uint64_t begin, std::uint64_t end);
  // Removes [begin, end); returns bytes removed.
  static std::uint64_t EraseLocked(IntervalMap& intervals,
                                   std::uint64_t begin, std::uint64_t end);

  mutable std::mutex mutex_;
  std::uint64_t capacity_ = 0;
  std::uint64_t resident_ = 0;
  std::map<std::uint64_t, IntervalMap> buffers_;
};

}  // namespace haocl::runtime
