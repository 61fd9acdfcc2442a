#include "runtime/memory_pool.h"

#include <algorithm>

namespace haocl::runtime {

std::uint64_t MemoryPool::UncoveredLocked(const IntervalMap& intervals,
                                          std::uint64_t begin,
                                          std::uint64_t end) {
  if (begin >= end) return 0;
  std::uint64_t covered = 0;
  auto it = intervals.upper_bound(begin);
  if (it != intervals.begin()) {
    auto prev = std::prev(it);
    if (prev->second > begin) it = prev;
  }
  for (; it != intervals.end() && it->first < end; ++it) {
    const std::uint64_t b = std::max(begin, it->first);
    const std::uint64_t e = std::min(end, it->second);
    if (e > b) covered += e - b;
  }
  return (end - begin) - covered;
}

std::uint64_t MemoryPool::InsertLocked(IntervalMap& intervals,
                                       std::uint64_t begin,
                                       std::uint64_t end) {
  if (begin >= end) return 0;
  const std::uint64_t added = UncoveredLocked(intervals, begin, end);
  if (added == 0) return 0;
  // Merge with any interval overlapping or touching [begin, end).
  auto it = intervals.upper_bound(begin);
  if (it != intervals.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= begin) it = prev;
  }
  std::uint64_t new_begin = begin;
  std::uint64_t new_end = end;
  while (it != intervals.end() && it->first <= end) {
    new_begin = std::min(new_begin, it->first);
    new_end = std::max(new_end, it->second);
    it = intervals.erase(it);
  }
  intervals.emplace(new_begin, new_end);
  return added;
}

std::uint64_t MemoryPool::EraseLocked(IntervalMap& intervals,
                                      std::uint64_t begin, std::uint64_t end) {
  if (begin >= end) return 0;
  std::uint64_t removed = 0;
  auto it = intervals.upper_bound(begin);
  if (it != intervals.begin()) {
    auto prev = std::prev(it);
    if (prev->second > begin) it = prev;
  }
  while (it != intervals.end() && it->first < end) {
    const std::uint64_t ib = it->first;
    const std::uint64_t ie = it->second;
    it = intervals.erase(it);
    if (ib < begin) intervals.emplace(ib, begin);
    if (ie > end) intervals.emplace(end, ie);
    removed += std::min(ie, end) - std::max(ib, begin);
  }
  return removed;
}

std::uint64_t MemoryPool::CostLocked(
    const std::vector<BufferRange>& ranges,
    std::map<std::uint64_t, IntervalMap>* scratch) const {
  std::uint64_t needed = 0;
  for (const BufferRange& range : ranges) {
    if (range.begin >= range.end) continue;
    auto it = scratch->find(range.buffer);
    if (it == scratch->end()) {
      auto existing = buffers_.find(range.buffer);
      it = scratch
               ->emplace(range.buffer, existing == buffers_.end()
                                           ? IntervalMap{}
                                           : existing->second)
               .first;
    }
    needed += InsertLocked(it->second, range.begin, range.end);
  }
  return needed;
}

Status MemoryPool::Reserve(std::uint64_t buffer, std::uint64_t begin,
                           std::uint64_t end) {
  return ReserveAll({{buffer, begin, end}});
}

Status MemoryPool::ReserveAll(const std::vector<BufferRange>& ranges,
                              std::vector<BufferRange>* charged) {
  std::lock_guard<std::mutex> lock(mutex_);
  // First pass: cost the transaction without mutating. Overlap between the
  // requested ranges themselves must not double-count, so cost against a
  // scratch copy of each touched buffer's interval set.
  std::map<std::uint64_t, IntervalMap> scratch;
  const std::uint64_t needed = CostLocked(ranges, &scratch);
  if (capacity_ != 0 && needed > capacity_ - std::min(capacity_, resident_)) {
    return Status(ErrorCode::kMemObjectAllocationFailure,
                  "reservation of " + std::to_string(needed) +
                      " new bytes exceeds device capacity (" +
                      std::to_string(resident_) + " of " +
                      std::to_string(capacity_) + " resident)");
  }
  for (auto& [buffer, intervals] : scratch) {
    IntervalMap& held = buffers_[buffer];
    if (charged != nullptr) {
      // The would-be set covers the held one: the gaps between held
      // intervals inside each would-be interval are what this call charges.
      for (const auto& [begin, end] : intervals) {
        std::uint64_t cursor = begin;
        for (auto it = held.lower_bound(begin);
             it != held.end() && it->first < end; ++it) {
          if (it->first > cursor) {
            charged->push_back({buffer, cursor, it->first});
          }
          cursor = it->second;
        }
        if (cursor < end) charged->push_back({buffer, cursor, end});
      }
    }
    held = std::move(intervals);
  }
  resident_ += needed;
  return Status::Ok();
}

std::uint64_t MemoryPool::Release(std::uint64_t buffer, std::uint64_t begin,
                                  std::uint64_t end) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = buffers_.find(buffer);
  if (it == buffers_.end()) return 0;
  const std::uint64_t removed = EraseLocked(it->second, begin, end);
  if (it->second.empty()) buffers_.erase(it);
  resident_ -= removed;
  return removed;
}

std::uint64_t MemoryPool::ReleaseBuffer(std::uint64_t buffer) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = buffers_.find(buffer);
  if (it == buffers_.end()) return 0;
  std::uint64_t removed = 0;
  for (const auto& [begin, end] : it->second) removed += end - begin;
  buffers_.erase(it);
  resident_ -= removed;
  return removed;
}

std::uint64_t MemoryPool::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return resident_;
}

std::uint64_t MemoryPool::free_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (capacity_ == 0) return ~0ull;
  return capacity_ - std::min(capacity_, resident_);
}

std::uint64_t MemoryPool::ResidentOf(std::uint64_t buffer) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = buffers_.find(buffer);
  if (it == buffers_.end()) return 0;
  std::uint64_t total = 0;
  for (const auto& [begin, end] : it->second) total += end - begin;
  return total;
}

std::uint64_t MemoryPool::NewBytesIn(
    const std::vector<BufferRange>& ranges) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::uint64_t, IntervalMap> scratch;
  return CostLocked(ranges, &scratch);
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
MemoryPool::ResidentBuffers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  out.reserve(buffers_.size());
  for (const auto& [buffer, intervals] : buffers_) {
    std::uint64_t total = 0;
    for (const auto& [begin, end] : intervals) total += end - begin;
    if (total > 0) out.emplace_back(buffer, total);
  }
  return out;
}

std::vector<MemoryPool::Span> MemoryPool::ResidentSpansOf(
    std::uint64_t buffer) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  auto it = buffers_.find(buffer);
  if (it == buffers_.end()) return out;
  out.reserve(it->second.size());
  for (const auto& [begin, end] : it->second) out.push_back({begin, end});
  return out;
}

}  // namespace haocl::runtime
