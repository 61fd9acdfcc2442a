#include "host/region_directory.h"

#include <algorithm>
#include <cassert>

namespace haocl::host {

RegionDirectory::RegionDirectory(std::uint64_t size, Owner owner_count,
                                 Owner initial_owner)
    : size_(size), owner_count_(owner_count) {
  assert(size > 0);
  assert(initial_owner < owner_count);
  Region all;
  all.begin = 0;
  all.end = size;
  all.owners = {initial_owner};
  all.epoch = 0;
  regions_.push_back(std::move(all));
}

std::size_t RegionDirectory::RegionAt(std::uint64_t pos) const {
  // First region whose end exceeds pos (regions tile [0, size_)).
  auto it = std::upper_bound(
      regions_.begin(), regions_.end(), pos,
      [](std::uint64_t p, const Region& r) { return p < r.end; });
  assert(it != regions_.end());
  return static_cast<std::size_t>(it - regions_.begin());
}

void RegionDirectory::SplitAt(std::uint64_t pos) {
  if (pos == 0 || pos >= size_) return;
  const std::size_t i = RegionAt(pos);
  Region& region = regions_[i];
  if (region.begin == pos) return;  // Boundary already exists.
  Region tail = region;
  tail.begin = pos;
  region.end = pos;
  regions_.insert(regions_.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                  std::move(tail));
}

void RegionDirectory::Coalesce() {
  std::size_t out = 0;
  for (std::size_t i = 1; i < regions_.size(); ++i) {
    Region& prev = regions_[out];
    Region& cur = regions_[i];
    if (prev.owners == cur.owners) {
      prev.end = cur.end;
      prev.epoch = std::max(prev.epoch, cur.epoch);
    } else if (++out != i) {  // Guard the self-move when nothing merged.
      regions_[out] = std::move(cur);
    }
  }
  regions_.resize(out + 1);
}

void RegionDirectory::MarkWritten(std::uint64_t begin, std::uint64_t end,
                                  Owner owner) {
  assert(owner < owner_count_);
  assert(begin < end && end <= size_);
  SplitAt(begin);
  SplitAt(end);
  ++epoch_;
  for (std::size_t i = RegionAt(begin);
       i < regions_.size() && regions_[i].begin < end; ++i) {
    regions_[i].owners = {owner};
    regions_[i].epoch = epoch_;
  }
  Coalesce();
}

void RegionDirectory::AddOwner(std::uint64_t begin, std::uint64_t end,
                               Owner owner) {
  assert(owner < owner_count_);
  assert(begin < end && end <= size_);
  SplitAt(begin);
  SplitAt(end);
  for (std::size_t i = RegionAt(begin);
       i < regions_.size() && regions_[i].begin < end; ++i) {
    auto& owners = regions_[i].owners;
    auto it = std::lower_bound(owners.begin(), owners.end(), owner);
    if (it == owners.end() || *it != owner) owners.insert(it, owner);
  }
  Coalesce();
}

std::size_t RegionDirectory::RemoveOwner(std::uint64_t begin,
                                         std::uint64_t end, Owner owner) {
  assert(owner < owner_count_);
  assert(begin < end && end <= size_);
  SplitAt(begin);
  SplitAt(end);
  std::size_t sole = 0;
  for (std::size_t i = RegionAt(begin);
       i < regions_.size() && regions_[i].begin < end; ++i) {
    auto& owners = regions_[i].owners;
    auto it = std::lower_bound(owners.begin(), owners.end(), owner);
    if (it == owners.end() || *it != owner) continue;
    if (owners.size() == 1) {
      ++sole;  // Never empty an owner set.
      continue;
    }
    owners.erase(it);
  }
  Coalesce();
  return sole;
}

bool RegionDirectory::Covers(Owner owner, std::uint64_t begin,
                             std::uint64_t end) const {
  if (begin >= end) return true;
  for (std::size_t i = RegionAt(begin);
       i < regions_.size() && regions_[i].begin < end; ++i) {
    const auto& owners = regions_[i].owners;
    if (!std::binary_search(owners.begin(), owners.end(), owner)) {
      return false;
    }
  }
  return true;
}

std::vector<RegionDirectory::Span> RegionDirectory::MissingFor(
    Owner owner, std::uint64_t begin, std::uint64_t end) const {
  std::vector<Span> out;
  if (begin >= end) return out;
  for (std::size_t i = RegionAt(begin);
       i < regions_.size() && regions_[i].begin < end; ++i) {
    const Region& region = regions_[i];
    if (std::binary_search(region.owners.begin(), region.owners.end(),
                           owner)) {
      continue;
    }
    const std::uint64_t b = std::max(begin, region.begin);
    const std::uint64_t e = std::min(end, region.end);
    if (!out.empty() && out.back().end == b) {
      out.back().end = e;  // Coalesce adjacent stale runs.
    } else {
      out.push_back({b, e});
    }
  }
  return out;
}

std::vector<RegionDirectory::Region> RegionDirectory::Query(
    std::uint64_t begin, std::uint64_t end) const {
  std::vector<Region> out;
  if (begin >= end) return out;
  for (std::size_t i = RegionAt(begin);
       i < regions_.size() && regions_[i].begin < end; ++i) {
    Region clipped = regions_[i];
    clipped.begin = std::max(begin, clipped.begin);
    clipped.end = std::min(end, clipped.end);
    out.push_back(std::move(clipped));
  }
  return out;
}

std::uint64_t RegionDirectory::BytesOwnedBy(Owner owner, std::uint64_t begin,
                                             std::uint64_t end) const {
  std::uint64_t total = 0;
  if (begin >= end) return total;
  for (std::size_t i = RegionAt(begin);
       i < regions_.size() && regions_[i].begin < end; ++i) {
    const Region& region = regions_[i];
    if (std::binary_search(region.owners.begin(), region.owners.end(),
                           owner)) {
      total += std::min(end, region.end) - std::max(begin, region.begin);
    }
  }
  return total;
}

}  // namespace haocl::host
