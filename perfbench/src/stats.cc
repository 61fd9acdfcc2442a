#include "stats.h"

#include <algorithm>

namespace perfbench {

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::optional<Tail> TailPercentile(std::vector<double> values,
                                   std::size_t min_beyond) {
  const std::size_t n = values.size();
  if (n <= min_beyond) return std::nullopt;
  std::sort(values.begin(), values.end());
  const std::size_t rank = n - min_beyond;  // 1-based nearest rank.
  Tail tail;
  tail.value = values[rank - 1];
  tail.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  tail.beyond = min_beyond;
  return tail;
}

IntervalSet::IntervalSet(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end());
  for (const Interval& next : intervals) {
    if (next.second <= next.first) continue;
    if (!intervals_.empty() && next.first <= intervals_.back().second) {
      intervals_.back().second = std::max(intervals_.back().second, next.second);
    } else {
      intervals_.push_back(next);
    }
  }
}

std::int64_t IntervalSet::Length() const {
  std::int64_t total = 0;
  for (const Interval& i : intervals_) total += i.second - i.first;
  return total;
}

IntervalSet IntervalSet::Union(const IntervalSet& other) const {
  std::vector<Interval> all = intervals_;
  all.insert(all.end(), other.intervals_.begin(), other.intervals_.end());
  return IntervalSet(std::move(all));
}

IntervalSet IntervalSet::Intersect(const IntervalSet& other) const {
  IntervalSet out;
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < intervals_.size() && b < other.intervals_.size()) {
    const Interval& x = intervals_[a];
    const Interval& y = other.intervals_[b];
    const std::int64_t lo = std::max(x.first, y.first);
    const std::int64_t hi = std::min(x.second, y.second);
    if (lo < hi) out.intervals_.emplace_back(lo, hi);
    if (x.second < y.second) {
      ++a;
    } else {
      ++b;
    }
  }
  return out;
}

IntervalSet IntervalSet::Subtract(const IntervalSet& other) const {
  IntervalSet out;
  std::size_t b = 0;
  for (Interval rest : intervals_) {
    while (b < other.intervals_.size() &&
           other.intervals_[b].second <= rest.first) {
      ++b;
    }
    for (std::size_t c = b; c < other.intervals_.size() &&
                            other.intervals_[c].first < rest.second;
         ++c) {
      const Interval& cut = other.intervals_[c];
      if (cut.first > rest.first) out.intervals_.emplace_back(rest.first, cut.first);
      rest.first = std::max(rest.first, cut.second);
      if (rest.first >= rest.second) break;
    }
    if (rest.first < rest.second) out.intervals_.push_back(rest);
  }
  return out;
}

}  // namespace perfbench
