// Order statistics and interval arithmetic for the benchmark's reports.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace perfbench {

// Median of `values` (mean of the two middle values for an even count).
// Requires a non-empty input.
double Median(std::vector<double> values);

// The highest nearest-rank percentile that still has at least
// `min_beyond` samples strictly above its rank: with n sorted samples that
// is rank n - min_beyond, i.e. percentile 100 * (n - min_beyond) / n.
// Empty when the run is too short to have one (n <= min_beyond).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t beyond = 0;  // Samples strictly above the reported rank.
};
std::optional<Tail> TailPercentile(std::vector<double> values,
                                   std::size_t min_beyond = 10);

// Half-open time interval [begin, end) in nanoseconds.
using Interval = std::pair<std::int64_t, std::int64_t>;

// A set of instants as sorted, disjoint, non-empty intervals.
class IntervalSet {
 public:
  IntervalSet() = default;
  // Union of arbitrary (possibly overlapping, unsorted) intervals.
  explicit IntervalSet(std::vector<Interval> intervals);

  [[nodiscard]] std::int64_t Length() const;
  [[nodiscard]] IntervalSet Union(const IntervalSet& other) const;
  [[nodiscard]] IntervalSet Intersect(const IntervalSet& other) const;
  [[nodiscard]] IntervalSet Subtract(const IntervalSet& other) const;
  [[nodiscard]] const std::vector<Interval>& intervals() const {
    return intervals_;
  }

 private:
  std::vector<Interval> intervals_;
};

}  // namespace perfbench
