// Unit tests of the benchmark's own logic: the tail-percentile rule,
// interval-union self time and layer split, and the seed -> input
// generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "inputs.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(TailPercentile, KeepsTenSamplesBeyondTheReportedRank) {
  // 1000 samples: rank 990 is p99 with exactly ten samples above it.
  auto tail = TailPercentile(OneTo(1000));
  ASSERT_TRUE(tail.has_value());
  EXPECT_DOUBLE_EQ(tail->value, 990.0);
  EXPECT_DOUBLE_EQ(tail->percentile, 99.0);
  EXPECT_EQ(tail->beyond, 10u);
}

TEST(TailPercentile, ShortRunsFallBackToLowerPercentiles) {
  auto tail = TailPercentile(OneTo(40));
  ASSERT_TRUE(tail.has_value());
  EXPECT_DOUBLE_EQ(tail->value, 30.0);
  EXPECT_DOUBLE_EQ(tail->percentile, 75.0);
  // Eleven samples is the shortest run with a tail: the minimum, with the
  // other ten beyond it.
  auto shortest = TailPercentile(OneTo(11));
  ASSERT_TRUE(shortest.has_value());
  EXPECT_DOUBLE_EQ(shortest->value, 1.0);
  EXPECT_FALSE(TailPercentile(OneTo(10)).has_value());
  EXPECT_FALSE(TailPercentile({}).has_value());
}

TEST(TailPercentile, IgnoresInputOrder) {
  std::vector<double> v = OneTo(100);
  std::reverse(v.begin(), v.end());
  auto tail = TailPercentile(v);
  ASSERT_TRUE(tail.has_value());
  EXPECT_DOUBLE_EQ(tail->value, 90.0);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(IntervalSet, UnionMergesOverlapsAndTouchingIntervals) {
  const IntervalSet set({{10, 20}, {0, 5}, {15, 30}, {30, 35}, {40, 40}});
  ASSERT_EQ(set.intervals().size(), 2u);
  EXPECT_EQ(set.intervals()[0], (Interval{0, 5}));
  EXPECT_EQ(set.intervals()[1], (Interval{10, 35}));
  EXPECT_EQ(set.Length(), 30);
}

TEST(IntervalSet, IntersectAndSubtract) {
  const IntervalSet a({{0, 10}, {20, 30}});
  const IntervalSet b({{5, 25}});
  EXPECT_EQ(a.Intersect(b).Length(), 10);
  const IntervalSet rest = a.Subtract(b);
  ASSERT_EQ(rest.intervals().size(), 2u);
  EXPECT_EQ(rest.intervals()[0], (Interval{0, 5}));
  EXPECT_EQ(rest.intervals()[1], (Interval{25, 30}));
  EXPECT_EQ(a.Subtract(IntervalSet({{-5, 50}})).Length(), 0);
  EXPECT_EQ(a.Subtract(IntervalSet()).Length(), 20);
}

TEST(IntervalSet, SelfTimeSubtractsTheUnionOfChildrenNotTheirSum) {
  const IntervalSet span({{0, 100}});
  // Two overlapping children cover [10, 40): 30 of the span's 100.
  EXPECT_EQ(span.Subtract(IntervalSet({{10, 30}, {20, 40}})).Length(), 70);
  // A child sticking out of the span only counts inside it.
  EXPECT_EQ(span.Subtract(IntervalSet({{90, 150}})).Length(), 90);
}

Span MakeSpan(SpanKind kind, std::int64_t begin, std::int64_t end,
              std::uint64_t thread = 0, bool peer = false) {
  Span s;
  s.kind = kind;
  s.begin_ns = begin;
  s.end_ns = end;
  s.thread = thread;
  s.peer_link = peer;
  return s;
}

TEST(SplitIteration, ChargesEachInstantToTheDeepestActiveLayer) {
  // Window [0, 100): RPC [10, 90), service [20, 80) on thread 7 with its
  // own peer RPC [30, 40), driver launch [50, 70).
  const Span rpc = MakeSpan(SpanKind::kRpc, 10, 90);
  const Span service = MakeSpan(SpanKind::kService, 20, 80, 7);
  const Span peer = MakeSpan(SpanKind::kRpc, 30, 40, 7, true);
  const Span launch = MakeSpan(SpanKind::kLaunch, 50, 70, 7);
  const LayerSplit split =
      SplitIteration({0, 100}, {&rpc, &service, &peer, &launch});
  EXPECT_EQ(split.driver_ns, 20);
  EXPECT_EQ(split.node_ns, 30);  // [20,30) + [40,50) + [70,80).
  EXPECT_EQ(split.net_ns, 30);   // [10,20) + [30,40) + [80,90).
  EXPECT_EQ(split.host_ns, 20);  // [0,10) + [90,100).
  EXPECT_EQ(split.total_ns(), 100);
}

TEST(SplitIteration, ParallelShardsStillTileTheWindow) {
  const Span rpc_a = MakeSpan(SpanKind::kRpc, 0, 60);
  const Span rpc_b = MakeSpan(SpanKind::kRpc, 20, 100);
  const Span launch_a = MakeSpan(SpanKind::kLaunch, 10, 50, 1);
  const Span launch_b = MakeSpan(SpanKind::kLaunch, 30, 90, 2);
  const Span outside = MakeSpan(SpanKind::kLaunch, 200, 300, 3);
  const LayerSplit split = SplitIteration(
      {0, 120}, {&rpc_a, &rpc_b, &launch_a, &launch_b, &outside});
  EXPECT_EQ(split.driver_ns, 80);
  EXPECT_EQ(split.net_ns, 20);
  EXPECT_EQ(split.host_ns, 20);
  EXPECT_EQ(split.total_ns(), 120);
}

TEST(Inputs, SameSeedSameInputs) {
  EXPECT_EQ(UniformFloats(7, 1, 256, -1.0f, 1.0f),
            UniformFloats(7, 1, 256, -1.0f, 1.0f));
  std::vector<std::uint32_t> a(1001);
  std::vector<std::uint32_t> b(1001);
  FillWords(7, 2, &a);
  FillWords(7, 2, &b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(StochasticMatrix(7, 3, 16), StochasticMatrix(7, 3, 16));
}

TEST(Inputs, SeedsAndStreamsDiffer) {
  EXPECT_NE(UniformFloats(7, 1, 64, -1.0f, 1.0f),
            UniformFloats(8, 1, 64, -1.0f, 1.0f));
  EXPECT_NE(UniformFloats(7, 1, 64, -1.0f, 1.0f),
            UniformFloats(7, 2, 64, -1.0f, 1.0f));
}

TEST(Inputs, RangesHold) {
  for (float v : UniformFloats(3, 0, 4096, -1.0f, 1.0f)) {
    EXPECT_GE(v, -1.0f);
    EXPECT_LT(v, 1.0f);
  }
  const std::size_t n = 32;
  const std::vector<float> a = StochasticMatrix(3, 0, n);
  for (std::size_t i = 0; i < n; ++i) {
    float sum = 0.0f;
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_GE(a[i * n + k], 0.0f);
      sum += a[i * n + k];
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(References, MatmulSumsInAscendingKWithoutContraction) {
  const std::size_t n = 3;
  const std::vector<float> a = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  const std::vector<float> x = {1, 0, 0, 0, 1, 0, 0, 0, 1};
  std::vector<float> out;
  MatmulReference(a, x, n, &out);
  EXPECT_EQ(out, a);
  // One rounding per multiply and per add, in k order, like the kernel.
  const std::vector<float> big = UniformFloats(5, 0, 16 * 16, -1.0f, 1.0f);
  const std::vector<float> rhs = UniformFloats(5, 1, 16 * 16, -1.0f, 1.0f);
  MatmulReference(big, rhs, 16, &out);
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t j = 0; j < 16; ++j) {
      volatile float acc = 0.0f;
      for (std::size_t k = 0; k < 16; ++k) {
        volatile float product = big[i * 16 + k] * rhs[k * 16 + j];
        acc = acc + product;
      }
      EXPECT_EQ(out[i * 16 + j], acc);
    }
  }
}

}  // namespace
}  // namespace perfbench
