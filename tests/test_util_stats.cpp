// RunningStats / summaries / percentile tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/random.hpp"
#include "util/stats.hpp"

namespace {

using idde::util::Estimate;
using idde::util::RunningStats;

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stderr_mean(), 0.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
}

TEST(RunningStats, KnownMeanAndVariance) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // population var = 4 => sample var = 4 * 8/7
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all;
  RunningStats a;
  RunningStats b;
  const std::vector<double> xs{1.0, 2.5, -3.0, 8.0, 0.0, 4.2, 4.2, -1.1};
  for (std::size_t i = 0; i < xs.size(); ++i) {
    all.add(xs[i]);
    (i < 3 ? a : b).add(xs[i]);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a;
  a.add(1.0);
  a.add(2.0);
  RunningStats empty;
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.mean(), mean);
  RunningStats target;
  target.merge(a);
  EXPECT_EQ(target.count(), 2u);
  EXPECT_EQ(target.mean(), mean);
}

TEST(Summarize, HalfWidthShrinksWithSamples) {
  RunningStats small;
  RunningStats large;
  for (int i = 0; i < 10; ++i) small.add(i % 2 == 0 ? 1.0 : -1.0);
  for (int i = 0; i < 1000; ++i) large.add(i % 2 == 0 ? 1.0 : -1.0);
  const Estimate es = summarize(small);
  const Estimate el = summarize(large);
  EXPECT_GT(es.half_width, el.half_width);
  EXPECT_EQ(el.n, 1000u);
}

TEST(Summarize, SpanOverload) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const Estimate e = idde::util::summarize(xs);
  EXPECT_DOUBLE_EQ(e.mean, 2.0);
  EXPECT_EQ(e.n, 3u);
}

TEST(Percentile, MedianOfOddCount) {
  const std::vector<double> xs{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(idde::util::percentile(xs, 50.0), 2.0);
}

TEST(Percentile, Extremes) {
  const std::vector<double> xs{5.0, 1.0, 9.0, 3.0};
  EXPECT_DOUBLE_EQ(idde::util::percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(idde::util::percentile(xs, 100.0), 9.0);
}

TEST(Percentile, InterpolatesBetweenValues) {
  const std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(idde::util::percentile(xs, 25.0), 2.5);
}

TEST(Percentile, SingleElement) {
  const std::vector<double> xs{7.0};
  EXPECT_DOUBLE_EQ(idde::util::percentile(xs, 37.0), 7.0);
  EXPECT_DOUBLE_EQ(idde::util::percentile(xs, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(idde::util::percentile(xs, 100.0), 7.0);
}

TEST(Percentile, DuplicatesAreExact) {
  // Equal-endpoint interpolation must return the sample bit-for-bit, with
  // no (1-frac)*x + frac*x rounding residue.
  const std::vector<double> xs{4.2, 4.2, 4.2, 4.2, 4.2};
  for (const double p : {0.0, 12.5, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(idde::util::percentile(xs, p), 4.2);
  }
}

TEST(Percentile, ExactRankReturnsSample) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  // rank = p/100 * 4 lands exactly on an index at multiples of 25.
  EXPECT_EQ(idde::util::percentile(xs, 25.0), 2.0);
  EXPECT_EQ(idde::util::percentile(xs, 75.0), 4.0);
}

TEST(Percentile, InfiniteTailDoesNotPoisonFiniteQuantiles) {
  // A degraded route can contribute +inf latency. p=100 must be +inf, but
  // quantiles whose rank lands on the finite prefix must stay finite —
  // the old lerp produced NaN via 0 * inf at exact ranks.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, inf};
  EXPECT_EQ(idde::util::percentile(xs, 100.0), inf);
  EXPECT_EQ(idde::util::percentile(xs, 75.0), 4.0);
  EXPECT_EQ(idde::util::percentile(xs, 50.0), 3.0);
  const std::vector<double> all_inf{inf, inf};
  EXPECT_EQ(idde::util::percentile(all_inf, 50.0), inf);
}

// Reading several ranks from one sort must give percentile()'s bits, on
// vectors with duplicates and infinite samples at both ends.
TEST(Percentile, SortedMatchesCopyAndSortBitForBit) {
  const double inf = std::numeric_limits<double>::infinity();
  idde::util::Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    // A small pool makes duplicates common.
    std::vector<double> pool(1 + rng.index(6));
    for (double& value : pool) value = rng.uniform(-50.0, 50.0);
    std::vector<double> xs(1 + rng.index(40));
    for (double& x : xs) {
      const std::size_t pick = rng.index(pool.size() + 2);
      x = pick < pool.size() ? pool[pick] : (pick == pool.size() ? inf : -inf);
    }
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    for (const double p : {0.0, 50.0, 95.0, 99.0, 100.0}) {
      const double want = idde::util::percentile(xs, p);
      const double got = idde::util::percentile_sorted(sorted, p);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(want))
          << "trial " << trial << " p " << p;
    }
  }
}

TEST(MeanOf, EmptyIsZero) {
  EXPECT_EQ(idde::util::mean_of({}), 0.0);
}

TEST(RelativeMetrics, GainAndReduction) {
  // ours=120 vs other=100: 20% gain.
  EXPECT_NEAR(idde::util::relative_gain(120.0, 100.0), 0.2, 1e-12);
  // ours=5ms vs other=20ms: 75% reduction.
  EXPECT_NEAR(idde::util::relative_reduction(5.0, 20.0), 0.75, 1e-12);
  // zero denominators do not explode.
  EXPECT_EQ(idde::util::relative_gain(1.0, 0.0), 0.0);
  EXPECT_EQ(idde::util::relative_reduction(1.0, 0.0), 0.0);
}

}  // namespace
