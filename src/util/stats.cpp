#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace idde::util {

void RunningStats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
}

double RunningStats::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::stderr_mean() const noexcept {
  if (count_ < 2) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(count_));
}

Estimate summarize(std::span<const double> samples) {
  RunningStats stats;
  for (const double x : samples) stats.add(x);
  return summarize(stats);
}

Estimate summarize(const RunningStats& stats) {
  // 1.96 ~ z-score for 95% two-sided coverage; with the small repetition
  // counts used in CI runs this slightly understates the width vs. a
  // t-quantile, which is acceptable for shape comparisons.
  return Estimate{.mean = stats.mean(),
                  .half_width = 1.96 * stats.stderr_mean(),
                  .n = stats.count()};
}

double percentile(std::span<const double> samples, double p) {
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  return percentile_sorted(sorted, p);
}

double percentile_sorted(std::span<const double> sorted, double p) {
  IDDE_EXPECTS(!sorted.empty());
  IDDE_EXPECTS(p >= 0.0 && p <= 100.0);
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  if (lo + 1 >= sorted.size()) return sorted.back();  // p == 100 exactly
  const std::size_t hi = lo + 1;
  const double frac = rank - static_cast<double>(lo);
  // Exact ranks and equal endpoints return the sample itself: no fp drift
  // on duplicates, and an infinite sample (cloud outage, unreachable
  // replica) never poisons a finite quantile through 0 * inf = NaN.
  if (frac == 0.0 || sorted[lo] == sorted[hi]) return sorted[lo];
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double mean_of(std::span<const double> samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : samples) sum += x;
  return sum / static_cast<double>(samples.size());
}

double relative_reduction(double ours, double other) {
  if (other == 0.0) return 0.0;
  return (other - ours) / other;
}

double relative_gain(double ours, double other) {
  if (other == 0.0) return 0.0;
  return (ours - other) / other;
}

}  // namespace idde::util
