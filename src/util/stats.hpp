// Streaming and batch statistics used by the experiment harness to aggregate
// repeated runs (the paper reports means over 50 repetitions per point).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace idde::util {

/// Welford online mean/variance accumulator.
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  /// Standard error of the mean; 0 for fewer than two samples.
  [[nodiscard]] double stderr_mean() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Point estimate with a symmetric confidence half-width.
struct Estimate {
  double mean = 0.0;
  double half_width = 0.0;  ///< ~95% CI half-width (normal approximation)
  std::size_t n = 0;
};

/// Summarises samples into mean ± 95% CI.
[[nodiscard]] Estimate summarize(std::span<const double> samples);
[[nodiscard]] Estimate summarize(const RunningStats& stats);

/// Percentile by linear interpolation on a copy of the data; p in [0, 100].
[[nodiscard]] double percentile(std::span<const double> samples, double p);

/// percentile() over samples already sorted ascending: reads several ranks
/// from one sort, with the same bits.
[[nodiscard]] double percentile_sorted(std::span<const double> sorted,
                                       double p);

[[nodiscard]] double mean_of(std::span<const double> samples);

/// Relative improvement of `ours` over `other`: (other - ours)/other for
/// lower-is-better metrics; used when reporting the paper's "% advantage".
[[nodiscard]] double relative_reduction(double ours, double other);
/// (ours - other)/other for higher-is-better metrics.
[[nodiscard]] double relative_gain(double ours, double other);

}  // namespace idde::util
