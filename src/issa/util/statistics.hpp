// Streaming and batch descriptive statistics for Monte-Carlo results.
#pragma once

#include <cstddef>
#include <span>

namespace issa::util {

/// Welford's online algorithm: numerically stable running mean/variance.
class RunningStats {
 public:
  void add(double x) noexcept;

  /// Merges another accumulator into this one (parallel reduction).
  void merge(const RunningStats& other) noexcept;

  std::size_t count() const noexcept { return count_; }
  double mean() const noexcept { return mean_; }
  /// Sample variance (n-1 denominator); 0 when fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Summary of a sample distribution, computed in one pass.
struct DistributionSummary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
};

/// Computes a full summary from a sample vector (copies for the median sort).
DistributionSummary summarize(std::span<const double> samples);

/// Linear-interpolated percentile, p in [0, 100].  Sorts a copy.
double percentile(std::span<const double> samples, double p);

}  // namespace issa::util
