// Streaming statistics and confidence intervals.
#pragma once

#include <cstdint>
#include <vector>

namespace fmtree {

/// A two-sided confidence interval [lo, hi] around a point estimate.
struct ConfidenceInterval {
  double point = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  double confidence = 0.95;

  double half_width() const noexcept { return 0.5 * (hi - lo); }
  bool contains(double x) const noexcept { return lo <= x && x <= hi; }
};

/// Welford's online algorithm: numerically stable running mean/variance.
/// Non-finite samples (NaN/inf) are counted but excluded from the moments —
/// they would silently poison every later estimate otherwise — and any
/// moment query that matters for inference (mean_ci) refuses to produce an
/// interval once one was seen.
class RunningStats {
public:
  void add(double x) noexcept;
  /// Merge another accumulator (Chan et al. parallel combination).
  void merge(const RunningStats& other) noexcept;

  std::uint64_t count() const noexcept { return n_; }
  /// Number of non-finite samples seen (and excluded from the moments).
  std::uint64_t non_finite_count() const noexcept { return non_finite_; }
  double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 when fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  /// Standard error of the mean.
  double std_error() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }
  double sum() const noexcept { return n_ > 0 ? mean_ * static_cast<double>(n_) : 0.0; }

  /// Normal-approximation CI for the mean at the given confidence level.
  /// Throws DomainError if any non-finite sample was recorded: an interval
  /// over a contaminated sample would be silently wrong.
  ConfidenceInterval mean_ci(double confidence = 0.95) const;

private:
  std::uint64_t n_ = 0;
  std::uint64_t non_finite_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Wilson score interval for a binomial proportion — well-behaved near 0/1,
/// which reliability estimates frequently are.
ConfidenceInterval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                                   double confidence = 0.95);

/// Distribution-free CI from Hoeffding's inequality for values in [0, 1].
/// Conservative but valid at any sample size.
ConfidenceInterval hoeffding_interval(double point, std::uint64_t trials,
                                      double confidence = 0.95);

/// Okamoto/Chernoff bound: number of samples needed so that a proportion
/// estimate has half-width <= eps with the given confidence.
std::uint64_t okamoto_sample_size(double eps, double confidence = 0.95);

/// Empirical quantile (linear interpolation) of a sample; sorts a copy.
double quantile(std::vector<double> sample, double q);

}  // namespace fmtree
