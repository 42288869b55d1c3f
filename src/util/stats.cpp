#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/distributions.hpp"
#include "util/error.hpp"

namespace fmtree {

void RunningStats::add(double x) noexcept {
  if (!std::isfinite(x)) {
    ++non_finite_;
    return;
  }
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  non_finite_ += other.non_finite_;
  if (other.n_ == 0) return;
  if (n_ == 0) {
    const std::uint64_t non_finite = non_finite_;
    *this = other;
    non_finite_ = non_finite;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  return n_ >= 2 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::std_error() const noexcept {
  return n_ >= 1 ? stddev() / std::sqrt(static_cast<double>(n_)) : 0.0;
}

ConfidenceInterval RunningStats::mean_ci(double confidence) const {
  if (!(confidence > 0 && confidence < 1))
    throw DomainError("confidence must lie in (0,1)");
  if (non_finite_ > 0)
    throw DomainError("sample contains " + std::to_string(non_finite_) +
                      " non-finite value(s); refusing to build a confidence interval");
  const double z = normal_quantile(0.5 + confidence / 2.0);
  const double hw = z * std_error();
  return {mean(), mean() - hw, mean() + hw, confidence};
}

ConfidenceInterval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                                   double confidence) {
  if (trials == 0) throw DomainError("wilson_interval requires trials > 0");
  if (successes > trials) throw DomainError("successes exceed trials");
  if (!(confidence > 0 && confidence < 1))
    throw DomainError("confidence must lie in (0,1)");
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z = normal_quantile(0.5 + confidence / 2.0);
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double centre = (p + z2 / (2 * n)) / denom;
  const double half = z * std::sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / denom;
  return {p, std::max(0.0, centre - half), std::min(1.0, centre + half), confidence};
}

ConfidenceInterval hoeffding_interval(double point, std::uint64_t trials,
                                      double confidence) {
  if (trials == 0) throw DomainError("hoeffding_interval requires trials > 0");
  if (!(confidence > 0 && confidence < 1))
    throw DomainError("confidence must lie in (0,1)");
  const double alpha = 1.0 - confidence;
  const double eps =
      std::sqrt(std::log(2.0 / alpha) / (2.0 * static_cast<double>(trials)));
  return {point, std::max(0.0, point - eps), std::min(1.0, point + eps), confidence};
}

std::uint64_t okamoto_sample_size(double eps, double confidence) {
  if (!(eps > 0)) throw DomainError("okamoto_sample_size requires eps > 0");
  if (!(confidence > 0 && confidence < 1))
    throw DomainError("confidence must lie in (0,1)");
  const double alpha = 1.0 - confidence;
  return static_cast<std::uint64_t>(
      std::ceil(std::log(2.0 / alpha) / (2.0 * eps * eps)));
}

double quantile(std::vector<double> sample, double q) {
  if (sample.empty()) throw DomainError("quantile of empty sample");
  if (!(q >= 0 && q <= 1)) throw DomainError("quantile requires q in [0,1]");
  std::sort(sample.begin(), sample.end());
  if (sample.size() == 1) return sample.front();
  const double pos = q * static_cast<double>(sample.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  if (i + 1 >= sample.size()) return sample.back();
  const double frac = pos - static_cast<double>(i);
  return sample[i] * (1.0 - frac) + sample[i + 1] * frac;
}

}  // namespace fmtree
