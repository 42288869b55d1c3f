#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace fmtree {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.std_error(), 0.0);
}

TEST(RunningStats, KnownSmallSample) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  RandomStream rng(1, 0);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(0, 10);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(3.0);
  RunningStats b = a;
  b.merge(empty);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(RunningStats, MeanCiCoversTrueMean) {
  // 95% CI over repeated experiments should cover the true mean ~95% of the
  // time; check coverage is at least 90% over 200 replications.
  int covered = 0;
  for (int rep = 0; rep < 200; ++rep) {
    RandomStream rng(42, static_cast<std::uint64_t>(rep));
    RunningStats s;
    for (int i = 0; i < 500; ++i) s.add(rng.uniform(0, 2));  // true mean 1
    if (s.mean_ci(0.95).contains(1.0)) ++covered;
  }
  EXPECT_GE(covered, 180);
}

TEST(RunningStats, MeanCiRejectsBadConfidence) {
  RunningStats s;
  s.add(1);
  EXPECT_THROW(s.mean_ci(0.0), DomainError);
  EXPECT_THROW(s.mean_ci(1.0), DomainError);
}

TEST(WilsonInterval, KnownValue) {
  // 8/10 successes, 95%: Wilson gives about [0.49, 0.94].
  const ConfidenceInterval ci = wilson_interval(8, 10, 0.95);
  EXPECT_NEAR(ci.point, 0.8, 1e-12);
  EXPECT_NEAR(ci.lo, 0.4902, 0.005);
  EXPECT_NEAR(ci.hi, 0.9433, 0.005);
}

TEST(WilsonInterval, DegenerateCountsStayInUnitInterval) {
  const ConfidenceInterval zero = wilson_interval(0, 50);
  EXPECT_EQ(zero.point, 0.0);
  EXPECT_NEAR(zero.lo, 0.0, 1e-12);
  EXPECT_GT(zero.hi, 0.001);
  const ConfidenceInterval full = wilson_interval(50, 50);
  EXPECT_EQ(full.point, 1.0);
  EXPECT_LT(full.lo, 0.999);
  EXPECT_NEAR(full.hi, 1.0, 1e-12);
}

TEST(WilsonInterval, RejectsBadInput) {
  EXPECT_THROW(wilson_interval(1, 0), DomainError);
  EXPECT_THROW(wilson_interval(5, 3), DomainError);
  EXPECT_THROW(wilson_interval(1, 2, 1.5), DomainError);
}

TEST(HoeffdingInterval, WiderThanWilson) {
  const ConfidenceInterval w = wilson_interval(500, 1000);
  const ConfidenceInterval h = hoeffding_interval(0.5, 1000);
  EXPECT_GT(h.half_width(), w.half_width());
}

TEST(HoeffdingInterval, ShrinksWithSamples) {
  const ConfidenceInterval a = hoeffding_interval(0.5, 100);
  const ConfidenceInterval b = hoeffding_interval(0.5, 10000);
  EXPECT_LT(b.half_width(), a.half_width());
}

TEST(OkamotoSampleSize, MatchesHoeffdingWidth) {
  // With the Okamoto count, the Hoeffding interval has half-width <= eps.
  const double eps = 0.01;
  const std::uint64_t n = okamoto_sample_size(eps, 0.95);
  const ConfidenceInterval ci = hoeffding_interval(0.5, n, 0.95);
  EXPECT_LE(ci.half_width(), eps + 1e-12);
  // And one fewer sample is not enough.
  const ConfidenceInterval ci1 = hoeffding_interval(0.5, n - 1, 0.95);
  EXPECT_GT(ci1.half_width(), eps);
}

TEST(Quantile, KnownValues) {
  const std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.125), 1.5);  // interpolated
}

TEST(Quantile, SingleElementAndErrors) {
  EXPECT_DOUBLE_EQ(quantile({7.0}, 0.3), 7.0);
  EXPECT_THROW(quantile({}, 0.5), DomainError);
  EXPECT_THROW(quantile({1.0}, 1.5), DomainError);
}

}  // namespace
}  // namespace fmtree
