#include "smc/compare.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "eijoint/model.hpp"
#include "eijoint/scenarios.hpp"
#include "util/error.hpp"

namespace fmtree::smc {
namespace {

using fmt::FaultMaintenanceTree;

AnalysisSettings quick(std::uint64_t n = 4000, double horizon = 20.0) {
  AnalysisSettings s;
  s.horizon = horizon;
  s.trajectories = n;
  s.seed = 31;
  return s;
}

TEST(CompareModels, IdenticalModelsGiveZeroDifference) {
  const auto model = eijoint::build_ei_joint(eijoint::EiJointParameters::defaults(),
                                             eijoint::current_policy());
  const auto model2 = eijoint::build_ei_joint(eijoint::EiJointParameters::defaults(),
                                              eijoint::current_policy());
  const PairedComparison cmp = compare_models(model, model2, quick(500));
  EXPECT_DOUBLE_EQ(cmp.failures_diff.point, 0.0);
  EXPECT_DOUBLE_EQ(cmp.cost_diff.point, 0.0);
  EXPECT_DOUBLE_EQ(cmp.failures_diff.half_width(), 0.0);
  EXPECT_FALSE(cmp.failures_significantly_different());
}

TEST(CompareModels, DetectsThatInspectionsReduceFailures) {
  const auto factory = eijoint::ei_joint_factory(eijoint::EiJointParameters::defaults());
  const FaultMaintenanceTree sparse = factory(eijoint::inspections_per_year(1));
  const FaultMaintenanceTree current = factory(eijoint::current_policy());
  const PairedComparison cmp = compare_models(sparse, current, quick());
  EXPECT_GT(cmp.failures_diff.lo, 0.0);  // sparse has strictly more failures
  EXPECT_TRUE(cmp.failures_significantly_different());
}

TEST(CompareModels, PairedTighterThanUnpairedOnCloseVariants) {
  // 3x vs 4x inspections are so close that independent runs at this budget
  // cannot rank them; the paired estimator's CI must be narrower than the
  // difference of two independent CIs combined.
  const auto factory = eijoint::ei_joint_factory(eijoint::EiJointParameters::defaults());
  const FaultMaintenanceTree a = factory(eijoint::inspections_per_year(3));
  const FaultMaintenanceTree b = factory(eijoint::current_policy());
  const AnalysisSettings s = quick(6000);
  const PairedComparison paired = compare_models(a, b, s);

  AnalysisSettings sa = s;
  const KpiReport ka = analyze(a, sa);
  sa.seed = s.seed + 1;  // independent second run
  const KpiReport kb = analyze(b, sa);
  const double unpaired_hw = std::sqrt(
      std::pow(ka.expected_failures.half_width(), 2) +
      std::pow(kb.expected_failures.half_width(), 2));
  EXPECT_LT(paired.failures_diff.half_width(), unpaired_hw);
}

TEST(CompareModels, Validation) {
  const auto model = eijoint::build_ei_joint(eijoint::EiJointParameters::defaults(),
                                             eijoint::current_policy());
  AnalysisSettings s = quick();
  s.horizon = 0;
  EXPECT_THROW(compare_models(model, model, s), DomainError);
  s.horizon = 1;
  s.trajectories = 0;
  EXPECT_THROW(compare_models(model, model, s), DomainError);
  s = quick(100);
  s.confidence = 1.5;
  EXPECT_THROW(compare_models(model, model, s), DomainError);
  s = quick(100);
  s.discount_rate = -0.1;
  s.threads = 4;
  EXPECT_THROW(compare_models(model, model, s), DomainError);
}

TEST(CompareModels, HonoursTheEngineSetting) {
  // An explicit batch-engine comparison runs the batch kernel: it differs
  // from the scalar one, and its paired mean is the difference of two batch
  // analyses over the same streams.
  const auto factory = eijoint::ei_joint_factory(eijoint::EiJointParameters::defaults());
  const FaultMaintenanceTree a = factory(eijoint::inspections_per_year(1));
  const FaultMaintenanceTree b = factory(eijoint::current_policy());
  AnalysisSettings s = quick(3000);
  s.threads = 2;
  s.engine = Engine::Scalar;
  const PairedComparison scalar = compare_models(a, b, s);
  s.engine = Engine::Batch;
  const PairedComparison batch = compare_models(a, b, s);
  EXPECT_NE(batch.failures_diff.point, scalar.failures_diff.point);
  EXPECT_NE(batch.cost_diff.point, scalar.cost_diff.point);

  const KpiReport ka = analyze(a, s);
  const KpiReport kb = analyze(b, s);
  EXPECT_NEAR(batch.failures_diff.point,
              ka.expected_failures.point - kb.expected_failures.point, 1e-9);
  EXPECT_NEAR(batch.cost_diff.point, ka.total_cost.point - kb.total_cost.point,
              1e-6 * std::abs(ka.total_cost.point));
}

TEST(CompareModels, HonoursTheRunControl) {
  const auto model = eijoint::build_ei_joint(eijoint::EiJointParameters::defaults(),
                                             eijoint::current_policy());
  AnalysisSettings s = quick(4000);
  s.threads = 4;
  RunControl control;
  control.set_trajectory_budget(100);
  s.control = &control;
  const PairedComparison cmp = compare_models(model, model, s);
  EXPECT_GE(cmp.trajectories, 100u);
  EXPECT_LT(cmp.trajectories, 4000u);

  control.request_stop();  // nothing can complete
  EXPECT_THROW(compare_models(model, model, s), ResourceLimitError);
}

TEST(FailureTimeQuantiles, MatchExponentialClosedForm) {
  FaultMaintenanceTree m;
  m.set_top(m.add_basic_event("a", Distribution::exponential(0.5)));
  AnalysisSettings s = quick(40000, 100.0);
  const auto q = failure_time_quantiles(m, {0.25, 0.5, 0.9}, s);
  ASSERT_EQ(q.size(), 3u);
  EXPECT_NEAR(q[0], -std::log(0.75) / 0.5, 0.05);
  EXPECT_NEAR(q[1], -std::log(0.5) / 0.5, 0.06);
  EXPECT_NEAR(q[2], -std::log(0.1) / 0.5, 0.25);
}

TEST(FailureTimeQuantiles, CensoredTailIsInfinite) {
  FaultMaintenanceTree m;
  m.set_top(m.add_basic_event("a", Distribution::exponential(0.01)));  // mean 100
  AnalysisSettings s = quick(2000, 5.0);  // ~95% survive the horizon
  const auto q = failure_time_quantiles(m, {0.5, 0.99}, s);
  EXPECT_TRUE(std::isinf(q[0]));
  EXPECT_TRUE(std::isinf(q[1]));
}

TEST(FailureTimeQuantiles, MonotoneInProbability) {
  const auto model = eijoint::build_ei_joint(eijoint::EiJointParameters::defaults(),
                                             eijoint::corrective_only());
  const auto q =
      failure_time_quantiles(model, {0.1, 0.3, 0.5, 0.7, 0.9}, quick(10000, 50.0));
  for (std::size_t i = 1; i < q.size(); ++i) EXPECT_GE(q[i], q[i - 1]);
}

TEST(FailureTimeQuantiles, Validation) {
  FaultMaintenanceTree m;
  m.set_top(m.add_basic_event("a", Distribution::exponential(1)));
  EXPECT_THROW(failure_time_quantiles(m, {}, quick(10)), DomainError);
  EXPECT_THROW(failure_time_quantiles(m, {1.5}, quick(10)), DomainError);
}

TEST(FailureTimeQuantiles, RejectsZeroTrajectories) {
  FaultMaintenanceTree m;
  m.set_top(m.add_basic_event("a", Distribution::exponential(1)));
  EXPECT_THROW(failure_time_quantiles(m, {0.5}, quick(0)), DomainError);
}

TEST(FailureTimeQuantiles, RejectsNonPositiveHorizonBeforeAnyWorkerStarts) {
  FaultMaintenanceTree m;
  m.set_top(m.add_basic_event("a", Distribution::exponential(1)));
  AnalysisSettings s = quick(1000, 0.0);
  s.threads = 4;
  EXPECT_THROW(failure_time_quantiles(m, {0.5}, s), DomainError);
}

TEST(FailureTimeQuantiles, HonoursTheEngineSetting) {
  FaultMaintenanceTree m;
  m.set_top(m.add_basic_event("a", Distribution::exponential(0.5)));
  AnalysisSettings s = quick(4000, 100.0);
  s.engine = Engine::Scalar;
  const auto scalar = failure_time_quantiles(m, {0.5}, s);
  s.engine = Engine::Batch;
  const auto batch = failure_time_quantiles(m, {0.5}, s);
  EXPECT_NE(batch[0], scalar[0]);
  EXPECT_NEAR(batch[0], -std::log(0.5) / 0.5, 0.12);
}

}  // namespace
}  // namespace fmtree::smc
