#include <gtest/gtest.h>

#include <cmath>

#include "smc/kpi.hpp"
#include "smc/runner.hpp"
#include "util/error.hpp"

namespace fmtree::smc {
namespace {

using fmt::CorrectivePolicy;
using fmt::DegradationModel;
using fmt::FaultMaintenanceTree;
using fmt::NodeId;

FaultMaintenanceTree exponential_leaf(double rate) {
  FaultMaintenanceTree m;
  m.set_top(m.add_basic_event("leaf", Distribution::exponential(rate)));
  return m;
}

FaultMaintenanceTree series_two_exponentials() {
  FaultMaintenanceTree m;
  const NodeId a = m.add_basic_event("a", Distribution::exponential(0.3));
  const NodeId b = m.add_basic_event("b", Distribution::exponential(0.2));
  m.set_top(m.add_or("top", {a, b}));
  return m;
}

AnalysisSettings fast_settings(double horizon, std::uint64_t n = 20000) {
  AnalysisSettings s;
  s.horizon = horizon;
  s.trajectories = n;
  s.seed = 11;
  s.threads = 4;
  return s;
}

// ---- Runner ------------------------------------------------------------------

TEST(ParallelRunner, DeterministicAcrossThreadCounts) {
  const FaultMaintenanceTree m = series_two_exponentials();
  const sim::FmtSimulator simulator(m);
  sim::SimOptions opts;
  opts.horizon = 5.0;
  const BatchResult r1 = ParallelRunner(simulator, 1).run(77, 0, 500, opts);
  const BatchResult r4 = ParallelRunner(simulator, 4).run(77, 0, 500, opts);
  const BatchResult r7 = ParallelRunner(simulator, 7).run(77, 0, 500, opts);
  ASSERT_EQ(r1.summaries.size(), 500u);
  for (std::size_t i = 0; i < 500; ++i) {
    EXPECT_DOUBLE_EQ(r1.summaries[i].first_failure_time,
                     r4.summaries[i].first_failure_time);
    EXPECT_DOUBLE_EQ(r1.summaries[i].first_failure_time,
                     r7.summaries[i].first_failure_time);
    EXPECT_EQ(r1.summaries[i].failures, r7.summaries[i].failures);
  }
  EXPECT_EQ(r1.failures_per_leaf, r4.failures_per_leaf);
  EXPECT_EQ(r1.failures_per_leaf, r7.failures_per_leaf);
}

TEST(ParallelRunner, FirstOffsetContinuesStreams) {
  const FaultMaintenanceTree m = series_two_exponentials();
  const sim::FmtSimulator simulator(m);
  sim::SimOptions opts;
  opts.horizon = 5.0;
  const ParallelRunner runner(simulator, 2);
  const BatchResult all = runner.run(5, 0, 100, opts);
  const BatchResult tail = runner.run(5, 60, 40, opts);
  for (std::size_t i = 0; i < 40; ++i)
    EXPECT_DOUBLE_EQ(all.summaries[60 + i].first_failure_time,
                     tail.summaries[i].first_failure_time);
}

TEST(ParallelRunner, RejectsTraces) {
  const FaultMaintenanceTree m = series_two_exponentials();
  const sim::FmtSimulator simulator(m);
  sim::Trace trace;
  sim::SimOptions opts;
  opts.horizon = 1.0;
  opts.trace = &trace;
  EXPECT_THROW(ParallelRunner(simulator).run(1, 0, 1, opts), DomainError);
}

TEST(ParallelRunner, WorkerExceptionReachesTheCaller) {
  // A throw inside a worker (here the engine's own discount-rate check) stops
  // the other workers from claiming and is rethrown to the caller.
  const FaultMaintenanceTree m = series_two_exponentials();
  const sim::FmtSimulator simulator(m);
  for (const Engine engine : {Engine::Scalar, Engine::Batch}) {
    sim::SimOptions opts;
    opts.horizon = 5.0;
    opts.engine = engine;
    opts.discount_rate = -0.1;
    EXPECT_THROW(ParallelRunner(simulator, 4).run(1, 0, 1000, opts), DomainError)
        << engine_name(engine);
  }
}

// ---- KPIs vs closed forms ------------------------------------------------------

TEST(Kpi, ReliabilityMatchesExponentialLaw) {
  const FaultMaintenanceTree m = exponential_leaf(0.5);
  const KpiReport k = analyze(m, fast_settings(2.0, 40000));
  const double expected = std::exp(-0.5 * 2.0);
  EXPECT_NEAR(k.reliability.point, expected, 0.01);
  EXPECT_TRUE(k.reliability.contains(expected));
}

TEST(Kpi, ReliabilityOfSeriesSystem) {
  // Series of exp(0.3) and exp(0.2): survival = exp(-0.5 t).
  const FaultMaintenanceTree m = series_two_exponentials();
  const KpiReport k = analyze(m, fast_settings(3.0, 40000));
  EXPECT_NEAR(k.reliability.point, std::exp(-0.5 * 3.0), 0.01);
}

TEST(Kpi, ExpectedFailuresOfPoissonRenewal) {
  // Exponential leaf with instant corrective renewal is a Poisson process:
  // E[N(t)] = rate * t.
  FaultMaintenanceTree m = exponential_leaf(0.4);
  m.set_corrective(CorrectivePolicy{true, 0.0, 0, 0});
  const KpiReport k = analyze(m, fast_settings(10.0, 40000));
  EXPECT_NEAR(k.expected_failures.point, 4.0, 0.05);
  EXPECT_TRUE(k.expected_failures.contains(4.0));
  EXPECT_NEAR(k.failures_per_year.point, 0.4, 0.005);
}

TEST(Kpi, AvailabilityOfRenewalWithDelay) {
  // Failure rate r with repair delay d: long-run availability ~ m/(m+d)
  // where m = 1/r is the mean up time (alternating renewal process).
  FaultMaintenanceTree m = exponential_leaf(1.0);
  m.set_corrective(CorrectivePolicy{true, 0.25, 0, 0});
  const KpiReport k = analyze(m, fast_settings(200.0, 4000));
  EXPECT_NEAR(k.availability.point, 1.0 / 1.25, 0.01);
}

TEST(Kpi, CostAccountingMatchesCounts) {
  FaultMaintenanceTree m;
  const NodeId a = m.add_ebe("a", DegradationModel::erlang(3, 2.0, 2),
                             fmt::RepairSpec{"fix", 100});
  m.set_top(a);
  m.add_inspection(fmt::InspectionModule{"i", 0.5, -1, 10, {a}});
  m.set_corrective(CorrectivePolicy{true, 0.0, 1000, 0});
  const KpiReport k = analyze(m, fast_settings(10.0, 5000));
  EXPECT_NEAR(k.mean_cost.inspection, k.mean_inspections * 10, 1e-9);
  EXPECT_NEAR(k.mean_cost.repair, k.mean_repairs * 100, 1e-9);
  EXPECT_NEAR(k.mean_cost.corrective, k.expected_failures.point * 1000, 1e-9);
  EXPECT_NEAR(k.total_cost.point,
              k.mean_cost.inspection + k.mean_cost.repair + k.mean_cost.corrective +
                  k.mean_cost.replacement + k.mean_cost.downtime,
              1e-9);
}

TEST(Kpi, PerLeafAttributionSumsToTotal) {
  FaultMaintenanceTree m = series_two_exponentials();
  m.set_corrective(CorrectivePolicy{true, 0.0, 0, 0});
  const KpiReport k = analyze(m, fast_settings(5.0, 20000));
  const double sum = k.failures_per_leaf[0] + k.failures_per_leaf[1];
  EXPECT_NEAR(sum, k.expected_failures.point, 1e-9);
  // Rate 0.3 leaf causes ~60% of failures.
  EXPECT_NEAR(k.failures_per_leaf[0] / sum, 0.6, 0.02);
}

TEST(Kpi, SequentialStoppingReachesTarget) {
  FaultMaintenanceTree m = exponential_leaf(0.5);
  m.set_corrective(CorrectivePolicy{true, 0.0, 0, 0});
  AnalysisSettings s = fast_settings(10.0, 2000000);
  s.target_relative_error = 0.02;
  s.batch = 4096;
  const KpiReport k = analyze(m, s);
  EXPECT_LT(k.trajectories, 2000000u);  // stopped early
  EXPECT_LE(k.expected_failures.half_width(),
            0.02 * k.expected_failures.point * 1.05);
}

TEST(Kpi, SettingsValidation) {
  const FaultMaintenanceTree m = exponential_leaf(1.0);
  AnalysisSettings s;
  s.horizon = 0;
  EXPECT_THROW(analyze(m, s), DomainError);
  s.horizon = 1;
  s.trajectories = 0;
  EXPECT_THROW(analyze(m, s), DomainError);
  s.trajectories = 10;
  s.confidence = 1.5;
  EXPECT_THROW(analyze(m, s), DomainError);
}

TEST(Kpi, RejectsNegativeOrNanDiscountRateBeforeAnyWorkerStarts) {
  const FaultMaintenanceTree m = exponential_leaf(1.0);
  AnalysisSettings s = fast_settings(5.0, 1000);  // four workers
  s.discount_rate = -0.1;
  EXPECT_THROW(analyze(m, s), DomainError);
  s.discount_rate = std::nan("");
  EXPECT_THROW(analyze(m, s), DomainError);
  s.discount_rate = 0.0;
  EXPECT_NO_THROW(analyze(m, s));
}

TEST(Kpi, RejectsAdaptiveRunWithZeroBatch) {
  const FaultMaintenanceTree m = exponential_leaf(1.0);
  AnalysisSettings s = fast_settings(5.0, 1000);
  s.target_relative_error = 0.1;
  s.batch = 0;
  EXPECT_THROW(analyze(m, s), DomainError);
  s.target_relative_error = 0.0;  // the batch size only matters when adaptive
  EXPECT_NO_THROW(analyze(m, s));
}

// ---- Curves ---------------------------------------------------------------------

TEST(Curves, ReliabilityCurveMatchesExponential) {
  const FaultMaintenanceTree m = exponential_leaf(0.3);
  const auto grid = linspace_grid(10.0, 10);
  const auto curve = reliability_curve(m, grid, fast_settings(10.0, 40000));
  ASSERT_EQ(curve.size(), grid.size());
  for (const CurvePoint& pt : curve) {
    const double expected = std::exp(-0.3 * pt.t);
    EXPECT_NEAR(pt.value.point, expected, 0.015) << "t=" << pt.t;
  }
  EXPECT_DOUBLE_EQ(curve.front().value.point, 1.0);  // R(0) = 1
}

TEST(Curves, ReliabilityCurveIsNonincreasing) {
  const FaultMaintenanceTree m = series_two_exponentials();
  const auto curve =
      reliability_curve(m, linspace_grid(8.0, 16), fast_settings(8.0, 10000));
  for (std::size_t i = 1; i < curve.size(); ++i)
    EXPECT_LE(curve[i].value.point, curve[i - 1].value.point + 1e-12);
}

TEST(Curves, ExpectedFailuresCurveLinearForPoisson) {
  FaultMaintenanceTree m = exponential_leaf(0.5);
  m.set_corrective(CorrectivePolicy{true, 0.0, 0, 0});
  const auto curve =
      expected_failures_curve(m, linspace_grid(8.0, 8), fast_settings(8.0, 10000));
  for (const CurvePoint& pt : curve)
    EXPECT_NEAR(pt.value.point, 0.5 * pt.t, 0.06 + 0.02 * pt.t) << pt.t;
  // Nondecreasing.
  for (std::size_t i = 1; i < curve.size(); ++i)
    EXPECT_GE(curve[i].value.point, curve[i - 1].value.point - 1e-12);
}

TEST(Curves, GridHelpersValidate) {
  EXPECT_THROW(linspace_grid(0, 5), DomainError);
  EXPECT_THROW(linspace_grid(5, 0), DomainError);
  const auto g = linspace_grid(10, 5);
  ASSERT_EQ(g.size(), 6u);
  EXPECT_DOUBLE_EQ(g.front(), 0.0);
  EXPECT_DOUBLE_EQ(g.back(), 10.0);
}

// ---- MTTF -------------------------------------------------------------------------

TEST(Mttf, MatchesExponentialMean) {
  const FaultMaintenanceTree m = exponential_leaf(0.5);
  AnalysisSettings s = fast_settings(200.0, 20000);  // horizon >> mean: few censored
  const MttfEstimate est = mean_time_to_failure(m, s);
  EXPECT_NEAR(est.mttf.point, 2.0, 0.05);
  EXPECT_LT(est.censored, 20u);
}

TEST(Mttf, CensoringReported) {
  const FaultMaintenanceTree m = exponential_leaf(0.01);  // mean 100
  const MttfEstimate est = mean_time_to_failure(m, fast_settings(1.0, 1000));
  EXPECT_GT(est.censored, 950u);  // nearly everything survives 1 year
  EXPECT_LE(est.mttf.point, 1.0);
}

}  // namespace
}  // namespace fmtree::smc
