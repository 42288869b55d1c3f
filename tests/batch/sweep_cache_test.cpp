#include "batch/sweep.hpp"

#include <gtest/gtest.h>

#include <chrono>

#include "eijoint/model.hpp"
#include "eijoint/scenarios.hpp"
#include "fmt/parser.hpp"
#include "report_bits.hpp"
#include "smc/kpi.hpp"
#include "util/error.hpp"

namespace fmtree::batch {
namespace {

using batch_test::same_bits;

const char* kModel = R"(
  toplevel T;
  T or A B;
  A ebe phases=3 mean=6 threshold=2 repair_cost=100;
  B be exp(0.05);
  inspection I period=0.25 cost=20 targets A;
  corrective cost=5000 delay=0.02;
)";

smc::AnalysisSettings small_settings(std::uint64_t trajectories = 300) {
  smc::AnalysisSettings s;
  s.horizon = 10.0;
  s.trajectories = trajectories;
  s.seed = 11;
  return s;
}

SweepPlan small_plan(std::uint64_t chunk = 2048, unsigned threads = 0) {
  SweepPlan plan;
  plan.chunk = chunk;
  plan.threads = threads;
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    SweepJob job;
    job.label = "seed-" + std::to_string(seed);
    job.model = fmt::parse_fmt(kModel);
    job.settings = small_settings();
    job.settings.seed = seed;
    plan.jobs.push_back(std::move(job));
  }
  return plan;
}

// The load-bearing invariant: a pooled sweep produces, for every job, the
// exact bits smc::analyze produces — at any thread count and chunk size.
TEST(SweepEngine, BitIdenticalToAnalyzeAtAnyThreadAndChunkCount) {
  const SweepPlan plan = small_plan();
  const SweepOutcome serial = run_sweep(small_plan(/*chunk=*/2048, /*threads=*/1));
  const SweepOutcome pooled = run_sweep(small_plan(/*chunk=*/7, /*threads=*/4));
  ASSERT_EQ(serial.results.size(), 3u);
  ASSERT_EQ(pooled.results.size(), 3u);
  for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
    const smc::KpiReport direct =
        smc::analyze(plan.jobs[i].model, plan.jobs[i].settings);
    EXPECT_EQ(serial.results[i].state, JobState::Done);
    EXPECT_EQ(pooled.results[i].state, JobState::Done);
    EXPECT_TRUE(same_bits(serial.results[i].report, direct));
    EXPECT_TRUE(same_bits(pooled.results[i].report, direct));
  }
  EXPECT_EQ(pooled.trajectories_simulated, 900u);
  EXPECT_FALSE(pooled.truncated);
}

TEST(SweepEngine, RejectsBadPlansAndSettings) {
  SweepPlan bad_chunk = small_plan();
  bad_chunk.chunk = 0;
  EXPECT_THROW(run_sweep(bad_chunk), DomainError);
  SweepPlan bad_settings = small_plan();
  bad_settings.jobs[1].settings.horizon = -1.0;
  EXPECT_THROW(run_sweep(bad_settings), DomainError);
}

TEST(SweepEngine, RejectsAdaptiveJobWithZeroBatch) {
  // smc::analyze rejects these settings, so a pooled job must too: rounds of
  // zero trajectories could never reach the target.
  SweepPlan plan = small_plan();
  plan.jobs[0].settings.target_relative_error = 0.1;
  plan.jobs[0].settings.batch = 0;
  EXPECT_THROW(run_sweep(plan), DomainError);
}

TEST(SweepEngine, AdaptiveJobsFallBackButStayExactAndCached) {
  SweepPlan plan;
  SweepJob job;
  job.label = "adaptive";
  job.model = fmt::parse_fmt(kModel);
  job.settings = small_settings(2000);
  job.settings.target_relative_error = 0.2;
  job.settings.batch = 100;
  plan.jobs.push_back(std::move(job));

  ResultCache cache;
  const SweepOutcome cold = run_sweep(plan, &cache);
  ASSERT_EQ(cold.results[0].state, JobState::Done);
  const smc::KpiReport direct =
      smc::analyze(plan.jobs[0].model, plan.jobs[0].settings);
  EXPECT_TRUE(same_bits(cold.results[0].report, direct));

  const SweepOutcome warm = run_sweep(plan, &cache);
  EXPECT_EQ(warm.cache_hits, 1u);
  EXPECT_TRUE(warm.results[0].cache_hit);
  EXPECT_TRUE(same_bits(warm.results[0].report, direct));
}

TEST(SweepEngine, StoppedPlanReturnsIncompleteJobsAndCachesNothing) {
  SweepPlan plan = small_plan();
  smc::RunControl control;
  control.request_stop();  // stop before the first trajectory boundary
  plan.control = &control;
  ResultCache cache;
  const SweepOutcome outcome = run_sweep(plan, &cache);
  EXPECT_TRUE(outcome.truncated);
  EXPECT_EQ(outcome.stop_reason, smc::StopReason::Interrupted);
  for (const JobResult& r : outcome.results) EXPECT_NE(r.state, JobState::Done);
  EXPECT_EQ(cache.size(), 0u);
}

// Acceptance criterion of the batch subsystem: replaying the EI-joint cost
// curve against a warm cache is at least 5x faster than computing it, serves
// every job from the cache, and returns bit-identical reports.
TEST(SweepEngine, EiJointCostCurveWarmReplayIsFastAndBitIdentical) {
  const SweepPlan plan = eijoint::cost_curve_plan(
      eijoint::EiJointParameters::defaults(), small_settings(400));
  ASSERT_EQ(plan.jobs.size(), eijoint::cost_curve_frequencies().size());

  using clock = std::chrono::steady_clock;
  ResultCache cache;
  const auto cold_start = clock::now();
  const SweepOutcome cold = run_sweep(plan, &cache);
  const double cold_s =
      std::chrono::duration<double>(clock::now() - cold_start).count();
  EXPECT_EQ(cold.cache_misses, plan.jobs.size());

  const auto warm_start = clock::now();
  const SweepOutcome warm = run_sweep(plan, &cache);
  const double warm_s =
      std::chrono::duration<double>(clock::now() - warm_start).count();

  EXPECT_EQ(warm.cache_hits, plan.jobs.size());
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_EQ(warm.trajectories_simulated, 0u);
  for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
    EXPECT_TRUE(warm.results[i].cache_hit);
    EXPECT_TRUE(same_bits(warm.results[i].report, cold.results[i].report));
  }
  EXPECT_GE(cold_s, 5.0 * warm_s)
      << "warm replay " << warm_s << "s vs cold " << cold_s << "s";
}

}  // namespace
}  // namespace fmtree::batch
