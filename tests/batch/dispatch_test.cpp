// Continuous dispatch on the trajectory pool (batch/pool.hpp): worker sizing
// by chunk count, adaptive jobs as rounds inside the pool, mixed plans, and
// a cache whose disk writes do not block memory reads. Small enough to run
// under ThreadSanitizer (CI selects them with `ctest -R ContinuousDispatch`).
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "batch/result_cache.hpp"
#include "batch/sweep.hpp"
#include "fmt/parser.hpp"
#include "obs/tracer.hpp"
#include "report_bits.hpp"
#include "smc/kpi.hpp"
#include "util/fault_injection.hpp"

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

SweepJob make_job(const std::string& label, std::uint64_t seed,
                  std::uint64_t trajectories, double horizon = 10.0) {
  SweepJob job;
  job.label = label;
  job.model = fmt::parse_fmt(kModel);
  job.settings.horizon = horizon;
  job.settings.trajectories = trajectories;
  job.settings.seed = seed;
  return job;
}

SweepJob adaptive_job(const std::string& label, std::uint64_t seed,
                      Engine engine = Engine::Default) {
  SweepJob job = make_job(label, seed, /*trajectories=*/4000);
  job.settings.target_relative_error = 0.15;
  job.settings.batch = 256;
  job.settings.engine = engine;
  return job;
}

// Every job is at least one chunk: four 500-trajectory jobs (2000
// trajectories, less than one 2048 chunk) still get four workers.
TEST(ContinuousDispatch, SmallJobsOfOnePlanRunOnDistinctWorkers) {
  SweepPlan plan;
  plan.threads = 4;
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    plan.jobs.push_back(
        make_job("small-" + std::to_string(seed), seed, 500, /*horizon=*/60.0));
  obs::Tracer tracer;
  obs::Telemetry telemetry;
  telemetry.tracer = &tracer;
  const SweepOutcome outcome = run_sweep(plan, nullptr, telemetry);
  for (const JobResult& r : outcome.results) EXPECT_EQ(r.state, JobState::Done);
  std::set<std::uint32_t> threads;
  for (const obs::SpanRecord& span : tracer.records())
    if (span.name.rfind("job:", 0) == 0) threads.insert(span.thread);
  EXPECT_EQ(threads.size(), 4u);
}

// Adaptive jobs run as rounds of `batch` trajectories, cut into one chunk
// per worker; the finisher decides each next round exactly as
// smc::analyze's sequential loop does.
TEST(ContinuousDispatch, AdaptiveRoundsAreBitIdenticalToAnalyze) {
  for (const Engine engine : {Engine::Scalar, Engine::Batch}) {
    const SweepJob job = adaptive_job("adaptive", 5, engine);
    const smc::KpiReport direct = smc::analyze(job.model, job.settings);
    // The loop stops on the CI target after several rounds, not at the cap.
    ASSERT_GT(direct.trajectories, job.settings.batch);
    ASSERT_LT(direct.trajectories, job.settings.trajectories);
    for (const unsigned threads : {1u, 2u, 4u}) {
      for (const std::uint64_t chunk : {1ull, 7ull, 2048ull}) {
        SweepPlan plan;
        plan.threads = threads;
        plan.chunk = chunk;
        plan.jobs.push_back(job);
        const SweepOutcome outcome = run_sweep(plan);
        ASSERT_EQ(outcome.results[0].state, JobState::Done);
        EXPECT_TRUE(same_bits(outcome.results[0].report, direct))
            << "engine " << static_cast<int>(engine) << ", threads " << threads
            << ", chunk " << chunk;
        EXPECT_EQ(outcome.trajectories_simulated, direct.trajectories);
      }
    }
  }
}

TEST(ContinuousDispatch, MixedAdaptiveAndFixedPlanMatchesEachJobAlone) {
  SweepPlan plan;
  plan.threads = 3;
  plan.chunk = 64;
  plan.jobs.push_back(make_job("fixed-1", 1, 700));
  plan.jobs.push_back(adaptive_job("adaptive-2", 2));
  plan.jobs.push_back(make_job("fixed-3", 3, 300));
  plan.jobs.push_back(adaptive_job("adaptive-4", 4));
  ResultCache cache;
  const SweepOutcome mixed = run_sweep(plan, &cache);
  ASSERT_EQ(mixed.results.size(), plan.jobs.size());
  for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
    SweepPlan alone;
    alone.threads = 1;
    alone.jobs.push_back(plan.jobs[i]);
    const SweepOutcome single = run_sweep(alone);
    ASSERT_EQ(mixed.results[i].state, JobState::Done) << plan.jobs[i].label;
    EXPECT_TRUE(same_bits(mixed.results[i].report, single.results[0].report))
        << plan.jobs[i].label;
    EXPECT_TRUE(same_bits(
        mixed.results[i].report,
        smc::analyze(plan.jobs[i].model, plan.jobs[i].settings)))
        << plan.jobs[i].label;
  }
  EXPECT_EQ(cache.size(), plan.jobs.size());
  EXPECT_EQ(cache.stats().misses, plan.jobs.size());
}

// The finisher writes disk entries while a Session admits requests, which
// reads the cache: a put stalled inside its disk write must not hold up a
// get of another key already in memory.
TEST(ContinuousDispatch, CacheDiskWriteDoesNotBlockMemoryReads) {
  const std::string dir = testing::TempDir() + "fmtree_dispatch_cache";
  std::filesystem::remove_all(dir);
  ResultCache cache(dir);
  const SweepJob a = make_job("a", 1, 50);
  const SweepJob b = make_job("b", 2, 50);
  const CacheKey key_a = kpi_cache_key(a.model, a.settings);
  const CacheKey key_b = kpi_cache_key(b.model, b.settings);
  const smc::KpiReport report = smc::analyze(a.model, a.settings);
  cache.put(key_a, report);

  const fault::Scope faults({"cache.write:stall=200,nth=1,limit=1"});
  std::thread writer([&] { cache.put(key_b, report); });
  while (fault::FaultRegistry::instance().hits("cache.write") == 0)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  const auto start = std::chrono::steady_clock::now();
  const std::optional<smc::KpiReport> hit = cache.get(key_a);
  const double waited_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  writer.join();
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(same_bits(*hit, report));
  EXPECT_LT(waited_ms, 50.0);
  EXPECT_EQ(cache.stats().disk_writes, 2u);
}

// A cache built with a capacity keeps that many most recently used reports
// (serve::Session bounds its own cache so a daemon's memory stays bounded).
TEST(ContinuousDispatch, BoundedCacheKeepsTheMostRecentlyUsedEntries) {
  constexpr std::size_t kCapacity = 4;
  ResultCache cache(kCapacity);
  SweepJob job = make_job("lru", 1, 50);
  const smc::KpiReport report = smc::analyze(job.model, job.settings);
  std::vector<CacheKey> keys;
  for (std::uint64_t seed = 0; seed <= kCapacity; ++seed) {
    job.settings.seed = seed;
    keys.push_back(kpi_cache_key(job.model, job.settings));
  }
  for (std::size_t i = 0; i < kCapacity; ++i) cache.put(keys[i], report);
  ASSERT_TRUE(cache.get(keys[0]).has_value());  // now the most recent
  cache.put(keys.back(), report);               // evicts keys[1]
  EXPECT_EQ(cache.size(), kCapacity);
  EXPECT_TRUE(cache.get(keys[0]).has_value());
  EXPECT_FALSE(cache.get(keys[1]).has_value());
  EXPECT_TRUE(cache.get(keys[2]).has_value());
  EXPECT_TRUE(cache.get(keys.back()).has_value());
}

// What a memory-only rerun of a plan larger than a bounded cache does: the
// plan looks up every job before it stores any, so the rerun hits on the
// `capacity` reports the first run stored last and simulates the others
// again, bit-identically. The default cache keeps every entry and hits on
// every job.
TEST(ContinuousDispatch, RerunOfAPlanLargerThanABoundedCacheHitsOnItsCapacity) {
  constexpr std::size_t kCapacity = 4;
  SweepPlan plan;
  plan.threads = 2;
  for (std::uint64_t seed = 1; seed <= kCapacity + 2; ++seed)
    plan.jobs.push_back(make_job("job-" + std::to_string(seed), seed, 100));

  ResultCache bounded(kCapacity);
  const SweepOutcome first = run_sweep(plan, &bounded);
  const SweepOutcome rerun = run_sweep(plan, &bounded);
  EXPECT_EQ(rerun.cache_hits, kCapacity);
  EXPECT_EQ(rerun.cache_misses, plan.jobs.size() - kCapacity);
  EXPECT_EQ(bounded.size(), kCapacity);
  for (std::size_t i = 0; i < plan.jobs.size(); ++i)
    EXPECT_TRUE(same_bits(rerun.results[i].report, first.results[i].report));

  ResultCache unbounded;
  (void)run_sweep(plan, &unbounded);
  const SweepOutcome hits = run_sweep(plan, &unbounded);
  EXPECT_EQ(hits.cache_hits, plan.jobs.size());
  for (std::size_t i = 0; i < plan.jobs.size(); ++i)
    EXPECT_TRUE(same_bits(hits.results[i].report, first.results[i].report));
}

}  // namespace
}  // namespace fmtree::batch
