// Continuous dispatch through serve::Session: admitted jobs go straight into
// the Session's long-lived trajectory pool, so a short job never waits for a
// long one submitted before it; each job's key is hashed and looked up once;
// cancel and drain resolve a partly claimed job exactly once; priorities
// order chunk claims. Small enough to run under ThreadSanitizer (CI selects
// them with `ctest -R ContinuousDispatch`).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fmt/parser.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "serve/request.hpp"
#include "serve/session.hpp"
#include "util/fault_injection.hpp"

namespace fmtree::serve {
namespace {

const char* kModel = R"(
  toplevel T;
  T or A B;
  A ebe phases=3 mean=5 threshold=2 repair_cost=100;
  B be exp(0.05);
  inspection I period=0.5 cost=20 targets A;
  corrective cost=5000 delay=0;
)";

std::vector<batch::SweepJob> one_job(const std::string& label,
                                     std::uint64_t trajectories,
                                     std::uint64_t seed = 1) {
  batch::SweepJob job;
  job.label = label;
  job.model = fmt::parse_fmt(kModel);
  job.settings.horizon = 5.0;
  job.settings.trajectories = trajectories;
  job.settings.seed = seed;
  std::vector<batch::SweepJob> jobs;
  jobs.push_back(std::move(job));
  return jobs;
}

std::unique_ptr<Session> make_session(unsigned threads, obs::Telemetry telemetry = {},
                                      std::size_t queue_limit = 64,
                                      std::uint64_t chunk = 2048) {
  SessionConfig config;
  config.threads = threads;
  config.queue_limit = queue_limit;
  config.chunk = chunk;
  config.telemetry = telemetry;
  return std::make_unique<Session>(std::move(config));
}

/// Waits until the pool has completed some trajectories of the running job.
void wait_until_running(const Session& session) {
  for (int i = 0; i < 2000 && session.progress().progress.done == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_GT(session.progress().progress.done, 0u);
}

TEST(ContinuousDispatch, SmallJobSubmittedBehindALargeOneResolvesFirst) {
  auto session = make_session(/*threads=*/2);
  Ticket large = session->submit_jobs(one_job("large", 200'000));
  wait_until_running(*session);
  Ticket small = session->submit_jobs(one_job("small", 500));
  const Response response = small.take();
  EXPECT_TRUE(response.all_done());
  EXPECT_FALSE(large.done()) << "the small job waited for the large one";
  EXPECT_TRUE(large.take().all_done());
}

TEST(ContinuousDispatch, SessionHashesAndLooksUpEachJobOnce) {
  auto session = make_session(/*threads=*/2);
  constexpr std::uint64_t kJobs = 5;
  std::vector<batch::SweepJob> jobs;
  for (std::uint64_t seed = 1; seed <= kJobs; ++seed)
    jobs.push_back(one_job("job-" + std::to_string(seed), 300, seed).front());
  EXPECT_TRUE(session->submit_jobs(std::move(jobs)).take().all_done());
  EXPECT_EQ(session->cache().stats().misses, kJobs);
  EXPECT_EQ(session->cache().size(), kJobs);
}

TEST(ContinuousDispatch, CancelOfAPartlyClaimedJobResolvesOnceAndFreesItsSlot) {
  obs::MetricsRegistry metrics;
  obs::Telemetry telemetry;
  telemetry.metrics = &metrics;
  constexpr std::size_t kQueueLimit = 4;
  auto session = make_session(/*threads=*/2, telemetry, kQueueLimit, /*chunk=*/64);
  Ticket ticket = session->submit_jobs(one_job("cancelled", 100'000));
  wait_until_running(*session);
  ticket.cancel();
  ASSERT_TRUE(ticket.wait_for(30.0));
  const Response cancelled = ticket.take();
  ASSERT_EQ(cancelled.jobs.size(), 1u);
  EXPECT_EQ(cancelled.jobs[0].state, JobState::Cancelled);
  EXPECT_EQ(metrics.counter_value("serve.cancelled"), 1u);
  EXPECT_EQ(metrics.counter_value("batch.jobs_simulated"), 0u);

  // The slot came back exactly once: a full queue of new jobs is admitted.
  std::vector<batch::SweepJob> jobs;
  for (std::uint64_t seed = 1; seed <= kQueueLimit; ++seed)
    jobs.push_back(one_job("after-" + std::to_string(seed), 200, seed).front());
  Ticket after = session->submit_jobs(std::move(jobs));
  EXPECT_TRUE(after.take().all_done());
}

// A cancelled job leaves the in-flight set at once: the same request sent
// again before the cancelled job resolves starts a fresh job instead of
// attaching to the cancelled one. The finisher is held in a stalled cache
// write meanwhile, so the cancelled job cannot resolve first.
TEST(ContinuousDispatch, RequestResentRightAfterItsCancelRunsAgain) {
  const std::string dir = testing::TempDir() + "fmtree_dispatch_resend";
  std::filesystem::remove_all(dir);
  SessionConfig config;
  config.threads = 1;
  config.chunk = 64;
  config.cache_dir = dir;
  Session session(std::move(config));
  Ticket large = session.submit_jobs(one_job("large", 2'000'000, 1), /*priority=*/5);
  wait_until_running(session);

  const fault::Scope faults({"cache.write:stall=300,nth=1,limit=1"});
  Ticket first = session.submit_jobs(one_job("first", 64, 2), /*priority=*/10);
  while (fault::FaultRegistry::instance().hits("cache.write") == 0)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  // The finisher now sleeps in the cache write of "first"; "queued" waits
  // behind the higher-priority "large".
  Ticket queued = session.submit_jobs(one_job("queued", 200, 3));
  std::vector<batch::SweepJob> again = one_job("queued", 200, 3);
  queued.cancel();
  Ticket resent = session.submit_jobs(std::move(again));
  large.cancel();
  ASSERT_TRUE(resent.wait_for(30.0));
  const Response response = resent.take();
  ASSERT_EQ(response.jobs.size(), 1u);
  EXPECT_EQ(response.jobs[0].state, JobState::Done);
  EXPECT_FALSE(response.jobs[0].cache_hit);
  EXPECT_TRUE(first.take().all_done());
}

TEST(ContinuousDispatch, DrainOfAPartlyClaimedJobResolvesItOnce) {
  auto session = make_session(/*threads=*/2, {}, 64, /*chunk=*/64);
  Ticket ticket = session->submit_jobs(one_job("drained", 100'000));
  wait_until_running(*session);
  session->drain();
  EXPECT_TRUE(ticket.done());
  const Response response = ticket.take();
  ASSERT_EQ(response.jobs.size(), 1u);
  EXPECT_EQ(response.jobs[0].state, JobState::Interrupted);
  EXPECT_EQ(response.stop_reason, smc::StopReason::Interrupted);
}

// With one worker, the chunks of a higher-priority job submitted later are
// claimed before the remaining chunks of the lower-priority job.
TEST(ContinuousDispatch, LaterHigherPriorityJobIsClaimedFirst) {
  obs::Tracer tracer;
  obs::Telemetry telemetry;
  telemetry.tracer = &tracer;
  auto session = make_session(/*threads=*/1, telemetry, 64, /*chunk=*/64);
  // The low job's first chunk parks the only worker long enough for the
  // high job to arrive while the low job still has chunks to claim.
  const fault::Scope faults({"sweep.task:stall=150,nth=1,limit=1"});
  Ticket low = session->submit_jobs(one_job("low", 640, 1), /*priority=*/0);
  while (fault::FaultRegistry::instance().hits("sweep.task") == 0)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  Ticket high = session->submit_jobs(one_job("high", 320, 2), /*priority=*/5);
  EXPECT_TRUE(high.take().all_done());
  EXPECT_TRUE(low.take().all_done());

  std::vector<obs::SpanRecord> spans;
  for (const obs::SpanRecord& span : tracer.records())
    if (span.name == "job:low" || span.name == "job:high") spans.push_back(span);
  std::sort(spans.begin(), spans.end(),
            [](const auto& a, const auto& b) { return a.start_ns < b.start_ns; });
  ASSERT_EQ(spans.size(), 15u);  // 10 low chunks, 5 high chunks
  std::string order;
  for (const obs::SpanRecord& span : spans) order += span.name == "job:low" ? 'L' : 'H';
  EXPECT_EQ(order, "LHHHHHLLLLLLLLL");
}

}  // namespace
}  // namespace fmtree::serve
