#include "batch/sweep.hpp"

#include "batch/pool.hpp"
#include "obs/tracer.hpp"
#include "util/error.hpp"

namespace fmtree::batch {

const char* job_state_name(JobState s) noexcept {
  switch (s) {
    case JobState::Done: return "done";
    case JobState::Failed: return "failed";
    case JobState::Cancelled: return "cancelled";
    case JobState::Interrupted: return "interrupted";
  }
  return "?";
}

SweepOutcome run_sweep(const SweepPlan& plan, ResultCache* cache,
                       const obs::Telemetry& telemetry) {
  if (!(plan.chunk > 0)) throw DomainError("sweep chunk must be positive");
  for (const SweepJob& job : plan.jobs) smc::validate_settings(job.settings);

  auto sweep_span = obs::maybe_span(telemetry.tracer, "sweep");
  TrajectoryPool pool({.threads = plan.threads,
                       .chunk = plan.chunk,
                       .max_retries = plan.max_retries,
                       .retry_backoff_ms = plan.retry_backoff_ms,
                       .retry_backoff_cap_ms = plan.retry_backoff_cap_ms,
                       .stall_timeout_s = plan.stall_timeout_s,
                       .control = plan.control,
                       .cache = cache,
                       .telemetry = telemetry});

  // Resolve every job against the cache; the misses go to the pool with the
  // key already minted, and the caller's thread finishes them.
  SweepOutcome outcome;
  outcome.results.resize(plan.jobs.size());
  for (std::size_t j = 0; j < plan.jobs.size(); ++j) {
    const SweepJob& job = plan.jobs[j];
    JobResult& result = outcome.results[j];
    result.label = job.label;
    result.key = kpi_cache_key(job.model, job.settings);
    if (cache != nullptr) {
      if (std::optional<smc::KpiReport> hit = cache->get(result.key)) {
        result.report = *std::move(hit);
        result.state = JobState::Done;
        result.cache_hit = true;
        ++outcome.cache_hits;
        pool.count_cache_hit();
        continue;
      }
    }
    ++outcome.cache_misses;
    pool.submit(job, result.key, /*priority=*/0,
                [&outcome, j](JobResult done, smc::StopReason reason) {
                  outcome.results[j] = std::move(done);
                  if (outcome.stop_reason == smc::StopReason::None)
                    outcome.stop_reason = reason;
                });
  }
  pool.finish(/*until_idle=*/true);

  outcome.trajectories_simulated = pool.trajectories_simulated();
  for (const JobResult& result : outcome.results) {
    outcome.retries += result.retries;
    if (result.state == JobState::Failed) ++outcome.jobs_failed;
    else if (result.state != JobState::Done) outcome.truncated = true;
  }
  outcome.warnings = pool.take_warnings();
  return outcome;
}

}  // namespace fmtree::batch
