// Batch execution of analysis sweeps on the shared trajectory pool.
//
// A SweepPlan is a set of (model, settings) jobs — typically the same system
// under many policy variants (the paper's cost-curve sweep). run_sweep()
// consults an optional ResultCache, so previously computed jobs cost one
// model hash instead of a simulation, and runs the misses on a one-shot
// TrajectoryPool (batch/pool.hpp) with the calling thread as finisher: the
// trajectory chunks of all jobs share one set of workers, so a small job
// keeps all of them busy alongside the others instead of running alone, and
// each job is aggregated and cached as soon as its last chunk finishes. Each
// chunk runs through the job's smc::TrajectoryKernel, the same kernel
// smc::analyze runs.
//
// Determinism contract (the same one smc::analyze keeps): trajectory i of a
// job draws from RandomStream(settings.seed, i) regardless of which worker
// runs it, chunk boundaries only partition the index space, per-leaf totals
// are integer sums (exactly commutative), and aggregation runs sequentially
// in index order via smc::aggregate_kpis. A job's report is therefore
// bit-identical to smc::analyze on the same model and settings, at any
// thread count, chunk size, and cache state. Adaptive-stopping jobs
// (target_relative_error > 0) run as rounds of `batch` trajectories inside
// the pool and stop exactly where smc::analyze's sequential loop stops.
// Job-level RunSettings::control and ::telemetry are ignored: interruption
// and instrumentation of a sweep are plan-level concerns
// (SweepPlan::control, run_sweep's telemetry argument).
//
// Self-healing (DESIGN.md, "Failure semantics"): a job that throws mid-run —
// an injected I/O error, a resource cap, a NaN-poisoned aggregate — becomes a
// structured per-job failure record (JobState::Failed + JobFailure) while
// the rest of the plan completes. Transient failure classes (I/O, injected
// faults) are retried up to SweepPlan::max_retries times with bounded
// exponential backoff; the retry path is a plain smc::analyze, which is
// bit-identical to the pooled path by the determinism contract, so a healed
// job's report carries no trace of the faults it survived. A watchdog
// (SweepPlan::stall_timeout_s) converts stalled-worker heartbeats into a
// StopReason::Stalled stop with a diagnostic naming the stuck workers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "batch/fingerprint.hpp"
#include "batch/result_cache.hpp"
#include "fmt/fmtree.hpp"
#include "obs/telemetry.hpp"
#include "smc/kpi.hpp"
#include "util/diagnostics.hpp"

namespace fmtree::batch {

/// One unit of a sweep: a fully-built model plus its analysis settings.
struct SweepJob {
  std::string label;  ///< e.g. the policy name; used in results and spans
  fmt::FaultMaintenanceTree model;
  smc::AnalysisSettings settings;
};

struct SweepPlan {
  std::vector<SweepJob> jobs;
  /// Trajectories per scheduled chunk (an adaptive round is cut into one
  /// chunk per worker, at most this large). Smaller chunks balance better
  /// across jobs of uneven size; the result is identical for any value.
  std::uint64_t chunk = 2048;
  /// Worker threads; 0 = hardware concurrency.
  unsigned threads = 0;
  /// Polled between trajectories. On a stop, jobs whose trajectories all
  /// completed still deliver exact reports; the others are returned
  /// Interrupted.
  const smc::RunControl* control = nullptr;
  /// Retry budget for jobs that failed with a *transient* class (I/O errors,
  /// injected faults): up to this many re-runs after the first attempt.
  /// Non-transient classes (domain, resource, internal) never retry.
  std::uint32_t max_retries = 2;
  /// Exponential backoff before retry k sleeps
  /// min(retry_backoff_ms * 2^(k-1), retry_backoff_cap_ms) milliseconds.
  double retry_backoff_ms = 25.0;
  double retry_backoff_cap_ms = 1000.0;
  /// Stall watchdog: when > 0 and the pool makes no trajectory progress for
  /// this many seconds while tasks remain, the sweep stops with
  /// StopReason::Stalled and a diagnostic naming the silent workers.
  /// 0 disables the watchdog (the default).
  double stall_timeout_s = 0.0;
};

/// Why a job failed, as data: classification, the message, and how many
/// attempts were spent on it.
struct JobFailure {
  /// Stable class name: "injected", "io", "resource", "domain", "internal".
  std::string kind;
  std::string message;       ///< the final attempt's exception text
  bool transient = false;    ///< whether the class was eligible for retry
  std::uint32_t attempts = 0;  ///< total attempts (first run + retries)
};

/// How a job resolved. Every executor (run_sweep, serve::Session, the
/// socket client) reports a job in exactly one of these states.
enum class JobState : std::uint8_t {
  Done,         ///< report is valid (simulated or from cache)
  Failed,       ///< permanent failure; `failure` says why
  Cancelled,    ///< TrajectoryPool::cancel stopped it before it completed
  Interrupted,  ///< a plan or service stop came before it completed
};

/// The wire spelling: "done", "failed", "cancelled", "interrupted".
const char* job_state_name(JobState s) noexcept;

struct JobResult {
  std::string label;
  CacheKey key;
  /// Interrupted until the job resolves. A one-shot run_sweep never
  /// cancels single jobs.
  JobState state = JobState::Interrupted;
  bool cache_hit = false;
  /// Valid when state == Failed: the class and message of the last attempt.
  JobFailure failure;
  /// Retry attempts spent on this job (0 when the first attempt succeeded).
  std::uint32_t retries = 0;
  smc::KpiReport report;  ///< valid when state == Done
};

struct SweepOutcome {
  std::vector<JobResult> results;  ///< in SweepPlan::jobs order
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;  ///< jobs actually simulated
  std::uint64_t trajectories_simulated = 0;
  /// True when the plan stopped (control or watchdog) before every job
  /// finished. Permanently *failed* jobs do not set this — they are
  /// accounted in jobs_failed instead.
  bool truncated = false;
  smc::StopReason stop_reason = smc::StopReason::None;
  std::uint64_t jobs_failed = 0;  ///< jobs with a permanent failure record
  std::uint64_t retries = 0;      ///< retry attempts across all jobs
  /// Cache-integrity warnings (C101/C102) drained from the cache plus the
  /// watchdog's stall diagnostic (B102) when it fired.
  std::vector<Diagnostic> warnings;
};

/// Executes the plan. `cache` may be null (no caching); `telemetry` may be
/// empty. Emits batch.* counters (jobs, jobs_simulated — jobs that produced
/// a fresh report rather than a cache hit — tasks, steals (always 0: one
/// ready list), trajectories, cache hits/misses), the robustness counters
/// (sweep.retries, sweep.job_failures, cache.corrupt_entries,
/// fault.injected), per-chunk tracer spans named after the job labels plus
/// "retry:<label>" spans, and "sweep"-phase progress over the scheduled
/// trajectory count.
SweepOutcome run_sweep(const SweepPlan& plan, ResultCache* cache = nullptr,
                       const obs::Telemetry& telemetry = {});

}  // namespace fmtree::batch
