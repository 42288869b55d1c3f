// serve::Session — the analysis service, usable in-process or behind the
// `fmtree serve` socket daemon (serve/server.hpp). One Session owns one
// ResultCache and one long-lived batch::TrajectoryPool, so many concurrent
// callers share one hot cache and one set of trajectory workers. Admitted
// jobs go straight into the pool's ready list; the Session's finisher thread
// aggregates each job as soon as its last chunk finishes, writes the cache
// and resolves the job's tickets — a short request never waits for a long
// one submitted before it.
//
// Submission semantics, in resolution order per job:
//   1. cache hit   — resolved immediately, no queue slot consumed;
//   2. in-flight   — an identical job (same CacheKey) is already queued or
//     running: the caller attaches to it (dedup), the job runs once, every
//     attached ticket receives the same bit-exact report, and the job's
//     effective priority is the max over its watchers;
//   3. admission   — a genuinely new job needs a queue slot; when the count
//     of outstanding jobs would exceed SessionConfig::queue_limit the whole
//     request is rejected with AdmissionError (R120) and *nothing* of it is
//     enqueued (all-or-nothing, so a half-admitted sweep cannot deadlock a
//     client);
//   4. enqueued    — the job enters the pool under the key minted at
//     admission; workers claim its chunks in (priority desc, submission
//     order asc) order.
//
// Cancellation: Ticket::cancel() detaches one caller; when the last watcher
// of a job detaches, the pool cancels the job: a queued job resolves at
// once, a running one at the next trajectory boundary, and its queue slot
// frees when it resolves. The cancelled job leaves the in-flight set at
// once, so a new request for the same key starts a fresh job rather than
// attaching to the cancelled one. drain() — the SIGTERM path — closes the pool,
// which interrupts everything still pending and resolves all tickets;
// completed jobs keep their cached results, so a restarted daemon replays
// them bit-identically.
//
// Bitwise contract: a job's report is bit-identical to standalone
// smc::analyze / `fmtree sweep` for the same model and settings — the
// Session only schedules; it never touches result bits.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "batch/pool.hpp"
#include "batch/result_cache.hpp"
#include "obs/progress.hpp"
#include "obs/telemetry.hpp"
#include "serve/request.hpp"
#include "smc/run_control.hpp"

namespace fmtree::serve {

struct SessionConfig {
  unsigned threads = 0;          ///< pool width; 0 = hardware concurrency
  std::size_t queue_limit = 64;  ///< max outstanding (queued + running) jobs
  std::string cache_dir;         ///< disk cache tier; empty = memory-only
  std::string model_root = "models";  ///< directory for model "ref" lookups
  std::uint32_t max_retries = 2;      ///< SweepPlan::max_retries
  double stall_timeout_s = 0.0;       ///< SweepPlan::stall_timeout_s
  std::uint64_t chunk = 2048;         ///< SweepPlan::chunk
  /// Borrowed cache (e.g. fmtree::Analysis sharing its own); nullptr = the
  /// Session owns one built from cache_dir, whose memory tier keeps the
  /// Session::kCacheMemoryEntries most recently used reports.
  batch::ResultCache* cache = nullptr;
  /// Server-owned sinks. serve.* counters are registered here; the pool
  /// adds its batch.* counters. Progress flows through the Session's own
  /// snapshot (progress()) *and* any reporter installed here.
  obs::Telemetry telemetry;
};

/// One job of a request resolves to the pool's own result type; these
/// names keep the service vocabulary.
using JobOutcome = batch::JobResult;
using batch::JobState;
using batch::job_state_name;

/// Everything a completed request resolves to, in job submission order.
struct Response {
  std::string id;  ///< echo of Request::id
  std::vector<JobOutcome> jobs;
  std::vector<Diagnostic> warnings;
  /// Why the service stopped early, when any job is Interrupted.
  smc::StopReason stop_reason = smc::StopReason::None;

  bool all_done() const noexcept;
  std::uint64_t count(JobState s) const noexcept;
};

namespace detail {
struct JobEntry;
struct ServeMetrics;
}

/// A caller's handle on one submitted request. Move-only; destroying an
/// unresolved ticket cancels the caller's interest (like cancel()).
class Ticket {
public:
  Ticket() = default;
  Ticket(Ticket&&) noexcept;
  Ticket& operator=(Ticket&&) noexcept;
  Ticket(const Ticket&) = delete;
  Ticket& operator=(const Ticket&) = delete;
  ~Ticket();

  /// Number of jobs the request resolved to (after policy expansion).
  std::size_t jobs() const noexcept { return entries_.size(); }
  /// True once every job of the request is resolved.
  bool done() const;
  /// Blocks until done.
  void wait();
  /// Blocks up to `seconds`; returns done().
  bool wait_for(double seconds);
  /// Waits, then assembles the response (including cache warnings drained
  /// from the service). Call once.
  Response take();
  /// Detaches this caller. Jobs whose last watcher detaches are cancelled
  /// at the next trajectory boundary; jobs shared with other callers keep
  /// running. Idempotent.
  void cancel();

private:
  friend class Session;
  class Session* session_ = nullptr;
  std::string id_;
  std::vector<std::shared_ptr<detail::JobEntry>> entries_;
  bool detached_ = false;
};

class Session {
public:
  explicit Session(SessionConfig config);
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  ~Session();  ///< drains

  /// Parses nothing: the request's model is resolved (prepare()) and its
  /// jobs submitted atomically. Throws RequestError (R112/R113) and
  /// AdmissionError (R120).
  Ticket submit(const Request& request);

  /// Pre-built jobs (the in-process fast path used by fmtree::Analysis and
  /// the CLI). Settings are validated (R112); admission is all-or-nothing.
  Ticket submit_jobs(std::vector<batch::SweepJob> jobs, int priority = 0,
                     std::string id = {});

  /// Stops accepting work, interrupts pending jobs, resolves every ticket
  /// and joins the finisher. Idempotent; the destructor calls it.
  void drain();

  /// Memory-tier capacity of the cache a Session owns, so a long-running
  /// daemon's memory stays bounded however many distinct requests it
  /// serves. An evicted report is re-read from the disk tier when there is
  /// one, and recomputed bit-identically when there is not.
  static constexpr std::size_t kCacheMemoryEntries = 2048;

  /// The service cache (owned or borrowed per SessionConfig::cache).
  batch::ResultCache& cache() noexcept { return *cache_; }

  /// Latest pool progress (phase "sweep"); generation increments with every
  /// update so pollers can cheaply detect changes.
  struct ProgressSnapshot {
    obs::Progress progress;
    std::uint64_t generation = 0;
  };
  ProgressSnapshot progress() const;

  const SessionConfig& config() const noexcept { return config_; }

private:
  friend class Ticket;

  /// The pool's callback for one job, on the finisher thread.
  void resolve(detail::JobEntry& entry, batch::JobResult result,
               smc::StopReason reason);
  void release_interest(const std::vector<std::shared_ptr<detail::JobEntry>>& entries);
  /// Caller holds mutex_: removes `entry` from inflight_ if it is still
  /// the job registered under its key.
  void erase_inflight(const detail::JobEntry& entry);

  SessionConfig config_;
  std::unique_ptr<batch::ResultCache> owned_cache_;
  batch::ResultCache* cache_ = nullptr;
  std::unique_ptr<detail::ServeMetrics> serve_metrics_;  ///< counter ids

  mutable std::mutex mutex_;
  std::condition_variable done_cv_;   ///< wakes waiting tickets
  /// Unresolved jobs that still have a watcher, by key id (dedup target).
  std::map<std::string, std::shared_ptr<detail::JobEntry>> inflight_;
  std::size_t outstanding_ = 0;  ///< queued + running (admission accounting)
  bool stopping_ = false;
  std::vector<Diagnostic> warnings_;  ///< drained into responses
  smc::StopReason last_stop_reason_ = smc::StopReason::None;

  smc::RunControl drain_control_;  ///< also interrupts retries in flight

  mutable std::mutex progress_mutex_;
  ProgressSnapshot progress_snapshot_;
  std::unique_ptr<obs::ProgressReporter> progress_reporter_;

  /// Declared last: destroyed (workers joined) before the cache and the
  /// progress reporter it uses.
  std::unique_ptr<batch::TrajectoryPool> pool_;
  std::thread finisher_;
};

}  // namespace fmtree::serve
