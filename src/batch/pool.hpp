// The trajectory pool: one scheduler for every batch of analysis jobs.
//
// A TrajectoryPool runs cache-missed jobs (SweepJob + the CacheKey the
// caller already looked up) on a set of worker threads. Jobs enter one ready
// list ordered by priority (highest first) and submission order. An idle
// worker claims the next chunk of the first ready job; a job that still has
// unclaimed chunks after a claim moves behind the other ready jobs of its
// priority, so a short job submitted behind a long one is claimed at the next
// free chunk rather than after all of the long one's. Idle workers block on
// a condition variable; one mutex guards the ready list and every job's
// scheduling state, which is cheap because a default chunk (2048
// trajectories) is milliseconds of work.
//
// A job is built (its smc::TrajectoryKernel and summary slots) by the worker
// that claims it first, outside any lock, and freed when it resolves; every
// chunk runs through that kernel. When a job's
// last chunk finishes it moves to the finisher: the single thread that calls
// finish(). The finisher aggregates in index order (smc::aggregate_kpis),
// writes the cache, heals failed jobs through smc::analyze with bounded
// retries, and hands the JobResult to the job's callback. Exactly one thread
// aggregates and writes the cache.
//
// Adaptive jobs (target_relative_error > 0) run as rounds of settings.batch
// trajectories, each cut into one chunk per worker. After a round the
// finisher folds its summaries in index order and decides whether to run
// another exactly as smc::analyze's sequential loop does, so the report is
// bit-identical to smc::analyze.
//
// Stops: a stop of PoolOptions::control (or close()) halts every job in the
// pool and refuses new ones; the stall watchdog halts the jobs in the pool
// when it fires and keeps accepting new ones. A halted job whose trajectories
// all completed still delivers its exact report.
//
// run_sweep() is a one-shot use of this pool with the caller's thread as
// finisher; serve::Session owns one pool for its lifetime.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "batch/sweep.hpp"

namespace fmtree::batch {

struct PoolOptions {
  unsigned threads = 0;        ///< pool width; 0 = hardware concurrency
  std::uint64_t chunk = 2048;  ///< trajectories per chunk (SweepPlan::chunk)
  std::uint32_t max_retries = 2;
  double retry_backoff_ms = 25.0;
  double retry_backoff_cap_ms = 1000.0;
  double stall_timeout_s = 0.0;  ///< 0 disables the watchdog
  /// Polled between trajectories; a stop halts the whole pool (close()).
  const smc::RunControl* control = nullptr;
  ResultCache* cache = nullptr;  ///< receives every completed report
  obs::Telemetry telemetry;
};

class TrajectoryPool {
public:
  /// Receives a resolved job on the finisher thread. The StopReason is why
  /// the job stopped early when it resolved Interrupted; None otherwise.
  using Done = std::function<void(JobResult, smc::StopReason)>;

  explicit TrajectoryPool(PoolOptions options);
  TrajectoryPool(const TrajectoryPool&) = delete;
  TrajectoryPool& operator=(const TrajectoryPool&) = delete;
  /// Closes the pool and joins its threads. Call after every job resolved.
  ~TrajectoryPool();

  /// Queues one cache miss under the key the caller minted. `job` is
  /// borrowed and must outlive the job's resolution; `done` runs exactly
  /// once, on the finisher thread. Workers are started on demand, never more
  /// than the pool width nor than the chunks submitted so far. Returns the
  /// job's id for raise_priority() and cancel().
  std::uint64_t submit(const SweepJob& job, const CacheKey& key, int priority,
                       Done done);

  /// Counts a job the caller resolved from the cache (batch.jobs and
  /// batch.cache.hits), so one-shot sweeps report the same counters as before.
  void count_cache_hit();

  /// Moves a queued job to a higher priority. Unknown ids are ignored.
  void raise_priority(std::uint64_t id, int priority);

  /// Cancels one job: its unclaimed chunks are dropped, running chunks stop
  /// at the next trajectory boundary, and it resolves as cancelled unless
  /// its last trajectory already completed. Unknown ids are ignored.
  void cancel(std::uint64_t id);

  /// Halts every job and refuses new ones (they resolve at once with
  /// `reason`). Idempotent.
  void close(smc::StopReason reason);

  /// Runs the finisher on the calling thread. Returns once no job is left
  /// and either `until_idle` is true or the pool is closed.
  void finish(bool until_idle);

  /// Trajectories simulated so far, by chunks and by retries.
  std::uint64_t trajectories_simulated() const noexcept {
    return done_.load(std::memory_order_relaxed) +
           retried_.load(std::memory_order_relaxed);
  }

  /// Drains the watchdog's stall diagnostics (B102) followed by the cache's
  /// integrity warnings (C101/C102).
  std::vector<Diagnostic> take_warnings();

private:
  struct Job;
  struct Metrics;
  struct WorkerState;
  struct ByPriority {
    bool operator()(const Job* a, const Job* b) const noexcept;
  };

  // Workers.
  void worker_loop(unsigned w);
  std::optional<JobFailure> build(Job& job);
  void start_round(Job& job, std::uint64_t first);
  std::uint64_t run_chunk(Job& job, std::uint64_t first, std::uint64_t count,
                          unsigned w, WorkerState& state,
                          smc::StopReason& control_stop);
  // Finisher.
  bool finish_job(Job& job);  ///< true = another adaptive round was started
  bool continue_adaptive(Job& job);
  void aggregate(Job& job);
  void heal(Job& job);
  bool stopped(Job& job);
  void account_robustness();
  void watchdog_loop();
  // Scheduling state; the caller holds mutex_.
  void queue_locked(Job& job);
  void unqueue_locked(Job& job);
  void to_finisher_locked(Job& job);
  /// Drops the job's unclaimed chunks; an idle job goes to the finisher
  /// now, a running one when its last chunk returns.
  void drop_locked(Job& job);
  void halt_locked(Job& job, smc::StopReason reason);
  void close_locked(smc::StopReason reason);

  PoolOptions options_;
  unsigned width_ = 1;
  std::unique_ptr<Metrics> metrics_;

  std::mutex mutex_;
  std::condition_variable work_cv_;    ///< wakes idle workers
  std::condition_variable finish_cv_;  ///< wakes the finisher
  std::condition_variable watch_cv_;   ///< wakes the watchdog on close
  std::unordered_map<std::uint64_t, std::unique_ptr<Job>> jobs_;  ///< unresolved
  std::set<Job*, ByPriority> ready_;   ///< jobs with a claimable step
  std::deque<Job*> finished_;          ///< jobs waiting for the finisher
  std::uint64_t next_id_ = 0;
  std::uint64_t next_turn_ = 0;
  std::uint64_t tasks_submitted_ = 0;  ///< sizes the worker set
  bool closed_ = false;
  smc::StopReason close_reason_ = smc::StopReason::None;
  std::vector<Diagnostic> warnings_;

  /// Trajectories completed by chunks; every worker adds to it, so it gets
  /// a cache line of its own.
  alignas(64) std::atomic<std::uint64_t> done_{0};
  alignas(64) std::atomic<std::uint64_t> total_{0};  ///< scheduled (progress)
  std::atomic<std::uint64_t> retried_{0};  ///< trajectories run by retries

  struct alignas(64) Heartbeat {
    std::atomic<std::uint64_t> beats{0};
    std::atomic<bool> busy{false};
  };
  std::unique_ptr<Heartbeat[]> heartbeats_;
  std::uint64_t faults_seen_ = 0;   ///< fault.injected already counted
  std::uint64_t corrupt_seen_ = 0;  ///< cache.corrupt_entries already counted

  std::vector<std::thread> workers_;
  std::thread watchdog_;
};

}  // namespace fmtree::batch
