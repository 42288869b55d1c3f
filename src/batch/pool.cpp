#include "batch/pool.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <new>
#include <optional>

#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/tracer.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace fmtree::batch {

namespace {

/// Maps a caught exception to its failure record. The transient classes
/// (retry-eligible) are I/O and injected faults — external conditions a
/// re-run can outlive; domain errors (NaN-poisoned statistics), resource caps and
/// unknown exceptions are deterministic for the job's inputs and retrying
/// them would only repeat the failure.
JobFailure classify_failure(const std::exception& e, std::uint32_t attempts) {
  JobFailure f;
  f.message = e.what();
  f.attempts = attempts;
  if (dynamic_cast<const fault::InjectedFault*>(&e) != nullptr) {
    f.kind = "injected";
    f.transient = true;
  } else if (dynamic_cast<const IoError*>(&e) != nullptr) {
    f.kind = "io";
    f.transient = true;
  } else if (dynamic_cast<const ResourceLimitError*>(&e) != nullptr) {
    f.kind = "resource";
  } else if (dynamic_cast<const DomainError*>(&e) != nullptr) {
    f.kind = "domain";
  } else {
    f.kind = "internal";
  }
  return f;
}

struct FreeDeleter {
  void operator()(void* p) const noexcept { std::free(p); }
};

/// Slots for `n` trajectory summaries, left unwritten: TrajectorySummary is
/// an implicit-lifetime aggregate, and the pages of a large block are only
/// committed as chunks write them, so a job cancelled or drained early costs
/// the trajectories it ran, not its size.
std::unique_ptr<smc::TrajectorySummary[], FreeDeleter> summary_slots(std::uint64_t n) {
  if (n > SIZE_MAX / sizeof(smc::TrajectorySummary)) throw std::bad_alloc();
  void* p = std::malloc(n * sizeof(smc::TrajectorySummary));
  if (p == nullptr) throw std::bad_alloc();
  return std::unique_ptr<smc::TrajectorySummary[], FreeDeleter>(
      static_cast<smc::TrajectorySummary*>(p));
}

}  // namespace

/// One job in the pool. Scheduling fields are guarded by the pool mutex;
/// the build products are written by the builder before the job is queued
/// and only read while chunks run; the finisher owns the job exclusively
/// once it left the ready list with no chunk in flight.
struct TrajectoryPool::Job {
  std::uint64_t id = 0;
  std::uint64_t turn = 0;  ///< order within a priority: submission, then rotation
  int priority = 0;
  const SweepJob* spec = nullptr;
  Done done;
  JobResult result;
  bool adaptive = false;

  // Built by the first worker that claims the job. A scripted-policy job's
  // kernel simulates the apply_policy transform of the model; the cache key
  // is still minted from the untransformed model + the policy fingerprint in
  // the settings.
  std::optional<smc::TrajectoryKernel> kernel;
  /// One slot per trajectory up to the job's cap; chunks write disjoint
  /// slots. Read back for indices below `completed` only.
  std::unique_ptr<smc::TrajectorySummary[], FreeDeleter> summaries;
  smc::BatchResult batch;  ///< the per-leaf totals

  // Scheduling state (pool mutex).
  bool built = false;
  bool building = false;
  bool queued = false;     ///< in ready_
  bool finishing = false;  ///< in finished_ or being finished
  std::uint64_t round_first = 0;
  std::uint64_t next = 0;  ///< first unclaimed trajectory of the round
  std::uint64_t end = 0;   ///< one past the round's last trajectory
  std::uint64_t chunk = 0;
  unsigned in_flight = 0;       ///< claimed chunks not yet returned
  std::uint64_t completed = 0;  ///< trajectories completed over all rounds
  /// Job-level isolation: the first throw parks the job here; its unclaimed
  /// chunks are dropped and the finisher heals or reports it.
  bool failed = false;
  JobFailure failure;

  // Polled by workers between trajectories.
  std::atomic<smc::StopReason> stop{smc::StopReason::None};
  std::atomic<bool> cancelled{false};

  RunningStats failures;  ///< adaptive fold (finisher only)
  smc::StopReason reason = smc::StopReason::None;  ///< passed to `done`

  bool cancel_requested() const { return cancelled.load(std::memory_order_acquire); }
  bool halted() const {
    return stop.load(std::memory_order_acquire) != smc::StopReason::None;
  }
};

struct TrajectoryPool::Metrics {
  obs::MetricsRegistry* registry = nullptr;
  obs::CounterId jobs, jobs_simulated, tasks, steals, trajectories, events,
      cache_hits, cache_misses;
  obs::CounterId retries, job_failures, corrupt_entries, faults_injected;

  explicit Metrics(obs::MetricsRegistry* r) : registry(r) {
    if (r == nullptr) return;
    jobs = r->counter("batch.jobs");
    jobs_simulated = r->counter("batch.jobs_simulated");
    tasks = r->counter("batch.tasks");
    steals = r->counter("batch.steals");  // one ready list: stays 0
    trajectories = r->counter("batch.trajectories");
    events = r->counter("batch.events");
    cache_hits = r->counter("batch.cache.hits");
    cache_misses = r->counter("batch.cache.misses");
    retries = r->counter("sweep.retries");
    job_failures = r->counter("sweep.job_failures");
    corrupt_entries = r->counter("cache.corrupt_entries");
    faults_injected = r->counter("fault.injected");
  }
  void add(obs::CounterId id, std::uint64_t n = 1) {
    if (registry != nullptr) registry->add(id, n);
  }
};

/// What one worker keeps across chunks.
struct TrajectoryPool::WorkerState {
  smc::TrajectoryKernel::Workspace ws;
  obs::LocalMetrics local;
  smc::LeafTotals leaves;  ///< of the last chunk
  std::uint64_t polls = 0;
};

bool TrajectoryPool::ByPriority::operator()(const Job* a,
                                            const Job* b) const noexcept {
  return a->priority != b->priority ? a->priority > b->priority
                                    : a->turn < b->turn;
}

TrajectoryPool::TrajectoryPool(PoolOptions options)
    : options_(std::move(options)) {
  if (!(options_.chunk > 0)) throw DomainError("sweep chunk must be positive");
  width_ = options_.threads != 0
               ? options_.threads
               : std::max(1u, std::thread::hardware_concurrency());
  heartbeats_ = std::make_unique<Heartbeat[]>(width_);
  metrics_ = std::make_unique<Metrics>(options_.telemetry.metrics);
  faults_seen_ = fault::FaultRegistry::instance().fires();
  if (options_.cache != nullptr)
    corrupt_seen_ = options_.cache->stats().corrupt_entries;
}

TrajectoryPool::~TrajectoryPool() {
  {
    std::lock_guard lock(mutex_);
    close_locked(smc::StopReason::Interrupted);
  }
  for (std::thread& t : workers_) t.join();
  if (watchdog_.joinable()) watchdog_.join();
}

std::uint64_t TrajectoryPool::submit(const SweepJob& spec, const CacheKey& key,
                                     int priority, Done done) {
  auto owned = std::make_unique<Job>();
  Job& job = *owned;
  job.spec = &spec;
  job.priority = priority;
  job.done = std::move(done);
  job.result.label = spec.label;
  job.result.key = key;
  job.adaptive = spec.settings.target_relative_error > 0;
  metrics_->add(metrics_->jobs);
  metrics_->add(metrics_->cache_misses);

  std::lock_guard lock(mutex_);
  job.id = next_id_++;
  job.turn = next_turn_++;
  jobs_.emplace(job.id, std::move(owned));
  if (closed_) {
    halt_locked(job, close_reason_);
    return job.id;
  }
  // Size the worker set by chunk count: every job is at least one chunk,
  // and an adaptive round is one chunk per worker.
  const std::uint64_t n = spec.settings.trajectories;
  tasks_submitted_ += job.adaptive ? width_ : (n + options_.chunk - 1) / options_.chunk;
  const auto want = static_cast<unsigned>(
      std::min<std::uint64_t>(width_, tasks_submitted_));
  while (workers_.size() < want) {
    const auto w = static_cast<unsigned>(workers_.size());
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
  if (options_.stall_timeout_s > 0 && !watchdog_.joinable())
    watchdog_ = std::thread([this] { watchdog_loop(); });
  queue_locked(job);
  work_cv_.notify_one();  // each claim that leaves work behind wakes the next
  return job.id;
}

void TrajectoryPool::count_cache_hit() {
  metrics_->add(metrics_->jobs);
  metrics_->add(metrics_->cache_hits);
}

void TrajectoryPool::raise_priority(std::uint64_t id, int priority) {
  std::lock_guard lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end() || priority <= it->second->priority) return;
  Job& job = *it->second;
  const bool queued = job.queued;
  unqueue_locked(job);
  job.priority = priority;
  if (queued) queue_locked(job);
}

void TrajectoryPool::cancel(std::uint64_t id) {
  std::lock_guard lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return;
  Job& job = *it->second;
  job.cancelled.store(true, std::memory_order_release);
  drop_locked(job);
}

void TrajectoryPool::close(smc::StopReason reason) {
  std::lock_guard lock(mutex_);
  close_locked(reason);
}

std::vector<Diagnostic> TrajectoryPool::take_warnings() {
  std::vector<Diagnostic> out;
  {
    std::lock_guard lock(mutex_);
    out = std::exchange(warnings_, {});
  }
  if (options_.cache != nullptr)
    for (Diagnostic& d : options_.cache->take_warnings()) out.push_back(std::move(d));
  return out;
}

void TrajectoryPool::queue_locked(Job& job) {
  ready_.insert(&job);
  job.queued = true;
}

void TrajectoryPool::unqueue_locked(Job& job) {
  if (!job.queued) return;
  ready_.erase(&job);
  job.queued = false;
}

void TrajectoryPool::to_finisher_locked(Job& job) {
  job.finishing = true;
  finished_.push_back(&job);
  finish_cv_.notify_one();
}

void TrajectoryPool::drop_locked(Job& job) {
  unqueue_locked(job);
  if (job.in_flight == 0 && !job.building && !job.finishing)
    to_finisher_locked(job);
}

void TrajectoryPool::halt_locked(Job& job, smc::StopReason reason) {
  smc::StopReason expected = smc::StopReason::None;
  job.stop.compare_exchange_strong(expected, reason, std::memory_order_acq_rel);
  drop_locked(job);
}

void TrajectoryPool::close_locked(smc::StopReason reason) {
  if (!closed_) {
    closed_ = true;
    close_reason_ = reason;
  }
  for (auto& [id, job] : jobs_) halt_locked(*job, reason);
  work_cv_.notify_all();
  finish_cv_.notify_all();
  watch_cv_.notify_all();
}

std::optional<JobFailure> TrajectoryPool::build(Job& job) {
  const SweepJob& spec = *job.spec;
  try {
    job.kernel.emplace(spec.model,
                       smc::sim_options(spec.settings, spec.settings.horizon));
    job.summaries = summary_slots(spec.settings.trajectories);
    job.batch.failures_per_leaf.assign(job.kernel->num_leaves(), 0);
    job.batch.repairs_per_leaf.assign(job.kernel->num_leaves(), 0);
    start_round(job, 0);
  } catch (const std::exception& e) {
    // Model/policy rejected at construction (e.g. a script naming a
    // component this model lacks): the finisher classifies and reports it.
    return classify_failure(e, /*attempts=*/1);
  }
  return std::nullopt;
}

void TrajectoryPool::start_round(Job& job, std::uint64_t first) {
  const smc::AnalysisSettings& s = job.spec->settings;
  std::uint64_t end = s.trajectories;
  job.chunk = options_.chunk;
  if (job.adaptive) {
    // smc::analyze's adaptive loop: rounds of `batch` trajectories up to the
    // `trajectories` cap, here cut into one chunk per worker.
    end = first + std::min(s.batch, s.trajectories - first);
    job.chunk = std::min(options_.chunk, (end - first + width_ - 1) / width_);
  }
  job.round_first = first;
  job.next = first;
  job.end = end;
  total_.fetch_add(end - first, std::memory_order_relaxed);
}

void TrajectoryPool::worker_loop(unsigned w) {
  WorkerState state;
  if (metrics_->registry != nullptr) state.local = metrics_->registry->local();
  std::unique_lock lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [&] { return closed_ || !ready_.empty(); });
    if (ready_.empty()) return;  // closed, nothing left to claim
    Job& job = **ready_.begin();
    if (options_.control != nullptr) {
      const smc::StopReason r =
          options_.control->should_stop(done_.load(std::memory_order_relaxed));
      if (r != smc::StopReason::None) {
        close_locked(r);
        continue;
      }
    }
    // A job halted while queued leaves without a claim.
    if (job.halted() || job.cancel_requested()) {
      drop_locked(job);
      continue;
    }
    Heartbeat& heartbeat = heartbeats_[w];
    if (!job.built) {
      // The first claim builds the job, outside the lock; other workers
      // move on to the next ready job meanwhile.
      unqueue_locked(job);
      job.building = true;
      if (!ready_.empty()) work_cv_.notify_one();
      heartbeat.busy.store(true, std::memory_order_relaxed);
      lock.unlock();
      std::optional<JobFailure> failure = build(job);
      lock.lock();
      heartbeat.busy.store(false, std::memory_order_relaxed);
      job.building = false;
      job.built = true;
      if (failure) {
        job.failed = true;
        job.failure = std::move(*failure);
      }
      // The builder claims next; its claim wakes another worker if work
      // remains.
      if (job.failed || job.halted() || job.cancel_requested()) {
        to_finisher_locked(job);
      } else {
        queue_locked(job);
      }
      continue;
    }

    // Claim the job's next chunk; a job with chunks left goes behind the
    // other ready jobs of its priority.
    const std::uint64_t first = job.next;
    const std::uint64_t count = std::min(job.chunk, job.end - first);
    job.next += count;
    ++job.in_flight;
    unqueue_locked(job);
    if (job.next < job.end) {
      job.turn = next_turn_++;
      queue_locked(job);
    }
    if (!ready_.empty()) work_cv_.notify_one();
    heartbeat.busy.store(true, std::memory_order_relaxed);
    heartbeat.beats.fetch_add(1, std::memory_order_relaxed);
    lock.unlock();

    smc::StopReason control_stop = smc::StopReason::None;
    std::uint64_t ran = 0;
    std::optional<JobFailure> failure;
    try {
      ran = run_chunk(job, first, count, w, state, control_stop);
    } catch (const std::exception& e) {
      failure = classify_failure(e, /*attempts=*/1);
    }
    state.local.add(metrics_->tasks);
    if (metrics_->registry != nullptr) metrics_->registry->merge(state.local);

    lock.lock();
    heartbeat.busy.store(false, std::memory_order_relaxed);
    --job.in_flight;
    if (failure) {
      // First failure wins; the job's unclaimed chunks are dropped.
      if (!job.failed) {
        job.failed = true;
        job.failure = std::move(*failure);
      }
      unqueue_locked(job);
    } else {
      // Integer totals commute, so fold order cannot affect the result.
      job.completed += ran;
      for (std::size_t leaf = 0; leaf < state.leaves.failures.size(); ++leaf) {
        job.batch.failures_per_leaf[leaf] += state.leaves.failures[leaf];
        job.batch.repairs_per_leaf[leaf] += state.leaves.repairs[leaf];
      }
      if (ran < count) unqueue_locked(job);  // stopped or cancelled mid-chunk
    }
    if (control_stop != smc::StopReason::None) close_locked(control_stop);
    if (job.in_flight == 0 && !job.queued && !job.finishing)
      to_finisher_locked(job);
  }
}

std::uint64_t TrajectoryPool::run_chunk(Job& job, std::uint64_t first,
                                        std::uint64_t count, unsigned w,
                                        WorkerState& state,
                                        smc::StopReason& control_stop) {
  auto span = obs::maybe_span(options_.telemetry.tracer, "job:" + job.result.label);
  // The worker-task fault site: error mode simulates a crashed chunk
  // (isolated into a per-job failure record + retry), stall mode parks this
  // worker to exercise the watchdog.
  (void)fault::fault_point("sweep.task");
  state.leaves.reset(job.kernel->num_leaves());
  Heartbeat& heartbeat = heartbeats_[w];
  obs::ProgressReporter* progress = options_.telemetry.progress;

  const auto should_stop = [&]() {
    if (job.halted() || job.cancel_requested()) return true;
    if (options_.control == nullptr) return false;
    control_stop =
        options_.control->should_stop(done_.load(std::memory_order_relaxed));
    return control_stop != smc::StopReason::None;
  };
  const auto on_unit = [&](std::uint64_t, std::span<sim::TrajectoryResult> results) {
    if (metrics_->registry != nullptr) {
      state.local.add(metrics_->trajectories, results.size());
      for (const sim::TrajectoryResult& r : results)
        state.local.add(metrics_->events, r.events);
    }
    done_.fetch_add(results.size(), std::memory_order_relaxed);
    heartbeat.beats.fetch_add(1, std::memory_order_relaxed);
    if (progress != nullptr && (++state.polls & 31u) == 0 && progress->due()) {
      obs::Progress p;
      p.phase = "sweep";
      p.done = done_.load(std::memory_order_relaxed);
      p.total = total_.load(std::memory_order_relaxed);
      progress->update(p);
    }
  };
  return job.kernel->run(job.spec->settings.seed, first, count, state.ws,
                         &job.summaries[first], state.leaves, should_stop, on_unit);
}

void TrajectoryPool::finish(bool until_idle) {
  std::unique_lock lock(mutex_);
  for (;;) {
    finish_cv_.wait(lock, [&] {
      return !finished_.empty() || (jobs_.empty() && (until_idle || closed_));
    });
    if (finished_.empty()) break;
    Job& job = *finished_.front();
    finished_.pop_front();
    lock.unlock();
    const bool another_round = finish_job(job);
    account_robustness();
    lock.lock();
    if (another_round) {
      job.finishing = false;
      if (job.halted() || job.cancel_requested()) {
        to_finisher_locked(job);
      } else {
        queue_locked(job);
        work_cv_.notify_all();
      }
      continue;
    }
    auto node = jobs_.extract(job.id);
    lock.unlock();
    // The callback runs unlocked; the job's memory is freed right after.
    node.mapped()->done(std::move(job.result), job.reason);
    node = {};
    lock.lock();
  }
  lock.unlock();
  account_robustness();
}

bool TrajectoryPool::finish_job(Job& job) {
  if (job.failed) {
    job.result.failure = job.failure;
    heal(job);
    return false;
  }
  if (job.end > 0 && job.next == job.end && job.completed == job.end) {
    // Every trajectory of the round completed: a cancel or stop that lost
    // the race with the last chunk is too late, and the job delivers.
    if (!job.adaptive || !continue_adaptive(job)) {
      aggregate(job);
      return false;
    }
    if (!job.halted() && !job.cancel_requested()) {
      start_round(job, job.end);
      return true;
    }
  }
  if (job.cancel_requested()) {
    job.result.state = JobState::Cancelled;
  } else {
    const smc::StopReason stop = job.stop.load(std::memory_order_acquire);
    job.reason = stop != smc::StopReason::None ? stop : smc::StopReason::Interrupted;
  }
  return false;
}

bool TrajectoryPool::continue_adaptive(Job& job) {
  // smc::analyze's sequential loop, replayed over the finished round: fold
  // its summaries in index order, then stop on the same check, or at the cap.
  const smc::AnalysisSettings& s = job.spec->settings;
  for (std::uint64_t i = job.round_first; i < job.end; ++i)
    job.failures.add(static_cast<double>(job.summaries[i].failures));
  const smc::AdaptiveCheck check = smc::adaptive_check(job.failures, s);
  if (obs::ProgressReporter* progress = options_.telemetry.progress) {
    obs::Progress p;
    p.phase = "sweep";
    p.done = done_.load(std::memory_order_relaxed);
    p.total = total_.load(std::memory_order_relaxed);
    p.ci_half_width = check.relative_half_width;
    p.ci_target = s.target_relative_error;
    progress->update(p);
  }
  return job.end < s.trajectories && !check.converged;
}

void TrajectoryPool::aggregate(Job& job) {
  JobResult& result = job.result;
  job.batch.completed = job.end;
  smc::AnalysisSettings agg = job.spec->settings;
  agg.telemetry = options_.telemetry;
  try {
    result.report = smc::aggregate_kpis({job.summaries.get(), job.end}, job.batch, agg);
    result.state = JobState::Done;
    if (options_.cache != nullptr) options_.cache->put(result.key, result.report);
    metrics_->add(metrics_->jobs_simulated);
  } catch (const std::exception& e) {
    // E.g. NaN-poisoned statistics (DomainError): deterministic for the
    // job's inputs, so heal() records a permanent failure without burning
    // retries; injected faults still heal.
    result.failure = classify_failure(e, /*attempts=*/1);
    heal(job);
  }
}

bool TrajectoryPool::stopped(Job& job) {
  if (job.halted()) return true;
  if (options_.control == nullptr) return false;
  const smc::StopReason r =
      options_.control->should_stop(done_.load(std::memory_order_relaxed));
  if (r == smc::StopReason::None) return false;
  std::lock_guard lock(mutex_);
  close_locked(r);
  return true;
}

void TrajectoryPool::heal(Job& job) {
  // Heal-or-fail: re-runs the job through smc::analyze — bit-identical to
  // the pooled path — honoring the transient/permanent split and the
  // bounded exponential backoff. On entry result.failure holds the last
  // failed attempt.
  const SweepJob& spec = *job.spec;
  JobResult& result = job.result;
  std::uint32_t attempts = result.failure.attempts;
  for (;;) {
    // Per-job cancel beats both healing and failure accounting: the caller
    // already hung up, so neither a retry nor a failure record is owed.
    if (job.cancel_requested()) {
      result.state = JobState::Cancelled;
      return;
    }
    if (!result.failure.transient || result.retries >= options_.max_retries) {
      result.state = JobState::Failed;
      metrics_->add(metrics_->job_failures);
      return;
    }
    if (stopped(job)) {  // stopping: leave the job incomplete
      job.reason = job.stop.load(std::memory_order_acquire);
      return;
    }
    const double backoff_ms =
        std::min(options_.retry_backoff_ms * std::exp2(double(result.retries)),
                 options_.retry_backoff_cap_ms);
    if (backoff_ms > 0)
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff_ms));
    ++result.retries;
    metrics_->add(metrics_->retries);
    auto span = obs::maybe_span(options_.telemetry.tracer, "retry:" + spec.label);
    try {
      smc::AnalysisSettings settings = spec.settings;
      settings.telemetry = options_.telemetry;
      settings.control = options_.control;
      smc::KpiReport report = smc::analyze(spec.model, settings);
      retried_.fetch_add(report.trajectories, std::memory_order_relaxed);
      if (report.truncated) {
        job.reason = report.stop_reason;
        return;
      }
      result.report = std::move(report);
      result.state = JobState::Done;
      if (options_.cache != nullptr) options_.cache->put(result.key, result.report);
      metrics_->add(metrics_->jobs_simulated);
      return;
    } catch (const std::exception& e) {
      ++attempts;
      result.failure = classify_failure(e, attempts);
    }
  }
}

void TrajectoryPool::account_robustness() {
  // Finisher thread only. The deltas since the last call feed the metrics.
  if (metrics_->registry == nullptr) return;
  const std::uint64_t fires = fault::FaultRegistry::instance().fires();
  if (fires > faults_seen_)
    metrics_->add(metrics_->faults_injected, fires - faults_seen_);
  faults_seen_ = fires;
  if (options_.cache != nullptr) {
    const std::uint64_t corrupt = options_.cache->stats().corrupt_entries;
    if (corrupt > corrupt_seen_)
      metrics_->add(metrics_->corrupt_entries, corrupt - corrupt_seen_);
    corrupt_seen_ = corrupt;
  }
}

void TrajectoryPool::watchdog_loop() {
  // Any stall_timeout_s window in which chunks wait or run but no trajectory
  // completes halts the jobs in the pool with StopReason::Stalled and a B102
  // diagnostic naming the busy workers whose heartbeats went silent. It only
  // ever *stops* jobs — it never unsticks a worker, so a stalled chunk still
  // returns before its job resolves.
  using clock = std::chrono::steady_clock;
  const auto timeout = std::chrono::duration<double>(options_.stall_timeout_s);
  const auto poll =
      std::chrono::duration<double>(std::min(options_.stall_timeout_s / 8.0, 0.05));
  std::vector<std::uint64_t> seen(width_, 0);
  std::uint64_t last_done = done_.load(std::memory_order_relaxed);
  auto last_progress = clock::now();
  std::unique_lock lock(mutex_);
  while (!closed_) {
    watch_cv_.wait_for(lock, poll);
    if (closed_) break;
    const std::uint64_t now_done = done_.load(std::memory_order_relaxed);
    bool waiting = false;
    for (const auto& [id, job] : jobs_)
      if (!job->halted() && (job->queued || job->in_flight > 0)) waiting = true;
    if (now_done != last_done || !waiting) {
      last_done = now_done;
      last_progress = clock::now();
      for (unsigned w = 0; w < width_; ++w)
        seen[w] = heartbeats_[w].beats.load(std::memory_order_relaxed);
      continue;
    }
    if (clock::now() - last_progress < timeout) continue;
    std::string silent;
    for (unsigned w = 0; w < width_; ++w)
      if (heartbeats_[w].busy.load(std::memory_order_relaxed) &&
          heartbeats_[w].beats.load(std::memory_order_relaxed) == seen[w])
        silent += (silent.empty() ? "" : ", ") + std::to_string(w);
    Diagnostic d;
    d.severity = Severity::Warning;
    d.code = "B102";
    d.message = "sweep watchdog: no trajectory progress for " +
                std::to_string(options_.stall_timeout_s) + "s; silent worker(s): " +
                (silent.empty() ? "(none — tasks not being claimed)" : silent);
    d.hint = "raise --stall-timeout if the workload legitimately pauses";
    warnings_.push_back(std::move(d));
    for (auto& [id, job] : jobs_)
      if (!job->finishing) halt_locked(*job, smc::StopReason::Stalled);
    last_progress = clock::now();
  }
}

}  // namespace fmtree::batch
