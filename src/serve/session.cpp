#include "serve/session.hpp"

#include "obs/metrics.hpp"
#include "smc/kpi.hpp"

namespace fmtree::serve {

namespace detail {

/// One deduplicated unit of work. Shared (shared_ptr) between every ticket
/// watching it, the in-flight index and the pool's callback (which keeps
/// `job`, borrowed by the pool, alive until the job resolves); all fields
/// are guarded by the session mutex.
struct JobEntry {
  batch::SweepJob job;
  std::string key_id;
  std::uint64_t pool_id = 0;
  int priority = 0;
  int interested = 0;  ///< watchers; the last one to leave cancels the job
  bool done = false;
  JobOutcome outcome;
};

/// The serve.* counter ids, defined here so the header does not pull in
/// obs/metrics.hpp. `valid` is false when no registry is attached.
struct ServeMetrics {
  obs::CounterId requests, rejected, jobs, dedup_hits, cache_hits, cancelled;
  bool valid = false;

  static ServeMetrics from(obs::MetricsRegistry* registry) {
    ServeMetrics ids;
    if (registry == nullptr) return ids;
    ids.requests = registry->counter("serve.requests");
    ids.rejected = registry->counter("serve.rejected");
    ids.jobs = registry->counter("serve.jobs");
    ids.dedup_hits = registry->counter("serve.dedup_hits");
    ids.cache_hits = registry->counter("serve.cache_hits");
    ids.cancelled = registry->counter("serve.cancelled");
    ids.valid = true;
    return ids;
  }
};

}  // namespace detail

using detail::JobEntry;
using detail::ServeMetrics;

bool Response::all_done() const noexcept {
  for (const JobOutcome& j : jobs)
    if (j.state != JobState::Done) return false;
  return true;
}

std::uint64_t Response::count(JobState s) const noexcept {
  std::uint64_t n = 0;
  for (const JobOutcome& j : jobs)
    if (j.state == s) ++n;
  return n;
}

// ---- Ticket -----------------------------------------------------------------

Ticket::Ticket(Ticket&& other) noexcept
    : session_(other.session_),
      id_(std::move(other.id_)),
      entries_(std::move(other.entries_)),
      detached_(other.detached_) {
  other.session_ = nullptr;
  other.detached_ = true;
}

Ticket& Ticket::operator=(Ticket&& other) noexcept {
  if (this != &other) {
    cancel();
    session_ = other.session_;
    id_ = std::move(other.id_);
    entries_ = std::move(other.entries_);
    detached_ = other.detached_;
    other.session_ = nullptr;
    other.detached_ = true;
  }
  return *this;
}

Ticket::~Ticket() { cancel(); }

bool Ticket::done() const {
  if (session_ == nullptr) return true;
  std::lock_guard lock(session_->mutex_);
  for (const auto& e : entries_)
    if (!e->done) return false;
  return true;
}

void Ticket::wait() {
  if (session_ == nullptr) return;
  std::unique_lock lock(session_->mutex_);
  session_->done_cv_.wait(lock, [&] {
    for (const auto& e : entries_)
      if (!e->done) return false;
    return true;
  });
}

bool Ticket::wait_for(double seconds) {
  if (session_ == nullptr) return true;
  std::unique_lock lock(session_->mutex_);
  return session_->done_cv_.wait_for(
      lock, std::chrono::duration<double>(seconds), [&] {
        for (const auto& e : entries_)
          if (!e->done) return false;
        return true;
      });
}

Response Ticket::take() {
  wait();
  Response response;
  response.id = id_;
  if (session_ == nullptr) return response;
  std::lock_guard lock(session_->mutex_);
  response.jobs.reserve(entries_.size());
  for (const auto& e : entries_) response.jobs.push_back(e->outcome);
  response.warnings = std::move(session_->warnings_);
  session_->warnings_.clear();
  response.stop_reason = session_->last_stop_reason_;
  return response;
}

void Ticket::cancel() {
  if (session_ == nullptr || detached_) return;
  detached_ = true;
  session_->release_interest(entries_);
}

// ---- Session ----------------------------------------------------------------

Session::Session(SessionConfig config) : config_(std::move(config)) {
  if (config_.cache != nullptr) {
    cache_ = config_.cache;
  } else {
    owned_cache_ = config_.cache_dir.empty()
                       ? std::make_unique<batch::ResultCache>(kCacheMemoryEntries)
                       : std::make_unique<batch::ResultCache>(config_.cache_dir,
                                                              kCacheMemoryEntries);
    cache_ = owned_cache_.get();
  }
  serve_metrics_ = std::make_unique<ServeMetrics>(
      ServeMetrics::from(config_.telemetry.metrics));
  progress_reporter_ = std::make_unique<obs::ProgressReporter>(
      [this](const obs::Progress& p) {
        {
          std::lock_guard lock(progress_mutex_);
          progress_snapshot_.progress = p;
          ++progress_snapshot_.generation;
        }
        // Forward to the server's own reporter (CLI --progress) if present;
        // it throttles again on its own interval.
        if (config_.telemetry.progress != nullptr)
          config_.telemetry.progress->update(p);
      },
      /*min_interval_seconds=*/0.2);
  obs::Telemetry telemetry = config_.telemetry;
  telemetry.progress = progress_reporter_.get();
  pool_ = std::make_unique<batch::TrajectoryPool>(batch::PoolOptions{
      .threads = config_.threads,
      .chunk = config_.chunk,
      .max_retries = config_.max_retries,
      .stall_timeout_s = config_.stall_timeout_s,
      .control = &drain_control_,
      .cache = cache_,
      .telemetry = telemetry});
  finisher_ = std::thread([this] { pool_->finish(/*until_idle=*/false); });
}

Session::~Session() { drain(); }

Session::ProgressSnapshot Session::progress() const {
  std::lock_guard lock(progress_mutex_);
  return progress_snapshot_;
}

Ticket Session::submit(const Request& request) {
  PreparedRequest prepared = prepare(request, config_.model_root);
  return submit_jobs(std::move(prepared.jobs), request.priority, request.id);
}

Ticket Session::submit_jobs(std::vector<batch::SweepJob> jobs, int priority,
                            std::string id) {
  if (jobs.empty())
    throw RequestError("R112", "request expands to no jobs");
  for (const batch::SweepJob& job : jobs) {
    try {
      smc::validate_settings(job.settings);
    } catch (const Error& e) {
      throw RequestError("R112", std::string("invalid settings: ") + e.what());
    }
  }
  std::vector<batch::CacheKey> keys;
  keys.reserve(jobs.size());
  for (const batch::SweepJob& job : jobs)
    keys.push_back(batch::kpi_cache_key(job.model, job.settings));

  std::unique_lock lock(mutex_);
  if (stopping_)
    throw RequestError("R122", "service is draining and accepts no new requests");
  const ServeMetrics& ids = *serve_metrics_;
  obs::MetricsRegistry* metrics = config_.telemetry.metrics;
  if (ids.valid) metrics->add(ids.requests);

  // Resolution pass: classify every job before touching any state, so an
  // admission rejection leaves the session exactly as it found it.
  enum class Kind : std::uint8_t { Hit, Attach, New };
  std::vector<Kind> kinds(jobs.size(), Kind::New);
  std::vector<std::optional<smc::KpiReport>> hits(jobs.size());
  std::size_t new_jobs = 0;
  std::map<std::string, std::size_t> new_in_request;  // dedup inside one request
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::string key_id = keys[i].id();
    if ((hits[i] = cache_->get(keys[i]))) {
      kinds[i] = Kind::Hit;
    } else if (inflight_.count(key_id) != 0 || new_in_request.count(key_id) != 0) {
      kinds[i] = Kind::Attach;
    } else {
      new_in_request.emplace(key_id, i);
      ++new_jobs;
    }
  }
  if (outstanding_ + new_jobs > config_.queue_limit) {
    if (ids.valid) metrics->add(ids.rejected);
    throw AdmissionError(
        "request needs " + std::to_string(new_jobs) + " queue slot(s) but only " +
        std::to_string(config_.queue_limit - outstanding_) + " of " +
        std::to_string(config_.queue_limit) + " are free");
  }

  // Commit pass: the request is now guaranteed to be accepted whole.
  Ticket ticket;
  ticket.session_ = this;
  ticket.id_ = std::move(id);
  ticket.entries_.reserve(jobs.size());
  std::map<std::string, std::shared_ptr<JobEntry>> created;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::string key_id = keys[i].id();
    if (kinds[i] == Kind::Hit) {
      auto entry = std::make_shared<JobEntry>();
      entry->key_id = key_id;
      entry->done = true;
      entry->outcome.label = jobs[i].label;
      entry->outcome.key = keys[i];
      entry->outcome.state = JobState::Done;
      entry->outcome.cache_hit = true;
      entry->outcome.report = *std::move(hits[i]);
      ticket.entries_.push_back(std::move(entry));
      if (ids.valid) metrics->add(ids.cache_hits);
      continue;
    }
    if (kinds[i] == Kind::Attach) {
      auto it = inflight_.find(key_id);
      std::shared_ptr<JobEntry> entry =
          it != inflight_.end() ? it->second : created.at(key_id);
      ++entry->interested;
      if (priority > entry->priority) {
        entry->priority = priority;
        pool_->raise_priority(entry->pool_id, priority);
      }
      ticket.entries_.push_back(std::move(entry));
      if (ids.valid) metrics->add(ids.dedup_hits);
      continue;
    }
    auto entry = std::make_shared<JobEntry>();
    entry->job = std::move(jobs[i]);
    entry->key_id = key_id;
    entry->priority = priority;
    entry->interested = 1;
    entry->outcome.label = entry->job.label;
    entry->outcome.key = keys[i];
    // The key minted above travels with the job: the pool neither hashes
    // the model again nor looks it up in the cache.
    entry->pool_id = pool_->submit(
        entry->job, keys[i], priority,
        [this, entry](batch::JobResult result, smc::StopReason reason) {
          resolve(*entry, std::move(result), reason);
        });
    inflight_.emplace(key_id, entry);
    created.emplace(key_id, entry);
    ++outstanding_;
    if (ids.valid) metrics->add(ids.jobs);
    ticket.entries_.push_back(std::move(entry));
  }
  return ticket;
}

void Session::release_interest(
    const std::vector<std::shared_ptr<JobEntry>>& entries) {
  std::lock_guard lock(mutex_);
  const ServeMetrics& ids = *serve_metrics_;
  for (const auto& entry : entries) {
    if (entry->done) continue;
    if (--entry->interested > 0) continue;
    // Last watcher gone: a queued job resolves at once, a running one at
    // the next trajectory boundary; its queue slot frees when it resolves.
    // It leaves the in-flight map now, so a new request for the same key
    // starts a fresh job instead of attaching to the cancelled one.
    erase_inflight(*entry);
    pool_->cancel(entry->pool_id);
    if (ids.valid) config_.telemetry.metrics->add(ids.cancelled);
  }
  done_cv_.notify_all();
}

void Session::resolve(JobEntry& entry, batch::JobResult result,
                      smc::StopReason reason) {
  std::vector<Diagnostic> warnings = pool_->take_warnings();
  std::lock_guard lock(mutex_);
  for (Diagnostic& d : warnings) warnings_.push_back(std::move(d));
  if (reason != smc::StopReason::None) last_stop_reason_ = reason;
  entry.done = true;
  entry.outcome = std::move(result);
  erase_inflight(entry);
  --outstanding_;
  done_cv_.notify_all();
}

void Session::erase_inflight(const JobEntry& entry) {
  const auto it = inflight_.find(entry.key_id);
  if (it != inflight_.end() && it->second.get() == &entry) inflight_.erase(it);
}

void Session::drain() {
  {
    std::lock_guard lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  // Every job still in the pool stops at the next trajectory boundary and
  // resolves through the finisher, which returns once none is left.
  drain_control_.request_stop();
  pool_->close(smc::StopReason::Interrupted);
  if (finisher_.joinable()) finisher_.join();
}

}  // namespace fmtree::serve
