#include "smc/runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "util/error.hpp"

namespace fmtree::smc {

namespace {

/// Metric handles of one run; registered up front (idempotent name
/// lookups) so the worker loop touches nothing but dense local arrays.
struct RunMetricIds {
  obs::CounterId trajectories, events, failures, repairs, inspections,
      replacements, log_records_dropped;
  obs::HistogramId events_per_trajectory;
};

RunMetricIds register_run_metrics(obs::MetricsRegistry& registry) {
  RunMetricIds ids;
  ids.trajectories = registry.counter("smc.trajectories");
  ids.events = registry.counter("smc.events");
  ids.failures = registry.counter("smc.failures");
  ids.repairs = registry.counter("smc.repairs");
  ids.inspections = registry.counter("smc.inspections");
  ids.replacements = registry.counter("smc.replacements");
  ids.log_records_dropped = registry.counter("smc.failure_log_records_dropped");
  ids.events_per_trajectory =
      registry.histogram("smc.events_per_trajectory", 0.0, 1024.0, 64);
  return ids;
}

unsigned resolve_threads(unsigned threads) {
  return threads != 0 ? threads : std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace

TrajectoryKernel::TrajectoryKernel(const fmt::FaultMaintenanceTree& model,
                                   const sim::SimOptions& opts)
    : opts_(opts) {
  const fmt::FaultMaintenanceTree* simulated = &model;
  if (opts_.policy) {
    // A scripted policy runs on the transform whose inspection modules are
    // the script's calendars, with the rules bound to that model.
    simulated = &transformed_.emplace(lang::apply_policy(*opts_.policy, model));
    opts_.bound_policy = &bound_.emplace(lang::bind_policy(*opts_.policy, *simulated));
  }
  select_engine(*simulated, nullptr);
}

TrajectoryKernel::TrajectoryKernel(const sim::FmtSimulator& simulator,
                                   const sim::SimOptions& opts)
    : opts_(opts) {
  select_engine(simulator.model(), &simulator);
}

void TrajectoryKernel::select_engine(const fmt::FaultMaintenanceTree& simulated,
                                     const sim::FmtSimulator* simulator) {
  if (opts_.trace != nullptr)
    throw DomainError("traces are per-trajectory; run the simulator directly");
  num_leaves_ = simulated.num_ebes();
  if (resolve_engine(opts_.engine) == Engine::Batch) {
    executor_ = std::make_unique<const sim::BatchExecutor>(simulated);
    unit_ = opts_.lane_width != 0 ? opts_.lane_width
                                  : sim::BatchExecutor::kDefaultLaneWidth;
  } else if (simulator != nullptr) {
    simulator_ = simulator;
  } else {
    owned_simulator_ = std::make_unique<const sim::FmtSimulator>(simulated);
    simulator_ = owned_simulator_.get();
  }
}

std::span<sim::TrajectoryResult> TrajectoryKernel::run_unit(
    std::uint64_t seed, std::uint64_t first, std::uint64_t max, Workspace& ws,
    TrajectorySummary* out, LeafTotals& leaves) const {
  std::span<sim::TrajectoryResult> results;
  if (executor_ != nullptr) {
    // Trajectory identity lives in the counter-based streams, so how a range
    // is cut into lane blocks cannot affect any result bit.
    const auto n = static_cast<std::uint32_t>(std::min(unit_, max));
    executor_->run(seed, first, n, opts_, ws.batch);
    results = {ws.batch.results.data(), n};
  } else {
    ws.result = simulator_->run(RandomStream(seed, first), opts_, ws.scalar);
    results = {&ws.result, 1};
  }
  for (const sim::TrajectoryResult& r : results) {
    TrajectorySummary& s = *out++;
    s.first_failure_time = r.first_failure_time;
    s.failures = static_cast<std::uint32_t>(r.failures);
    s.downtime = r.downtime;
    s.cost = r.cost;
    s.discounted_total = r.discounted_cost.total();
    s.inspections = static_cast<std::uint32_t>(r.inspections);
    s.repairs = static_cast<std::uint32_t>(r.repairs);
    s.replacements = static_cast<std::uint32_t>(r.replacements);
    for (std::size_t leaf = 0; leaf < num_leaves_; ++leaf) {
      leaves.failures[leaf] += r.failures_per_leaf[leaf];
      leaves.repairs[leaf] += r.repairs_per_leaf[leaf];
    }
  }
  return results;
}

BatchResult run_parallel(const TrajectoryKernel& kernel, unsigned threads,
                         std::uint64_t seed, std::uint64_t first, std::uint64_t count,
                         const RunControl* control) {
  const sim::SimOptions& opts = kernel.options();
  obs::MetricsRegistry* metrics = opts.telemetry.metrics;
  obs::ProgressReporter* progress = opts.telemetry.progress;
  const RunMetricIds metric_ids =
      metrics != nullptr ? register_run_metrics(*metrics) : RunMetricIds{};
  const std::uint64_t unit = kernel.unit();
  const std::uint64_t units = (count + unit - 1) / unit;
  const unsigned workers = static_cast<unsigned>(std::min<std::uint64_t>(
      resolve_threads(threads), std::max<std::uint64_t>(units, 1)));

  BatchResult out;
  out.summaries.resize(count);
  if (opts.record_failure_log) out.failure_logs.resize(count);
  std::vector<LeafTotals> leaves(workers);
  for (LeafTotals& l : leaves) l.reset(kernel.num_leaves());

  std::atomic<std::uint64_t> next{0};  // the next unit to claim
  std::atomic<std::uint64_t> done{0};  // trajectories completed (progress only)
  std::atomic<StopReason> stop{StopReason::None};
  std::atomic<bool> failed{false};
  std::exception_ptr error;  // written by the worker that set `failed`

  // Failure-log memory cap: a shared budget of records. A trajectory whose
  // log does not fit is delivered without its log and the batch flagged.
  std::atomic<std::int64_t> log_budget{
      static_cast<std::int64_t>(std::min<std::uint64_t>(
          opts.failure_log_cap, std::uint64_t{1} << 62))};
  std::atomic<bool> logs_truncated{false};

  auto work = [&](unsigned w) {
    TrajectoryKernel::Workspace ws;  // reused across all of this worker's units
    obs::LocalMetrics local =
        metrics != nullptr ? metrics->local() : obs::LocalMetrics{};
    std::uint64_t polls = 0;
    const auto on_unit = [&](std::uint64_t index,
                             std::span<sim::TrajectoryResult> results) {
      for (std::size_t k = 0; k < results.size(); ++k) {
        sim::TrajectoryResult& r = results[k];
        if (opts.record_failure_log) {
          const auto need = static_cast<std::int64_t>(r.failure_log.size());
          if (need == 0 ||
              log_budget.fetch_sub(need, std::memory_order_relaxed) >= need) {
            out.failure_logs[index - first + k] = std::move(r.failure_log);
          } else {
            log_budget.fetch_add(need, std::memory_order_relaxed);
            logs_truncated.store(true, std::memory_order_relaxed);
            local.add(metric_ids.log_records_dropped, static_cast<std::uint64_t>(need));
          }
        }
        if (metrics != nullptr) {
          local.add(metric_ids.trajectories);
          local.add(metric_ids.events, r.events);
          local.add(metric_ids.failures, r.failures);
          local.add(metric_ids.repairs, r.repairs);
          local.add(metric_ids.inspections, r.inspections);
          local.add(metric_ids.replacements, r.replacements);
          local.observe(metric_ids.events_per_trajectory, static_cast<double>(r.events));
        }
      }
      if (progress == nullptr) return;
      done.fetch_add(results.size(), std::memory_order_relaxed);
      // The steady_clock read inside due() costs ~20 ns; polling once per 32
      // trajectories keeps it out of the per-trajectory budget entirely.
      if ((polls += results.size()) < 32) return;
      polls = 0;
      if (progress->due()) {
        obs::Progress p;
        p.phase = "simulate";
        p.done = first + done.load(std::memory_order_relaxed);
        p.total = first + count;
        progress->update(p);
      }
    };
    try {
      // Stops are checked before a claim, never between a claim and its
      // unit, so the claimed units are exactly the completed ones.
      while (!failed.load(std::memory_order_relaxed) &&
             stop.load(std::memory_order_acquire) == StopReason::None) {
        if (control != nullptr) {
          const std::uint64_t claimed =
              std::min(next.load(std::memory_order_relaxed) * unit, count);
          const StopReason r = control->should_stop(first + claimed);
          if (r != StopReason::None) {
            StopReason expected = StopReason::None;
            stop.compare_exchange_strong(expected, r, std::memory_order_acq_rel);
            break;
          }
        }
        const std::uint64_t u = next.fetch_add(1, std::memory_order_relaxed);
        if (u >= units) break;
        const std::uint64_t begin = u * unit;
        kernel.run(seed, first + begin, std::min(unit, count - begin), ws,
                   &out.summaries[begin], leaves[w], [] { return false; }, on_unit);
      }
    } catch (...) {
      if (!failed.exchange(true, std::memory_order_acq_rel))
        error = std::current_exception();
    }
    if (metrics != nullptr) metrics->merge(local);
  };

  if (workers == 1) {
    work(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) pool.emplace_back(work, w);
    for (std::thread& t : pool) t.join();
  }
  if (error) std::rethrow_exception(error);

  out.completed = std::min(std::min(next.load(), units) * unit, count);
  out.truncated = out.completed < count;
  out.stop_reason = out.truncated ? stop.load() : StopReason::None;
  out.failure_logs_truncated = logs_truncated.load();
  out.summaries.resize(out.completed);
  if (opts.record_failure_log) out.failure_logs.resize(out.completed);
  out.failures_per_leaf.assign(kernel.num_leaves(), 0);
  out.repairs_per_leaf.assign(kernel.num_leaves(), 0);
  for (const LeafTotals& l : leaves) {
    for (std::size_t leaf = 0; leaf < kernel.num_leaves(); ++leaf) {
      out.failures_per_leaf[leaf] += l.failures[leaf];
      out.repairs_per_leaf[leaf] += l.repairs[leaf];
    }
  }
  return out;
}

ParallelRunner::ParallelRunner(const sim::FmtSimulator& simulator, unsigned threads)
    : simulator_(simulator), threads_(resolve_threads(threads)) {}

BatchResult ParallelRunner::run(std::uint64_t seed, std::uint64_t first,
                                std::uint64_t count, const sim::SimOptions& opts,
                                const RunControl* control) const {
  return run_parallel(TrajectoryKernel(simulator_, opts), threads_, seed, first, count,
                      control);
}

}  // namespace fmtree::smc
