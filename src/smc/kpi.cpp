#include "smc/kpi.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/tracer.hpp"
#include "util/error.hpp"

namespace fmtree::smc {

void validate_settings(const AnalysisSettings& s) {
  if (!(s.horizon > 0)) throw DomainError("analysis horizon must be positive");
  if (s.trajectories == 0) throw DomainError("need at least one trajectory");
  if (!(s.confidence > 0 && s.confidence < 1))
    throw DomainError("confidence must lie in (0,1)");
  if (!(s.discount_rate >= 0)) throw DomainError("discount rate must be >= 0");
  if (s.target_relative_error > 0 && s.batch == 0)
    throw DomainError("adaptive runs need a positive batch size");
}

sim::SimOptions sim_options(const AnalysisSettings& s, double horizon,
                            bool record_failure_log) {
  sim::SimOptions opts;
  static_cast<RunSettings&>(opts) = s;  // horizon overridden below
  opts.horizon = horizon;
  opts.discount_rate = s.discount_rate;
  opts.record_failure_log = record_failure_log;
  opts.failure_log_cap = s.failure_log_cap;
  return opts;
}

AdaptiveCheck adaptive_check(const RunningStats& failures, const AnalysisSettings& s) {
  const bool have_ci = failures.count() >= 2 && failures.mean() > 0;
  if (!have_ci) return {};
  const double half = normal_quantile(0.5 + s.confidence / 2.0) * failures.std_error();
  return {half / failures.mean(), half <= s.target_relative_error * failures.mean()};
}

namespace {

void require_completed(std::uint64_t completed, StopReason reason) {
  if (completed == 0)
    throw ResourceLimitError(
        "run stopped (" + std::string(stop_reason_name(reason)) +
            ") before any trajectory completed",
        {});
}

ConfidenceInterval scale(const ConfidenceInterval& ci, double factor) {
  return {ci.point * factor, ci.lo * factor, ci.hi * factor, ci.confidence};
}

}  // namespace

BatchResult collect(const fmt::FaultMaintenanceTree& model, const AnalysisSettings& s,
                    double horizon, bool record_failure_log) {
  auto build_span = obs::maybe_span(s.telemetry.tracer, "build");
  const TrajectoryKernel kernel(model, sim_options(s, horizon, record_failure_log));
  build_span.close();
  obs::MetricsRegistry* metrics = s.telemetry.metrics;
  const obs::CounterId batches_counter =
      metrics != nullptr ? metrics->counter("smc.batches") : obs::CounterId{};
  auto simulate_span = obs::maybe_span(s.telemetry.tracer, "simulate");

  if (s.target_relative_error <= 0) {
    if (metrics != nullptr) metrics->add(batches_counter);
    BatchResult all =
        run_parallel(kernel, s.threads, s.seed, 0, s.trajectories, s.control);
    require_completed(all.completed, all.stop_reason);
    return all;
  }

  BatchResult all;
  all.failures_per_leaf.assign(kernel.num_leaves(), 0);
  all.repairs_per_leaf.assign(kernel.num_leaves(), 0);
  RunningStats failures;
  while (all.summaries.size() < s.trajectories) {
    const std::uint64_t todo =
        std::min<std::uint64_t>(s.batch, s.trajectories - all.summaries.size());
    BatchResult batch =
        run_parallel(kernel, s.threads, s.seed, all.summaries.size(), todo, s.control);
    if (metrics != nullptr) metrics->add(batches_counter);
    for (const TrajectorySummary& t : batch.summaries)
      failures.add(static_cast<double>(t.failures));
    all.summaries.insert(all.summaries.end(), batch.summaries.begin(),
                         batch.summaries.end());
    if (record_failure_log) {
      all.failure_logs.insert(all.failure_logs.end(),
                              std::make_move_iterator(batch.failure_logs.begin()),
                              std::make_move_iterator(batch.failure_logs.end()));
    }
    all.failure_logs_truncated |= batch.failure_logs_truncated;
    for (std::size_t i = 0; i < all.failures_per_leaf.size(); ++i) {
      all.failures_per_leaf[i] += batch.failures_per_leaf[i];
      all.repairs_per_leaf[i] += batch.repairs_per_leaf[i];
    }
    if (batch.truncated) {
      all.truncated = true;
      all.stop_reason = batch.stop_reason;
      break;
    }
    const AdaptiveCheck check = adaptive_check(failures, s);
    // The CI-trend snapshot after every adaptive batch: how tight the
    // estimate is versus the requested target, alongside raw throughput.
    if (obs::ProgressReporter* progress = s.telemetry.progress) {
      obs::Progress p;
      p.phase = "simulate";
      p.done = all.summaries.size();
      p.total = s.trajectories;
      p.ci_half_width = check.relative_half_width;
      p.ci_target = s.target_relative_error;
      progress->update(p);
    }
    if (check.converged) break;
  }
  all.completed = all.summaries.size();
  require_completed(all.completed, all.stop_reason);
  return all;
}

std::vector<double> linspace_grid(double horizon, std::size_t n) {
  if (!(horizon > 0) || n == 0) throw DomainError("bad linspace_grid arguments");
  std::vector<double> grid;
  grid.reserve(n + 1);
  for (std::size_t i = 0; i <= n; ++i)
    grid.push_back(horizon * static_cast<double>(i) / static_cast<double>(n));
  return grid;
}

KpiReport aggregate_kpis(const BatchResult& batch, const AnalysisSettings& settings) {
  return aggregate_kpis(batch.summaries, batch, settings);
}

KpiReport aggregate_kpis(std::span<const TrajectorySummary> summaries,
                         const BatchResult& batch, const AnalysisSettings& settings) {
  require_completed(summaries.size(), batch.stop_reason);
  const auto n = static_cast<double>(summaries.size());
  auto aggregate_span = obs::maybe_span(settings.telemetry.tracer, "aggregate");

  KpiReport report;
  report.horizon = settings.horizon;
  report.trajectories = summaries.size();
  report.truncated = batch.truncated;
  report.stop_reason = batch.stop_reason;

  RunningStats failures, availability, total_cost, npv_cost;
  RunningStats inspections, repairs, replacements;
  fmt::CostBreakdown cost_sum;
  std::uint64_t survived = 0;
  for (const TrajectorySummary& t : summaries) {
    failures.add(static_cast<double>(t.failures));
    availability.add(1.0 - t.downtime / settings.horizon);
    total_cost.add(t.cost.total());
    npv_cost.add(t.discounted_total);
    inspections.add(static_cast<double>(t.inspections));
    repairs.add(static_cast<double>(t.repairs));
    replacements.add(static_cast<double>(t.replacements));
    cost_sum += t.cost;
    if (t.first_failure_time > settings.horizon) ++survived;
  }

  report.reliability =
      wilson_interval(survived, summaries.size(), settings.confidence);
  report.expected_failures = failures.mean_ci(settings.confidence);
  report.failures_per_year = scale(report.expected_failures, 1.0 / settings.horizon);
  report.availability = availability.mean_ci(settings.confidence);
  report.total_cost = total_cost.mean_ci(settings.confidence);
  report.cost_per_year = scale(report.total_cost, 1.0 / settings.horizon);
  report.npv_cost = npv_cost.mean_ci(settings.confidence);
  report.mean_cost = cost_sum / n;
  report.mean_inspections = inspections.mean();
  report.mean_repairs = repairs.mean();
  report.mean_replacements = replacements.mean();

  report.failures_per_leaf.reserve(batch.failures_per_leaf.size());
  for (std::uint64_t f : batch.failures_per_leaf)
    report.failures_per_leaf.push_back(static_cast<double>(f) / n);
  report.repairs_per_leaf.reserve(batch.repairs_per_leaf.size());
  for (std::uint64_t r : batch.repairs_per_leaf)
    report.repairs_per_leaf.push_back(static_cast<double>(r) / n);
  return report;
}

KpiReport analyze(const fmt::FaultMaintenanceTree& model,
                  const AnalysisSettings& settings) {
  validate_settings(settings);
  const BatchResult batch = collect(model, settings, settings.horizon);
  return aggregate_kpis(batch, settings);
}

std::vector<CurvePoint> reliability_curve(const fmt::FaultMaintenanceTree& model,
                                          const std::vector<double>& grid,
                                          const AnalysisSettings& settings) {
  validate_settings(settings);
  if (grid.empty()) throw DomainError("empty grid");
  AnalysisSettings s = settings;
  s.horizon = *std::max_element(grid.begin(), grid.end());
  if (!(s.horizon > 0)) s.horizon = settings.horizon;
  const BatchResult batch = collect(model, s, s.horizon);
  auto aggregate_span = obs::maybe_span(settings.telemetry.tracer, "aggregate");

  // Sorting the first-failure times lets each grid point be answered with a
  // binary search instead of a pass over all trajectories.
  std::vector<double> first_failures;
  first_failures.reserve(batch.summaries.size());
  for (const TrajectorySummary& t : batch.summaries)
    first_failures.push_back(t.first_failure_time);
  std::sort(first_failures.begin(), first_failures.end());

  std::vector<CurvePoint> out;
  out.reserve(grid.size());
  for (double t : grid) {
    const auto it =
        std::upper_bound(first_failures.begin(), first_failures.end(), t);
    const auto surviving = static_cast<std::uint64_t>(first_failures.end() - it);
    out.push_back(CurvePoint{
        t, wilson_interval(surviving, first_failures.size(), settings.confidence)});
  }
  return out;
}

std::vector<CurvePoint> expected_failures_curve(const fmt::FaultMaintenanceTree& model,
                                                const std::vector<double>& grid,
                                                const AnalysisSettings& settings) {
  validate_settings(settings);
  if (grid.empty()) throw DomainError("empty grid");
  const double horizon = *std::max_element(grid.begin(), grid.end());
  if (!(horizon > 0)) throw DomainError("grid needs a positive maximum");

  // Needs per-failure timestamps, so collect with the failure log enabled
  // and bucket counts per grid point. Runs through collect() under the
  // full settings contract (threads, batch, target_relative_error), like
  // analyze(); bucketing iterates trajectories in index order, so the
  // statistics are bit-identical at any thread count.
  const BatchResult batch =
      collect(model, settings, horizon, /*record_failure_log=*/true);
  if (batch.failure_logs_truncated)
    throw ResourceLimitError(
        "failure-log cap exceeded while estimating the failures curve; raise "
        "AnalysisSettings::failure_log_cap or reduce the trajectory count",
        {.iterations = batch.completed, .residual = 0.0, .states = 0});
  auto aggregate_span = obs::maybe_span(settings.telemetry.tracer, "aggregate");

  std::vector<double> sorted_grid = grid;
  std::sort(sorted_grid.begin(), sorted_grid.end());

  std::vector<RunningStats> counts(grid.size());
  std::vector<double> times;
  for (const std::vector<sim::FailureRecord>& log : batch.failure_logs) {
    times.clear();
    times.reserve(log.size());
    for (const sim::FailureRecord& f : log) times.push_back(f.time);
    std::sort(times.begin(), times.end());
    for (std::size_t g = 0; g < sorted_grid.size(); ++g) {
      const auto it = std::upper_bound(times.begin(), times.end(), sorted_grid[g]);
      counts[g].add(static_cast<double>(it - times.begin()));
    }
  }
  std::vector<CurvePoint> out;
  out.reserve(grid.size());
  for (std::size_t g = 0; g < sorted_grid.size(); ++g)
    out.push_back(CurvePoint{sorted_grid[g], counts[g].mean_ci(settings.confidence)});
  return out;
}

MttfEstimate mean_time_to_failure(const fmt::FaultMaintenanceTree& model,
                                  const AnalysisSettings& settings) {
  validate_settings(settings);
  const BatchResult batch = collect(model, settings, settings.horizon);
  RunningStats ttf;
  std::uint64_t censored = 0;
  for (const TrajectorySummary& t : batch.summaries) {
    if (t.first_failure_time > settings.horizon) {
      ttf.add(settings.horizon);
      ++censored;
    } else {
      ttf.add(t.first_failure_time);
    }
  }
  return MttfEstimate{ttf.mean_ci(settings.confidence), censored,
                      batch.summaries.size()};
}

}  // namespace fmtree::smc
