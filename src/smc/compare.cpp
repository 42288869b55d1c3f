#include "smc/compare.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace fmtree::smc {

PairedComparison compare_models(const fmt::FaultMaintenanceTree& a,
                                const fmt::FaultMaintenanceTree& b,
                                const AnalysisSettings& settings) {
  validate_settings(settings);
  const sim::SimOptions opts = sim_options(settings, settings.horizon);
  const TrajectoryKernel kernel_a(a, opts);
  const TrajectoryKernel kernel_b(b, opts);

  // Same (seed, stream) per index: trajectory i of both variants experiences
  // the same random draws in the same order as long as their executions
  // agree, which is what cancels shared noise. B runs over A's delivered
  // prefix, so a stop leaves both on the same streams.
  const BatchResult ra = run_parallel(kernel_a, settings.threads, settings.seed, 0,
                                      settings.trajectories, settings.control);
  const BatchResult rb = run_parallel(kernel_b, settings.threads, settings.seed, 0,
                                      ra.completed, settings.control);
  const std::size_t n = rb.summaries.size();
  if (n == 0)
    throw ResourceLimitError(
        "comparison stopped (" +
            std::string(stop_reason_name(rb.truncated ? rb.stop_reason
                                                      : ra.stop_reason)) +
            ") before any trajectory pair completed",
        {});

  RunningStats failures, cost, downtime;
  for (std::size_t i = 0; i < n; ++i) {
    failures.add(static_cast<double>(ra.summaries[i].failures) -
                 static_cast<double>(rb.summaries[i].failures));
    cost.add(ra.summaries[i].cost.total() - rb.summaries[i].cost.total());
    downtime.add(ra.summaries[i].downtime - rb.summaries[i].downtime);
  }
  PairedComparison out;
  out.failures_diff = failures.mean_ci(settings.confidence);
  out.cost_diff = cost.mean_ci(settings.confidence);
  out.downtime_diff = downtime.mean_ci(settings.confidence);
  out.trajectories = n;
  return out;
}

namespace {

void check_probabilities(const std::vector<double>& probabilities) {
  if (probabilities.empty()) throw DomainError("need at least one probability");
  for (double p : probabilities)
    if (!(p >= 0 && p <= 1)) throw DomainError("quantile probability outside [0,1]");
}

}  // namespace

std::vector<double> failure_time_quantiles(const fmt::FaultMaintenanceTree& model,
                                           const std::vector<double>& probabilities,
                                           const AnalysisSettings& settings) {
  validate_settings(settings);
  check_probabilities(probabilities);
  return failure_time_quantiles(collect(model, settings, settings.horizon).summaries,
                                probabilities);
}

std::vector<double> failure_time_quantiles(std::span<const TrajectorySummary> summaries,
                                           const std::vector<double>& probabilities) {
  check_probabilities(probabilities);
  if (summaries.empty()) throw DomainError("quantiles need at least one trajectory");
  std::vector<double> times;
  times.reserve(summaries.size());
  for (const TrajectorySummary& t : summaries)
    times.push_back(t.first_failure_time);  // +inf for survivors
  std::sort(times.begin(), times.end());

  std::vector<double> out;
  out.reserve(probabilities.size());
  for (double p : probabilities) {
    const double pos = p * static_cast<double>(times.size() - 1);
    const auto idx = static_cast<std::size_t>(pos);
    const double lo = times[idx];
    const double hi = times[std::min(idx + 1, times.size() - 1)];
    if (std::isinf(lo) || std::isinf(hi)) {
      out.push_back(std::numeric_limits<double>::infinity());
    } else {
      const double frac = pos - static_cast<double>(idx);
      out.push_back(lo * (1 - frac) + hi * frac);
    }
  }
  return out;
}

}  // namespace fmtree::smc
