// Paired comparison of two FMT variants under common random numbers, and
// quantiles of the time-to-failure distribution.
//
// Comparing two maintenance policies with independent runs wastes most of
// the sample budget on noise both variants share (the same degradation luck).
// Running trajectory i of both variants from the same RandomStream(seed, i)
// and estimating the per-trajectory *difference* cancels that shared noise,
// giving far tighter confidence intervals on "which policy is better".
#pragma once

#include <span>
#include <vector>

#include "fmt/fmtree.hpp"
#include "smc/kpi.hpp"

namespace fmtree::smc {

/// Paired difference estimates: positive means A exceeds B.
struct PairedComparison {
  ConfidenceInterval failures_diff;  ///< E[failures_A - failures_B]
  ConfidenceInterval cost_diff;      ///< E[cost_A - cost_B]
  ConfidenceInterval downtime_diff;  ///< E[downtime_A - downtime_B]
  std::uint64_t trajectories = 0;

  /// True iff the CI on the failure difference excludes zero.
  bool failures_significantly_different() const noexcept {
    return !failures_diff.contains(0.0);
  }
  bool cost_significantly_different() const noexcept {
    return !cost_diff.contains(0.0);
  }
};

/// Runs both models on identical random streams and returns paired
/// difference CIs (A minus B) over settings.trajectories pairs. The
/// settings' engine, scripted policy, discount rate, RunControl and
/// telemetry apply to both runs; target_relative_error does not. A stop
/// pairs the delivered prefix (`trajectories` says how many) and throws
/// ResourceLimitError when no pair completed.
PairedComparison compare_models(const fmt::FaultMaintenanceTree& a,
                                const fmt::FaultMaintenanceTree& b,
                                const AnalysisSettings& settings);

/// Quantiles of the time-to-first-failure distribution, from the
/// trajectories smc::collect runs for `settings`. A requested quantile that
/// falls beyond the observed horizon (because too many trajectories
/// survive) is reported as +infinity.
std::vector<double> failure_time_quantiles(const fmt::FaultMaintenanceTree& model,
                                           const std::vector<double>& probabilities,
                                           const AnalysisSettings& settings);

/// The same quantiles over trajectories already run, e.g. the ones an
/// analysis aggregated into its KPI report. Throws DomainError when
/// `summaries` is empty.
std::vector<double> failure_time_quantiles(std::span<const TrajectorySummary> summaries,
                                           const std::vector<double>& probabilities);

}  // namespace fmtree::smc
