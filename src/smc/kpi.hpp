// Key performance indicators of a fault maintenance tree, estimated by
// statistical model checking (Monte-Carlo simulation with confidence
// intervals) — the analysis layer of the DSN'16 EI-joint study: system
// reliability, expected number of failures, expected cost, availability.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fmt/fmtree.hpp"
#include "fmtree/run_settings.hpp"
#include "smc/runner.hpp"
#include "util/stats.hpp"

namespace fmtree::smc {

/// Monte-Carlo analysis settings. The execution knobs every backend shares —
/// horizon, seed, threads, RunControl, telemetry — live in the embedded
/// fmtree::RunSettings base (their old field locations keep compiling:
/// `settings.seed`, `settings.horizon`, ... resolve to the base subobject).
/// A stop via `control` returns early over the completed trajectory prefix —
/// statistics stay exact for the streams they cover — and the report is
/// flagged `truncated`.
struct AnalysisSettings : RunSettings {
  std::uint64_t trajectories = 10000;
  double confidence = 0.95;
  /// Continuous discount rate for net-present-value cost reporting
  /// (KpiReport::npv_cost); 0 disables discounting.
  double discount_rate = 0.0;
  /// If > 0: keep simulating (in batches of `batch`) until the CI half-width
  /// of E[#failures] is <= target_relative_error * mean, or `trajectories`
  /// is reached; `trajectories` then acts as the budget cap.
  double target_relative_error = 0.0;
  std::uint64_t batch = 2048;
  /// Cap on the total number of sim::FailureRecord entries retained per
  /// collection when failure logs are recorded (expected_failures_curve);
  /// bounds memory on multi-million-trajectory runs. See
  /// sim::SimOptions::failure_log_cap for the truncation contract.
  std::uint64_t failure_log_cap = std::uint64_t{1} << 24;
};

/// The simulator options an analysis with `settings` runs over `horizon`
/// (bound_policy left unset: a TrajectoryKernel binds settings.policy).
/// smc::collect and the batch trajectory pool both build their options
/// here, so both draw the same events per trajectory stream.
sim::SimOptions sim_options(const AnalysisSettings& settings, double horizon,
                            bool record_failure_log = false);

/// The adaptive stopping rule (target_relative_error > 0), applied after
/// each round of `batch` trajectories to the failure counts folded so far.
struct AdaptiveCheck {
  /// CI half-width of E[#failures] relative to its mean; -1 while no CI
  /// exists (fewer than two trajectories or no failure yet).
  double relative_half_width = -1.0;
  bool converged = false;  ///< the half-width meets the target
};
/// smc::analyze and the batch trajectory pool both stop on this check, so a
/// pooled adaptive job stops after exactly the same round.
AdaptiveCheck adaptive_check(const RunningStats& failures,
                             const AnalysisSettings& settings);

/// Everything the case study reports, from one set of trajectories.
struct KpiReport {
  double horizon = 0.0;
  std::uint64_t trajectories = 0;
  /// True when a RunControl stopped the run early; `trajectories` then holds
  /// the completed prefix the statistics are exact over.
  bool truncated = false;
  StopReason stop_reason = StopReason::None;

  ConfidenceInterval reliability;       ///< P(no system failure in [0, horizon])
  ConfidenceInterval expected_failures; ///< E[#failures in [0, horizon]]
  ConfidenceInterval failures_per_year; ///< expected_failures / horizon
  ConfidenceInterval availability;      ///< E[uptime fraction]
  ConfidenceInterval total_cost;        ///< E[total cost over horizon]
  ConfidenceInterval cost_per_year;     ///< total_cost / horizon
  ConfidenceInterval npv_cost;          ///< E[discounted cost] (== total_cost at rate 0)

  fmt::CostBreakdown mean_cost;         ///< expectation of each component
  double mean_inspections = 0.0;        ///< rounds per trajectory
  double mean_repairs = 0.0;
  double mean_replacements = 0.0;

  /// E[system failures attributed to leaf i] (model.leaves() order).
  std::vector<double> failures_per_leaf;
  /// E[condition-based repairs of leaf i].
  std::vector<double> repairs_per_leaf;
};

/// Runs the Monte-Carlo analysis and aggregates all KPIs. Equivalent to
/// validate_settings + collecting trajectories + aggregate_kpis.
KpiReport analyze(const fmt::FaultMaintenanceTree& model,
                  const AnalysisSettings& settings);

/// Rejects nonsensical settings (non-positive horizon, zero trajectories,
/// confidence outside (0,1), a negative or NaN discount rate, an adaptive
/// target with batch == 0) with DomainError, before any worker starts.
/// Every analysis entry point calls this; other executors (the batch sweep
/// engine) share the same contract.
void validate_settings(const AnalysisSettings& settings);

/// Runs the trajectories an analysis with `settings` asks for over
/// `horizon`: `trajectories` of them, or rounds of `batch` until the
/// relative-error target on E[#failures] is met. One TrajectoryKernel built
/// from sim_options(settings) runs them on settings.threads workers, so the
/// engine, scripted policy, discount rate, RunControl and telemetry of the
/// settings all apply. Returns index-ordered summaries plus per-leaf totals;
/// with `record_failure_log`, per-trajectory failure logs ride along. Every
/// analysis entry point (KPIs, curves, MTTF, quantiles) runs through here.
/// Does not validate `settings`; throws ResourceLimitError when a stop left
/// no completed trajectory.
BatchResult collect(const fmt::FaultMaintenanceTree& model,
                    const AnalysisSettings& settings, double horizon,
                    bool record_failure_log = false);

/// Aggregates index-ordered trajectory summaries into the full KPI report.
/// The loop visits summaries strictly in trajectory-index order, so the
/// report depends only on the summaries themselves — never on how many
/// threads produced them or how the work was chunked. Alternative executors
/// (batch sweeps) reuse this to stay bit-identical with analyze(). Throws
/// ResourceLimitError when `batch` holds no completed trajectory.
KpiReport aggregate_kpis(const BatchResult& batch, const AnalysisSettings& settings);

/// The same over summaries kept outside `batch` (the trajectory pool's
/// storage); `batch` supplies the per-leaf totals and the stop state.
KpiReport aggregate_kpis(std::span<const TrajectorySummary> summaries,
                         const BatchResult& batch, const AnalysisSettings& settings);

/// One point of an estimated curve.
struct CurvePoint {
  double t = 0.0;
  ConfidenceInterval value;
};

/// Reliability curve: P(first failure > t) for each t in `grid`, from one
/// set of trajectories with horizon = max(grid). Wilson intervals.
std::vector<CurvePoint> reliability_curve(const fmt::FaultMaintenanceTree& model,
                                          const std::vector<double>& grid,
                                          const AnalysisSettings& settings);

/// Expected cumulative number of failures at each t in `grid`.
std::vector<CurvePoint> expected_failures_curve(const fmt::FaultMaintenanceTree& model,
                                                const std::vector<double>& grid,
                                                const AnalysisSettings& settings);

/// Mean time to first system failure. Trajectories that survive the horizon
/// are right-censored at it, making the estimate a lower bound; `censored`
/// reports how many.
struct MttfEstimate {
  ConfidenceInterval mttf;
  std::uint64_t censored = 0;
  std::uint64_t trajectories = 0;
};
MttfEstimate mean_time_to_failure(const fmt::FaultMaintenanceTree& model,
                                  const AnalysisSettings& settings);

/// Evenly spaced grid helper: n+1 points 0, h/n, ..., h.
std::vector<double> linspace_grid(double horizon, std::size_t n);

}  // namespace fmtree::smc
