// Maintenance optimization: sweep a policy dimension, estimate the yearly
// cost of each candidate, and locate the optimum — the machinery behind the
// paper's finding that the current EI-joint policy is close to cost-optimal.
#pragma once

#include <memory>
#include <vector>

#include "batch/result_cache.hpp"
#include "lang/policy.hpp"
#include "maintenance/policy.hpp"
#include "smc/kpi.hpp"

namespace fmtree::maintenance {

/// One evaluated policy on the cost curve.
struct PolicyEvaluation {
  MaintenancePolicy policy;
  smc::KpiReport kpis;

  double cost_per_year() const noexcept { return kpis.cost_per_year.point; }
};

struct SweepResult {
  std::vector<PolicyEvaluation> curve;  ///< in the order the candidates were given
  std::size_t best_index = 0;           ///< argmin of cost_per_year

  const PolicyEvaluation& best() const { return curve.at(best_index); }
};

/// Evaluates every candidate policy with the same settings (same seed, so
/// curves are comparable) and returns the cost curve plus the cost-optimal
/// candidate. Candidates must be non-empty.
///
/// All candidates are simulated over one shared trajectory pool
/// (batch::run_sweep), so the wall-clock cost is that of the total
/// trajectory count, not of the slowest candidate times the candidate
/// count. Results are bit-identical to evaluating each candidate with
/// smc::analyze. When `cache` is non-null, previously computed candidates
/// are served from it and fresh evaluations are stored back.
///
/// If settings.control stops the run, candidates that did not finish carry
/// kpis.truncated == true with default (zero) KPI values and are excluded
/// from the best-candidate selection.
SweepResult sweep_policies(const ModelFactory& factory,
                           const std::vector<MaintenancePolicy>& candidates,
                           const smc::AnalysisSettings& settings,
                           batch::ResultCache* cache = nullptr);

/// Evaluates scripted maintenance policies (compiled src/lang scripts) on
/// one shared base model: each candidate runs with its compiled policy in
/// the settings (the engines replace the model's built-in inspections with
/// the script's calendars), all over the same trajectory pool and cache
/// machinery as the MaintenancePolicy overload — so scripted and built-in
/// candidates can be compared on one cost curve. Labels and the returned
/// curve's MaintenancePolicy names are the scripts' policy names; the other
/// MaintenancePolicy fields are not meaningful for scripted candidates.
/// Scripted evaluations never share cache entries with built-in ones (the
/// compiled fingerprint is part of the settings fingerprint).
SweepResult sweep_policies(
    const fmt::FaultMaintenanceTree& model,
    const std::vector<std::shared_ptr<const lang::CompiledPolicy>>& scripts,
    const smc::AnalysisSettings& settings, batch::ResultCache* cache = nullptr);

/// Convenience: candidates that differ from `base` only in inspection
/// frequency (inspections per year, 0 = none). Names are derived.
std::vector<MaintenancePolicy> inspection_frequency_candidates(
    const MaintenancePolicy& base, const std::vector<double>& frequencies_per_year);

/// Result of a continuous refinement of the inspection frequency.
struct RefinedOptimum {
  double frequency = 0.0;      ///< inspections per year at the minimum found
  double cost_per_year = 0.0;
  std::size_t evaluations = 0;
};

/// Golden-section search over the inspection frequency in [lo, hi]
/// (inspections per year, lo > 0). The Monte-Carlo seed is fixed, making
/// the objective a deterministic function, but residual sampling noise of
/// ~CI-half-width remains — treat the result as a refinement of a grid
/// optimum, not a certificate. The cost curve must be unimodal over the
/// bracket for the search to be meaningful (true for the case studies).
/// `cache` (optional) is consulted per probe — a refinement that revisits a
/// bracket already swept on the grid reuses those evaluations for free.
RefinedOptimum refine_inspection_frequency(const ModelFactory& factory,
                                           const MaintenancePolicy& base, double lo,
                                           double hi,
                                           const smc::AnalysisSettings& settings,
                                           int iterations = 16,
                                           batch::ResultCache* cache = nullptr);

}  // namespace fmtree::maintenance
