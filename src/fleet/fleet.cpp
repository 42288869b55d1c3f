#include "fleet/fleet.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace fmtree::fleet {

batch::SweepPlan fleet_plan(const Corridor& corridor, const FleetOptions& options) {
  batch::SweepPlan plan;
  plan.threads = options.threads;
  plan.max_retries = options.max_retries;
  plan.stall_timeout_s = options.stall_timeout_s;
  plan.control = options.settings.control;
  plan.jobs.reserve(corridor.joints.size());
  for (const CorridorJoint& joint : corridor.joints) {
    batch::SweepJob job;
    job.label = joint.name;
    job.model = joint.model;
    job.settings = options.settings;
    job.settings.policy = options.policy;
    // Execution concerns are plan-level; a job-local control or telemetry
    // sink would also leak into nothing (run_sweep ignores them) — clear
    // them so the cache fingerprint story stays obvious.
    job.settings.control = nullptr;
    job.settings.telemetry = {};
    plan.jobs.push_back(std::move(job));
  }
  return plan;
}

FleetKpis aggregate_fleet(const Corridor& corridor,
                          std::span<const JointSummary> summaries,
                          const FleetOptions& options) {
  FleetKpis kpis;
  kpis.corridor_length_km = corridor.length_km();

  for (const JointSummary& joint : summaries) {
    const smc::KpiReport& r = joint.report;
    if (r.trajectories == 0) continue;  // failed shard: no data to sum
    ++kpis.joints;
    kpis.failures_per_year += r.failures_per_year.point;
    kpis.cost_per_year += r.cost_per_year.point;
    const double per_year = r.horizon > 0 ? 1.0 / r.horizon : 0.0;
    kpis.inspections_per_year += r.mean_inspections * per_year;
    kpis.repairs_per_year += r.mean_repairs * per_year;
    kpis.replacements_per_year += r.mean_replacements * per_year;
  }
  if (kpis.corridor_length_km > 0)
    kpis.cost_per_km_year = kpis.cost_per_year / kpis.corridor_length_km;

  // Crew demand: repairs ride along on inspection visits (condition-based
  // maintenance), so visits = inspection rounds + corrective call-outs
  // (one per expected system failure) + preventive replacement visits.
  kpis.crew_visits_per_year = kpis.inspections_per_year + kpis.failures_per_year +
                              kpis.replacements_per_year;
  kpis.crew_capacity_per_year = static_cast<double>(options.resources.crews) *
                                options.resources.visits_per_crew_year;
  if (kpis.crew_capacity_per_year > 0)
    kpis.crew_utilisation = kpis.crew_visits_per_year / kpis.crew_capacity_per_year;

  // Budget composition with the policy DSL: each joint runs its own copy of
  // the scripted budgets, so the corridor budget is joints x the annualised
  // refill of every refilling budget.
  if (options.policy) {
    double refill_per_year = 0.0;
    for (const lang::Budget& b : options.policy->budgets)
      if (b.refill_period > 0) refill_per_year += b.refill_amount / b.refill_period;
    kpis.budget_per_year = refill_per_year * static_cast<double>(kpis.joints);
    if (kpis.budget_per_year > 0)
      kpis.budget_utilisation = kpis.cost_per_year / kpis.budget_per_year;
  }

  // Worst-k by expected failures/yr, worst first, corridor order on ties.
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < summaries.size(); ++i)
    if (summaries[i].report.trajectories > 0) order.push_back(i);
  const std::size_t k = std::min(options.worst_k, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      const double fa = summaries[a].report.failures_per_year.point;
                      const double fb = summaries[b].report.failures_per_year.point;
                      return fa != fb ? fa > fb : a < b;
                    });
  order.resize(k);
  kpis.worst = std::move(order);
  return kpis;
}

FleetOutcome fold_fleet(const Corridor& corridor,
                        std::span<const batch::JobResult> jobs,
                        std::vector<Diagnostic> warnings,
                        const FleetOptions& options,
                        const obs::Telemetry& telemetry) {
  FleetOutcome fleet;
  fleet.warnings = std::move(warnings);
  fleet.joints.reserve(corridor.joints.size());
  for (std::size_t i = 0; i < corridor.joints.size(); ++i) {
    JointSummary summary;
    summary.name = corridor.joints[i].name;
    summary.scale = corridor.joints[i].scale;
    if (i < jobs.size()) {
      const batch::JobResult& job = jobs[i];
      if (job.state == batch::JobState::Done) {
        summary.report = job.report;
        ++(job.cache_hit ? fleet.cache_hits : fleet.cache_misses);
      } else if (job.state == batch::JobState::Failed) {
        ++fleet.jobs_failed;
        Diagnostic d;
        d.severity = Severity::Warning;
        d.code = "F101";
        d.message = "fleet shard '" + summary.name + "' failed [" +
                    job.failure.kind + "]: " + job.failure.message;
        d.hint = "the joint is excluded from the corridor aggregates";
        fleet.warnings.push_back(std::move(d));
      } else {
        fleet.truncated = true;
      }
    }
    fleet.joints.push_back(std::move(summary));
  }
  fleet.kpis = aggregate_fleet(corridor, fleet.joints, options);

  if (telemetry.metrics != nullptr) {
    obs::MetricsRegistry& m = *telemetry.metrics;
    m.add(m.counter("fleet.joints"), corridor.joints.size());
    m.add(m.counter("fleet.cache_hits"), fleet.cache_hits);
    m.add(m.counter("fleet.cache_misses"), fleet.cache_misses);
    m.add(m.counter("fleet.jobs_failed"), fleet.jobs_failed);
  }
  return fleet;
}

FleetOutcome analyze_fleet(const Corridor& corridor, const FleetOptions& options,
                           batch::ResultCache* cache,
                           const obs::Telemetry& telemetry) {
  batch::SweepOutcome outcome =
      batch::run_sweep(fleet_plan(corridor, options), cache, telemetry);
  return fold_fleet(corridor, outcome.results, std::move(outcome.warnings),
                    options, telemetry);
}

}  // namespace fmtree::fleet
