// Discrete-event execution of the full fault-maintenance-tree semantics.
//
// Semantics implemented (matching the FMT formalism):
//  * each leaf degrades through its phases; phase sojourn times are sampled
//    from the leaf's DegradationModel and divided by the leaf's current
//    acceleration factor;
//  * RDEP: while a rate dependency's trigger event holds, its dependents'
//    factors are multiplied in; a factor change mid-phase rescales the
//    *remaining* sojourn time (remaining' = remaining * old/new);
//  * inspections fire periodically; each non-failed target at/past its
//    threshold phase is repaired (reset to phase 1, fresh sample, repair
//    cost booked). Failed leaves are not repairable by inspection;
//  * replacements fire periodically and renew their targets unconditionally
//    (including failed ones);
//  * when the top event rises, a failure is counted; if corrective
//    maintenance is enabled, the whole system is renewed `delay` time units
//    later. Time with the top event true is downtime;
//  * all costs accrue into a CostBreakdown.
//
// Performance architecture: the boolean structure is evaluated incrementally
// (GateEvaluator — O(changed region) per leaf flip instead of O(nodes) per
// event), and all per-trajectory mutable state lives in a reusable
// SimWorkspace so running millions of trajectories allocates nothing in
// steady state. Both are observationally equivalent to the straightforward
// implementation: the random-draw sequence of a (seed, stream) pair is
// unchanged, so every result is bit-for-bit identical.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "fmt/fmtree.hpp"
#include "fmtree/run_settings.hpp"
#include "lang/runtime.hpp"
#include "sim/event_queue.hpp"
#include "sim/gate_eval.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"

namespace fmtree::sim {

namespace detail {
/// Tagged event payload of the FMT executor's queue.
struct Ev {
  enum class Kind : std::uint8_t { Phase, Inspect, Replace, CorrectiveDone, RepairDone };
  Kind kind = Kind::Phase;
  std::uint32_t index = 0;  // leaf index or module index
};
}  // namespace detail

/// One system-level failure during a trajectory.
struct FailureRecord {
  double time = 0.0;
  /// Leaf index (model.leaves() order) whose phase transition triggered the
  /// top event — the proximate cause used for incident attribution.
  std::uint32_t cause_leaf = 0;
};

struct TrajectoryResult {
  double horizon = 0.0;
  /// Time of the first top-event failure; +infinity if none before horizon.
  double first_failure_time = std::numeric_limits<double>::infinity();
  std::uint64_t failures = 0;
  double downtime = 0.0;
  fmt::CostBreakdown cost;
  /// Net-present-value costs: each accrual weighted by exp(-r * t) with
  /// r = SimOptions::discount_rate. Equals `cost` when the rate is zero.
  fmt::CostBreakdown discounted_cost;
  std::uint64_t inspections = 0;   ///< inspection rounds performed
  std::uint64_t repairs = 0;       ///< condition-based repair actions
  std::uint64_t replacements = 0;  ///< planned replacement rounds
  std::uint64_t events = 0;        ///< discrete events processed (perf metric)
  /// Per-leaf count of condition-based repairs (model.leaves() order).
  std::vector<std::uint64_t> repairs_per_leaf;
  /// Per-leaf count of system failures attributed to the leaf.
  std::vector<std::uint64_t> failures_per_leaf;
  /// Filled when SimOptions::record_failure_log is set.
  std::vector<FailureRecord> failure_log;

  bool survived() const noexcept {
    return first_failure_time > horizon;
  }
};

/// Per-run simulator options. Embeds fmtree::RunSettings: the simulator
/// itself honors `horizon` and (through smc::run_parallel) `telemetry`; the
/// inherited seed/threads/control fields are consumed by batch drivers, not
/// by the single-trajectory executor — stream identity always comes from
/// the RandomStream handed to run().
struct SimOptions : fmtree::RunSettings {
  /// The single-trajectory default horizon stays 1.0 (the batch layers
  /// always set it explicitly from their own settings).
  SimOptions() noexcept { horizon = 1.0; }

  bool record_failure_log = false;
  /// Cap on the total number of FailureRecord entries an smc::run_parallel batch
  /// retains across all trajectories when record_failure_log is set.
  /// Trajectory logs that would exceed the cap are dropped whole and the
  /// batch is flagged failure_logs_truncated; per-trajectory statistics are
  /// unaffected (logs are auxiliary). Which logs near the boundary are
  /// dropped depends on thread scheduling; at one thread the retained set is
  /// the deterministic index-order prefix that fits.
  std::uint64_t failure_log_cap = std::uint64_t{1} << 24;
  /// Continuous discount rate r for net-present-value cost accounting:
  /// a cost c at time t contributes c * exp(-r t) to discounted_cost.
  double discount_rate = 0.0;
  /// Evaluate the fault tree by full bottom-up recomputation on every event
  /// instead of incrementally. Slow; exists as the benchmark baseline and
  /// as the oracle for equivalence tests. Results are identical either way.
  bool reference_engine = false;
  /// Scripted maintenance policy bound to *this simulator's model* (which
  /// must already be the lang::apply_policy transform of the original).
  /// When set, inspection events run the compiled rules through the
  /// executor-callback host instead of the built-in threshold sweep.
  /// The BoundPolicy (and the CompiledPolicy it references) must outlive
  /// every run. nullptr = built-in semantics.
  const lang::BoundPolicy* bound_policy = nullptr;
  Trace* trace = nullptr;  ///< optional event log (slows the run; tests only)
};

/// All mutable per-trajectory state of one FmtSimulator::run call. Reusing a
/// workspace across trajectories (one per worker thread) eliminates the
/// dozen-plus vector allocations a cold run() performs. A workspace carries
/// no results between runs — run() fully re-initialises it — and may be
/// handed to simulators of different models (it is resized to fit).
struct SimWorkspace {
  std::vector<int> phase;
  std::vector<double> accel;
  std::vector<double> frozen_remaining;  // natural-rate time left while accel == 0
  std::vector<double> next_time;
  std::vector<EventHandle> next_handle;
  std::vector<EventHandle> repair_handle;
  std::vector<char> leaf_failed;
  std::vector<char> under_repair;
  GateEvaluator::State gates;
  EventQueue<detail::Ev> queue;
  lang::PolicyState policy;  ///< scripted-policy VM state (unused otherwise)
};

/// Executes trajectories of one FMT. Immutable after construction; run() is
/// const and re-entrant, so a single instance may be shared across threads
/// (each thread using its own SimWorkspace).
class FmtSimulator {
public:
  /// Validates the model. The model must outlive the simulator.
  explicit FmtSimulator(const fmt::FaultMaintenanceTree& model);

  /// Simulates one trajectory on the given random stream using a private,
  /// freshly allocated workspace.
  TrajectoryResult run(RandomStream rng, const SimOptions& opts) const;

  /// As above, but reuses `ws` (reset on entry). The hot path for batch
  /// Monte-Carlo: same results, no per-trajectory allocation churn.
  TrajectoryResult run(RandomStream rng, const SimOptions& opts, SimWorkspace& ws) const;

  const fmt::FaultMaintenanceTree& model() const noexcept { return model_; }
  const GateEvaluator& evaluator() const noexcept { return eval_; }

private:
  /// Flattened view of one rate dependency (hot-loop form of RateDependency:
  /// no strings, node/leaf ids pre-resolved).
  struct RdepInfo {
    std::uint32_t trigger_node = 0;  ///< structure node id (event semantics)
    std::uint32_t trigger_leaf = 0;  ///< leaf index; valid iff trigger_phase >= 1
    int trigger_phase = 0;
    double factor = 1.0;
  };

  const fmt::FaultMaintenanceTree& model_;
  GateEvaluator eval_;
  std::uint32_t top_node_ = 0;  ///< model_.top().value, cached
  std::vector<std::vector<std::uint32_t>> rdeps_by_leaf_;  // rdep indices per leaf
  std::vector<RdepInfo> rdep_info_;                        // parallel to model_.rdeps()
  std::vector<std::int32_t> spare_of_leaf_;  // spare-spec index per leaf, -1 = none
  std::vector<std::vector<std::uint32_t>> spare_children_;  // leaf indices per pool
  std::vector<double> spare_dormancy_;
  /// Leaves whose acceleration factor can ever differ from 1 (RDEP targets
  /// and spare-pool members) — the only ones update_rates must visit.
  std::vector<std::uint32_t> rate_leaves_;
  // Maintenance-module targets and FDEP edges resolved to leaf indices once,
  // so the event loop never performs name/id lookups.
  std::vector<std::vector<std::uint32_t>> inspection_targets_;
  std::vector<std::vector<std::uint32_t>> replacement_targets_;
  std::vector<std::uint32_t> fdep_trigger_node_;
  std::vector<std::vector<std::uint32_t>> fdep_dependents_;
};

}  // namespace fmtree::sim
