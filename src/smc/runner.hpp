// Deterministic multi-threaded Monte-Carlo execution of FMT trajectories.
//
// TrajectoryKernel is the one place that runs trajectories: it resolves the
// engine, owns the scalar simulator or the batch executor (and, for a
// scripted policy, the transformed model and the bound policy), runs index
// ranges in units — one trajectory on the scalar engine, one lane block on
// the batch engine — and turns each result into a TrajectorySummary.
// run_parallel(), and through it ParallelRunner and smc::analyze, schedules
// a kernel over threads; the batch trajectory pool (batch/pool.hpp) runs
// the same kernel on its chunks.
//
// Trajectory i always draws from RandomStream(seed, i) (scalar) or
// CounterStream(seed, i) (batch), independent of the thread that runs it,
// and floating-point aggregation happens sequentially over the index-ordered
// summaries — so every statistic is bit-for-bit reproducible at any thread
// count. Each worker owns one TrajectoryKernel::Workspace reused across all
// its units, so millions of runs perform no per-trajectory allocation in the
// simulator (workspaces carry no state between trajectories).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "lang/runtime.hpp"
#include "sim/batch_executor.hpp"
#include "sim/fmt_executor.hpp"
#include "smc/run_control.hpp"

namespace fmtree::smc {

/// Compact per-trajectory record retained for aggregation.
struct TrajectorySummary {
  double first_failure_time = 0.0;
  std::uint32_t failures = 0;
  double downtime = 0.0;
  fmt::CostBreakdown cost;
  double discounted_total = 0.0;  ///< NPV of all costs (== cost.total() at rate 0)
  std::uint32_t inspections = 0;
  std::uint32_t repairs = 0;
  std::uint32_t replacements = 0;
};

/// Integer per-leaf totals over a set of trajectories. Integer sums commute,
/// so each worker keeps its own and they merge in any order.
struct LeafTotals {
  std::vector<std::uint64_t> failures, repairs;
  void reset(std::size_t leaves) {
    failures.assign(leaves, 0);
    repairs.assign(leaves, 0);
  }
};

/// Result of one batch of trajectories.
struct BatchResult {
  /// Ordered by trajectory index (first .. first+completed-1).
  std::vector<TrajectorySummary> summaries;
  /// Integer totals over the batch; order-independent, so summed per thread.
  std::vector<std::uint64_t> failures_per_leaf;
  std::vector<std::uint64_t> repairs_per_leaf;
  /// Per-trajectory failure logs, parallel to `summaries`. Only filled when
  /// SimOptions::record_failure_log is set; empty otherwise.
  std::vector<std::vector<sim::FailureRecord>> failure_logs;
  /// True when at least one trajectory's failure log was dropped because the
  /// batch hit SimOptions::failure_log_cap. Summaries and per-leaf totals
  /// are unaffected; only the auxiliary logs are incomplete.
  bool failure_logs_truncated = false;
  /// Trajectories actually delivered (== the requested count unless the run
  /// was truncated by a RunControl).
  std::uint64_t completed = 0;
  /// True when the batch stopped early. The delivered prefix is still exact:
  /// bit-identical to an untruncated run over the same `completed` streams.
  bool truncated = false;
  StopReason stop_reason = StopReason::None;
};

class TrajectoryKernel {
public:
  /// What one worker reuses across units.
  struct Workspace {
    sim::SimWorkspace scalar;
    sim::BatchWorkspace batch;
    sim::TrajectoryResult result;  ///< the scalar engine's unit
  };

  /// Simulates `model` (which must outlive the kernel) under `opts` on the
  /// engine opts.engine resolves to. With opts.policy set, it simulates the
  /// policy's lang::apply_policy transform of the model under the bound
  /// policy; the kernel owns both.
  TrajectoryKernel(const fmt::FaultMaintenanceTree& model, const sim::SimOptions& opts);
  /// Simulates `simulator`'s model as it is; opts.bound_policy, if any, must
  /// be bound to that model.
  TrajectoryKernel(const sim::FmtSimulator& simulator, const sim::SimOptions& opts);
  TrajectoryKernel(const TrajectoryKernel&) = delete;
  TrajectoryKernel& operator=(const TrajectoryKernel&) = delete;

  const sim::SimOptions& options() const noexcept { return opts_; }
  /// Trajectories per unit: 1 on the scalar engine, the lane width on batch.
  std::uint64_t unit() const noexcept { return unit_; }
  std::size_t num_leaves() const noexcept { return num_leaves_; }

  /// Runs trajectories [first, first+count) under `seed` in units, calling
  /// `stop()` before each unit and returning early when it is true. The
  /// summary of trajectory first+k goes to out[k] and its per-leaf counts
  /// are added to `leaves` (sized num_leaves()); then `on_unit(index, results)`
  /// sees the raw results of the unit that starts at `index`. Returns the
  /// number of trajectories run.
  template <class Stop, class OnUnit>
  std::uint64_t run(std::uint64_t seed, std::uint64_t first, std::uint64_t count,
                    Workspace& ws, TrajectorySummary* out, LeafTotals& leaves,
                    Stop&& stop, OnUnit&& on_unit) const {
    std::uint64_t ran = 0;
    while (ran < count && !stop()) {
      const std::span<sim::TrajectoryResult> results =
          run_unit(seed, first + ran, count - ran, ws, out + ran, leaves);
      on_unit(first + ran, results);
      ran += results.size();
    }
    return ran;
  }

private:
  /// Builds the engine over `simulated`; a non-null `simulator` is borrowed
  /// for the scalar engine instead of building one.
  void select_engine(const fmt::FaultMaintenanceTree& simulated,
                     const sim::FmtSimulator* simulator);
  /// Runs the unit of at most `max` trajectories that starts at `first`.
  std::span<sim::TrajectoryResult> run_unit(std::uint64_t seed, std::uint64_t first,
                                            std::uint64_t max, Workspace& ws,
                                            TrajectorySummary* out,
                                            LeafTotals& leaves) const;

  sim::SimOptions opts_;
  std::optional<fmt::FaultMaintenanceTree> transformed_;
  std::optional<lang::BoundPolicy> bound_;
  std::unique_ptr<const sim::FmtSimulator> owned_simulator_;
  const sim::FmtSimulator* simulator_ = nullptr;  ///< set on the scalar engine
  std::unique_ptr<const sim::BatchExecutor> executor_;  ///< set on the batch engine
  std::uint64_t unit_ = 1;
  std::size_t num_leaves_ = 0;
};

/// Runs `kernel` over trajectories [first, first+count) under `seed` on
/// `threads` workers (0 = hardware concurrency). Workers claim the next unit
/// in index order from a shared counter and poll `control` before each
/// claim, so every claimed unit completes: a stopped run delivers exactly
/// the claimed prefix, bit-identical to an uncontrolled run over the same
/// streams, and its per-leaf totals and smc.* counters cover exactly that
/// prefix. A trajectory budget counts `first` plus the trajectories claimed
/// so far (adaptive drivers pass earlier rounds' total as `first`), so a
/// budget-stopped run delivers at least min(budget - first, count). The
/// first exception a worker throws stops the others from claiming and is
/// rethrown here.
///
/// Telemetry rides in the kernel's options: smc.* counters and the
/// events-per-trajectory histogram accumulate per worker and merge at the
/// end; a ProgressReporter is polled between units. Telemetry reads counters
/// only — enabling it changes no result bit.
BatchResult run_parallel(const TrajectoryKernel& kernel, unsigned threads,
                         std::uint64_t seed, std::uint64_t first, std::uint64_t count,
                         const RunControl* control = nullptr);

/// run_parallel over a caller-built simulator.
class ParallelRunner {
public:
  /// `threads == 0` selects std::thread::hardware_concurrency().
  explicit ParallelRunner(const sim::FmtSimulator& simulator, unsigned threads = 0);

  /// Runs trajectories with stream ids [first, first+count) under `seed` on
  /// the engine `opts.engine` resolves to (FMTREE_ENGINE when Default); see
  /// run_parallel for scheduling, stops and telemetry. Either engine's result
  /// is bit-identical at any thread count; the batch engine's is also
  /// invariant to lane width (opts.lane_width).
  BatchResult run(std::uint64_t seed, std::uint64_t first, std::uint64_t count,
                  const sim::SimOptions& opts,
                  const RunControl* control = nullptr) const;

  unsigned threads() const noexcept { return threads_; }

private:
  const sim::FmtSimulator& simulator_;
  unsigned threads_;
};

}  // namespace fmtree::smc
