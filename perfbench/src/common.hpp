// Shared pieces of the perfbench binary: configuration, clocks, process
// resource probes, order statistics, and the Workload interface every
// workload implements.
//
// Timing model. A workload is set up several times (setup_s is the median
// of those set-ups) and then runs ops for a fixed wall-clock budget. Each op
// reports its own timed window, so output checks and clean-up between ops
// stay outside the measured latency. End-to-end metrics come from untraced
// ops only; a traced run (--trace 1) repeats the ops with the program's obs
// sinks attached and adds the per-layer probes of layers.cpp.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Input sizes. `full` is the benchmark; `tiny` is the self-test scale,
/// which exercises every code path and check in a few seconds.
struct Sizes {
  std::uint64_t analyze_runs;       ///< trajectories per analyze op
  std::size_t fleet_joints;         ///< corridor length
  std::uint64_t fleet_runs;         ///< trajectories per joint
  std::uint64_t serve_sweep_runs;   ///< trajectories per sweep/script job
  std::uint64_t serve_adaptive_cap;   ///< trajectory cap of adaptive jobs
  std::uint64_t layer_scaling_runs;   ///< trajectories per scaling point
  std::uint64_t layer_kernel_runs;    ///< trajectories per 1-thread kernel probe
  std::size_t layer_reps;             ///< repetitions of microsecond probes
  std::uint64_t layer_draws;          ///< RNG draws per draw probe
};

Sizes full_sizes();
Sizes tiny_sizes();

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 0;  ///< pool width; resolved to nproc when 0
  Sizes sizes = full_sizes();
  std::string work_dir;  ///< private work directory inside the checkout
};

double wall_now();   ///< steady clock, seconds
double cpu_now();    ///< process user + system CPU, seconds
double peak_rss_mb();  ///< process high-water resident set
/// Bytes the program holds from malloc (all arenas, mmapped chunks too).
/// Unlike RSS it falls when memory is freed, even in a long-lived process.
double heap_bytes();

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 when
/// the sample is empty.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

std::string read_file(const std::string& path);
void remove_tree(const std::string& path);
/// Writes back the dirty pages and freed blocks of the file system holding
/// `dir`, so they are not written back during a later op's timed window.
void sync_fs(const std::string& dir);

/// A 64-bit FNV-1a digest, hex encoded: compact identity of an output text.
std::string digest(const std::string& text);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// What one op reports about itself. latency/cpu cover the op's timed
/// window only; `ok` is false when the op's output check failed.
struct OpResult {
  bool ok = true;
  double latency_s = 0.0;
  double cpu_s = 0.0;
  double trajectories = 0.0;  ///< simulated, per the program's own counts
};

/// Aggregate of the ops of one timed phase.
struct Phase {
  std::vector<double> latencies_s;  ///< every attempted op
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;  ///< timed wall time the ops occupied
  double cpu_s = 0.0;
  double trajectories = 0.0;

  void add(const OpResult& r);
  double ops_per_s() const;
};

/// Runs `op` back to back until `seconds` of wall time have passed (at
/// least one op). An op that throws counts as attempted and failed.
template <class Op>
Phase run_sequential(double seconds, Op&& op);

class Workload {
public:
  virtual ~Workload() = default;
  /// Everything before the first timed op: inputs, caches, daemons.
  virtual void setup() = 0;
  /// Timed ops for `seconds`.
  virtual Phase run(double seconds) = 0;
  /// Post-run output checks that are too costly to run inside ops; each
  /// mismatch is added to phase.failed. Returns false on any mismatch.
  virtual bool verify(Phase& phase) { (void)phase; return true; }
  /// Workload-phase per-layer metrics gathered by a traced instance's ops.
  virtual void layer_metrics(Metrics& out) { (void)out; }
  /// Trajectory kernel the workload's ops run ("scalar" or "batch").
  virtual const char* engine() const = 0;
  /// Extra facts for the info line (JSON members, without braces).
  virtual std::string info() const { return {}; }
};

/// A workload instance. With `traced`, its ops run with the program's obs
/// sinks attached (MetricsRegistry, Tracer) and feed layer_metrics().
std::unique_ptr<Workload> make_workload(const Config& config, bool traced);

/// Single-thread kernel cost, seconds per trajectory of ei_joint.
struct KernelCost {
  double scalar_s = 0.0;
  double batch_s = 0.0;
};

/// Per-layer probes shared by every traced run (layers.cpp).
KernelCost run_layer_suite(const Config& config, Metrics& out);

template <class Op>
Phase run_sequential(double seconds, Op&& op) {
  Phase phase;
  const double start = wall_now();
  do {
    OpResult r;
    const double t0 = wall_now();
    const double c0 = cpu_now();
    try {
      r = op();
    } catch (...) {
      r.ok = false;
      r.latency_s = wall_now() - t0;
      r.cpu_s = cpu_now() - c0;
    }
    phase.add(r);
  } while (wall_now() - start < seconds);
  return phase;
}

}  // namespace perfbench
