// Engine performance benchmark: trajectories/second and per-event cost of
// the Monte-Carlo hot path on the two case-study models, emitted as
// BENCH_engine.json so successive changes are measured against a tracked
// baseline (run via bench/run_perf.sh).
//
// Configurations per model, all at a fixed seed:
//  * single    — the production scalar engine, one thread, reused
//                SimWorkspace; the in-run baseline the batch engine is
//                measured against (batch_vs_scalar);
//  * batch     — the SoA lane-batch engine (sim::BatchExecutor, Philox
//                counter streams), one thread, at its default lane width;
//  * parallel  — the production engine through ParallelRunner at hardware
//                concurrency (FMTREE_BENCH_THREADS overrides). On a
//                single-core host the run is recorded but flagged
//                parallel_measured=false: a 1-thread run is not a parallel
//                measurement and must not be compared as one;
//  * telemetry — the parallel configuration re-run with all three obs sinks
//                attached (metrics + tracer + throttled progress), to measure
//                the observability overhead and re-check that telemetry
//                changes no result bit (the acceptance bar is <3% on the
//                EI-joint model).
//
// Before timing, the first trajectories of the production scalar engine, with
// and without a reused workspace, are compared bit-for-bit against its
// reference-evaluation mode (full gate re-evaluation per event): the fast
// path must do the same work as the reference, not different work. The
// batch engine uses a different RNG family, so it is checked differently:
// its per-trajectory results must be bit-identical across lane widths and
// chunk splits (batch_lane_invariant) — statistical agreement with the
// scalar oracle is enforced by tests/smc/engine_equivalence_test.cpp.
//
// Trajectory counts scale with FMTREE_BENCH_TRAJECTORIES; --smoke runs a
// tiny count (the ctest perf smoke target) so the harness cannot bit-rot.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "fmt/parser.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/tracer.hpp"
#include "sim/batch_executor.hpp"
#include "sim/fmt_executor.hpp"
#include "smc/runner.hpp"
#include "util/error.hpp"

namespace {

using namespace fmtree;

constexpr std::uint64_t kSeed = 20160628;

std::string read_model_file(const std::string& name) {
  for (const std::string& prefix : {std::string("models/"), std::string("../models/"),
                                    std::string(FMTREE_SOURCE_DIR "/models/")}) {
    std::ifstream f(prefix + name);
    if (f) {
      std::ostringstream text;
      text << f.rdbuf();
      return text.str();
    }
  }
  throw IoError("cannot locate models/" + name);
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct ModelReport {
  std::string name;
  std::uint64_t trajectories = 0;
  double horizon = 0.0;
  double single_traj_per_sec = 0.0;
  double batch_traj_per_sec = 0.0;
  unsigned batch_lane_width = 0;
  double batch_events_per_trajectory = 0.0;
  double batch_ns_per_event = 0.0;
  double parallel_traj_per_sec = 0.0;
  unsigned parallel_threads = 0;
  bool parallel_measured = false;  ///< false = 1 worker, not a parallel figure
  double telemetry_traj_per_sec = 0.0;
  double telemetry_overhead_pct = 0.0;  ///< parallel slowdown with sinks attached
  double events_per_trajectory = 0.0;
  double ns_per_event = 0.0;
  double batch_vs_scalar = 0.0;       ///< batch engine vs production scalar engine
  bool equivalent = false;            ///< scalar fast path matches reference mode
  bool batch_lane_invariant = false;  ///< batch bits stable across widths/chunks
  bool telemetry_equivalent = false;  ///< telemetry run reproduces every summary bit
};

bool bitwise_equal(const smc::TrajectorySummary& a, const smc::TrajectorySummary& b) {
  return a.first_failure_time == b.first_failure_time && a.failures == b.failures &&
         a.downtime == b.downtime && a.cost.inspection == b.cost.inspection &&
         a.cost.repair == b.cost.repair && a.cost.replacement == b.cost.replacement &&
         a.cost.corrective == b.cost.corrective && a.cost.downtime == b.cost.downtime &&
         a.discounted_total == b.discounted_total && a.inspections == b.inspections &&
         a.repairs == b.repairs && a.replacements == b.replacements;
}

bool bitwise_equal(const smc::BatchResult& a, const smc::BatchResult& b) {
  if (a.summaries.size() != b.summaries.size()) return false;
  for (std::size_t i = 0; i < a.summaries.size(); ++i)
    if (!bitwise_equal(a.summaries[i], b.summaries[i])) return false;
  return a.failures_per_leaf == b.failures_per_leaf &&
         a.repairs_per_leaf == b.repairs_per_leaf;
}

bool bitwise_equal(const sim::TrajectoryResult& a, const sim::TrajectoryResult& b) {
  return a.failures == b.failures && a.first_failure_time == b.first_failure_time &&
         a.downtime == b.downtime && a.cost.total() == b.cost.total() &&
         a.discounted_cost.total() == b.discounted_cost.total() &&
         a.inspections == b.inspections && a.repairs == b.repairs &&
         a.replacements == b.replacements &&
         a.repairs_per_leaf == b.repairs_per_leaf &&
         a.failures_per_leaf == b.failures_per_leaf;
}

ModelReport bench_model(const std::string& name, double horizon, std::uint64_t n,
                        unsigned requested_threads) {
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(read_model_file(name + ".fmt"));
  const sim::FmtSimulator simulator(model);

  ModelReport rep;
  rep.name = name;
  rep.trajectories = n;
  rep.horizon = horizon;

  sim::SimOptions fast;
  fast.horizon = horizon;
  sim::SimOptions reference = fast;
  reference.reference_engine = true;

  // Cross-check: the production engine, with a fresh and with a reused
  // workspace, must agree bit-for-bit with its full re-evaluation mode
  // before any timing.
  rep.equivalent = true;
  {
    sim::SimWorkspace ws;
    const std::uint64_t check = std::min<std::uint64_t>(n, 200);
    for (std::uint64_t i = 0; i < check; ++i) {
      const auto ref = simulator.run(RandomStream(kSeed, i), reference);
      const auto fresh = simulator.run(RandomStream(kSeed, i), fast);
      const auto reused = simulator.run(RandomStream(kSeed, i), fast, ws);
      if (!bitwise_equal(ref, fresh) || !bitwise_equal(ref, reused))
        rep.equivalent = false;
    }
  }

  // Production engine, single thread, reused workspace.
  {
    sim::SimWorkspace ws;
    std::uint64_t events = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < n; ++i)
      events += simulator.run(RandomStream(kSeed, i), fast, ws).events;
    const double sec = seconds_since(t0);
    rep.single_traj_per_sec = static_cast<double>(n) / sec;
    rep.events_per_trajectory = static_cast<double>(events) / static_cast<double>(n);
    rep.ns_per_event = events > 0 ? sec * 1e9 / static_cast<double>(events) : 0.0;
  }

  // Batch engine, one thread, default lane width — the same direct-call
  // shape as the scalar single-thread loop above, so the two figures are
  // comparable kernel-to-kernel.
  const sim::BatchExecutor batch(model);
  rep.batch_lane_width = sim::BatchExecutor::kDefaultLaneWidth;
  {
    sim::BatchWorkspace ws;
    const std::uint32_t width = sim::BatchExecutor::kDefaultLaneWidth;
    std::uint64_t events = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t first = 0; first < n; first += width) {
      const auto lanes =
          static_cast<std::uint32_t>(std::min<std::uint64_t>(width, n - first));
      batch.run(kSeed, first, lanes, fast, ws);
      for (std::uint32_t lane = 0; lane < lanes; ++lane)
        events += ws.results[lane].events;
    }
    const double sec = seconds_since(t0);
    rep.batch_traj_per_sec = static_cast<double>(n) / sec;
    rep.batch_events_per_trajectory =
        static_cast<double>(events) / static_cast<double>(n);
    rep.batch_ns_per_event = events > 0 ? sec * 1e9 / static_cast<double>(events) : 0.0;
  }

  // Counter-stream determinism: trajectory i's bits may depend only on
  // (seed, i), never on lane width or how the range was chunked.
  {
    const auto n_check = static_cast<std::uint32_t>(std::min<std::uint64_t>(n, 2048));
    sim::BatchWorkspace whole_ws, split_ws;
    batch.run(kSeed, 0, n_check, fast, whole_ws);
    std::vector<sim::TrajectoryResult> whole = whole_ws.results;
    rep.batch_lane_invariant = true;
    for (std::uint32_t first = 0; first < n_check; first += 5) {  // odd chunking
      const std::uint32_t lanes = std::min<std::uint32_t>(5, n_check - first);
      batch.run(kSeed, first, lanes, fast, split_ws);
      for (std::uint32_t lane = 0; lane < lanes; ++lane)
        if (!bitwise_equal(whole[first + lane], split_ws.results[lane]))
          rep.batch_lane_invariant = false;
    }
  }

  // Production engine through the deterministic parallel runner, at hardware
  // concurrency (or FMTREE_BENCH_THREADS). threads() is what actually ran:
  // a 1-worker run is recorded but flagged as not a parallel measurement.
  const smc::ParallelRunner runner(simulator, requested_threads);
  rep.parallel_threads = runner.threads();
  rep.parallel_measured = runner.threads() > 1;
  smc::BatchResult plain;
  {
    const auto t0 = std::chrono::steady_clock::now();
    plain = runner.run(kSeed, 0, n, fast);
    rep.parallel_traj_per_sec = static_cast<double>(n) / seconds_since(t0);
  }

  // Same parallel run with every telemetry sink attached: the observability
  // overhead, and a re-check that telemetry changes no result bit.
  {
    obs::MetricsRegistry metrics;
    obs::Tracer tracer;
    obs::ProgressReporter progress([](const obs::Progress&) {}, 0.25);
    sim::SimOptions instrumented = fast;
    instrumented.telemetry = {
        .metrics = &metrics, .tracer = &tracer, .progress = &progress};
    const auto t0 = std::chrono::steady_clock::now();
    const smc::BatchResult traced = runner.run(kSeed, 0, n, instrumented);
    rep.telemetry_traj_per_sec = static_cast<double>(n) / seconds_since(t0);
    rep.telemetry_overhead_pct =
        (1.0 - rep.telemetry_traj_per_sec / rep.parallel_traj_per_sec) * 100.0;
    rep.telemetry_equivalent = bitwise_equal(plain, traced) &&
                               metrics.counter_value("smc.trajectories") == n;
  }

  rep.batch_vs_scalar = rep.batch_traj_per_sec / rep.single_traj_per_sec;
  return rep;
}

void write_json(std::ostream& os, const std::vector<ModelReport>& reports) {
  os << "{\n  \"benchmark\": \"engine\",\n  \"seed\": " << kSeed
     << ",\n  \"models\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const ModelReport& r = reports[i];
    os << "    {\n"
       << "      \"model\": \"" << r.name << "\",\n"
       << "      \"trajectories\": " << r.trajectories << ",\n"
       << "      \"horizon\": " << r.horizon << ",\n"
       << "      \"single_thread_traj_per_sec\": " << r.single_traj_per_sec << ",\n"
       << "      \"batch_traj_per_sec\": " << r.batch_traj_per_sec << ",\n"
       << "      \"batch_lane_width\": " << r.batch_lane_width << ",\n"
       << "      \"batch_events_per_trajectory\": " << r.batch_events_per_trajectory
       << ",\n"
       << "      \"batch_ns_per_event\": " << r.batch_ns_per_event << ",\n"
       << "      \"parallel_traj_per_sec\": " << r.parallel_traj_per_sec << ",\n"
       << "      \"parallel_threads\": " << r.parallel_threads << ",\n"
       << "      \"parallel_measured\": " << (r.parallel_measured ? "true" : "false")
       << ",\n"
       << "      \"telemetry_traj_per_sec\": " << r.telemetry_traj_per_sec << ",\n"
       << "      \"telemetry_overhead_pct\": " << r.telemetry_overhead_pct << ",\n"
       << "      \"events_per_trajectory\": " << r.events_per_trajectory << ",\n"
       << "      \"ns_per_event\": " << r.ns_per_event << ",\n"
       << "      \"batch_vs_scalar\": " << r.batch_vs_scalar << ",\n"
       << "      \"bitwise_equivalent\": " << (r.equivalent ? "true" : "false") << ",\n"
       << "      \"batch_lane_invariant\": "
       << (r.batch_lane_invariant ? "true" : "false") << ",\n"
       << "      \"telemetry_bitwise_equivalent\": "
       << (r.telemetry_equivalent ? "true" : "false") << "\n"
       << "    }" << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_engine.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_perf_engine [--smoke] [--out FILE]\n";
      return 2;
    }
  }

  fmtree::bench::header("M19", "Engine throughput",
                        "hot-path performance baseline (not a paper claim)");

  // Environment overrides are read and validated here, before any model runs
  // or any worker thread starts. Unset threads selects hardware concurrency.
  const std::uint64_t n = smoke ? 200 : fmtree::bench::trajectories(100000);
  const auto threads = static_cast<unsigned>(fmtree::bench::env_count(
      "FMTREE_BENCH_THREADS", 0, std::numeric_limits<unsigned>::max()));
  std::vector<ModelReport> reports;
  reports.push_back(bench_model("ei_joint", 10.0, n, threads));
  reports.push_back(bench_model("compressor", 10.0, n, threads));

  bool ok = true;
  for (const ModelReport& r : reports) {
    std::cout << r.name << ": single "
              << static_cast<std::uint64_t>(r.single_traj_per_sec) << " traj/s ("
              << r.ns_per_event << " ns/ev), batch "
              << static_cast<std::uint64_t>(r.batch_traj_per_sec) << " traj/s (x"
              << r.batch_vs_scalar << " vs scalar, W=" << r.batch_lane_width << ", "
              << r.batch_ns_per_event << " ns/ev), parallel "
              << static_cast<std::uint64_t>(r.parallel_traj_per_sec) << " traj/s ("
              << r.parallel_threads << " threads"
              << (r.parallel_measured ? "" : "; 1 worker — NOT a parallel figure")
              << "), telemetry "
              << static_cast<std::uint64_t>(r.telemetry_traj_per_sec) << " traj/s ("
              << r.telemetry_overhead_pct << "% overhead), " << r.events_per_trajectory
              << " ev/traj, "
              << (r.equivalent && r.telemetry_equivalent ? "bitwise-equivalent"
                                                         : "RESULTS DIVERGED")
              << ", "
              << (r.batch_lane_invariant ? "batch lane/chunk-invariant"
                                         : "BATCH BITS DEPEND ON LANE LAYOUT")
              << "\n";
    ok = ok && r.equivalent && r.telemetry_equivalent && r.batch_lane_invariant;
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  write_json(out, reports);
  std::cout << "\nwrote " << out_path << "\n";
  std::cout << (ok ? "PASS" : "FAIL") << ": "
            << (ok ? "scalar results bit-identical, batch results lane/chunk-invariant"
                   : "an equivalence or invariance check failed")
            << "\n";
  return ok ? 0 : 1;
}
