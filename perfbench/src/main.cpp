// perfbench: the repository benchmark binary. Run through perfbench/run.py,
// which builds this binary from the checkout and validates its output:
//
//   perfbench --workload <analyze|fleet_cold|serve_mix>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--threads <n>] [--scale full|tiny] [--work-dir <dir>]
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. The line before it ("perfbench-info {...}") records the
// build, the machine and the run's shape. Conditions that silently change
// what is measured (debug or sanitizer build, FMTREE_ENGINE/FMTREE_FAULTS
// set, more threads than CPUs) refuse the run: exit code 2, no result.
#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "common.hpp"
#include "fmt/parser.hpp"
#include "sim/fmt_executor.hpp"
#include "smc/runner.hpp"
#include "util/json.hpp"

namespace {

using namespace perfbench;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef NDEBUG
constexpr bool kDebug = false;
#else
constexpr bool kDebug = true;
#endif

struct Refused {
  std::string why;
};

unsigned cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

Config parse(int argc, char** argv) {
  Config cfg;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw Refused{"missing value for " + flag};
    const std::string value = argv[++i];
    if (flag == "--workload") {
      cfg.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      cfg.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      cfg.seconds = std::stod(value);
      have_seconds = cfg.seconds > 0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw Refused{"--trace takes 0 or 1"};
      cfg.trace = value == "1";
      have_trace = true;
    } else if (flag == "--threads") {
      cfg.threads = static_cast<unsigned>(std::stoul(value));
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") throw Refused{"--scale takes full or tiny"};
      cfg.sizes = value == "tiny" ? tiny_sizes() : full_sizes();
    } else if (flag == "--work-dir") {
      cfg.work_dir = value;
    } else {
      throw Refused{"unknown argument " + flag};
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    throw Refused{"--workload, --seed, --seconds (> 0) and --trace are required"};
  if (kDebug || kSanitized)
    throw Refused{"debug or sanitizer build; build Release (perfbench/run.py does)"};
  for (const char* var : {"FMTREE_ENGINE", "FMTREE_FAULTS"})
    if (std::getenv(var) != nullptr)
      throw Refused{std::string(var) + " is set; it changes what is measured"};
  const unsigned nproc = cpu_count();
  if (cfg.threads == 0) cfg.threads = nproc;
  if (cfg.threads > nproc)
    throw Refused{std::to_string(cfg.threads) + " threads requested but only " +
                  std::to_string(nproc) + " CPUs"};
  for (const char* input : {"models/ei_joint.fmt", "models/compressor.fmt",
                            "examples/policies/condition_based.mpl", "perfbench/reference.json"})
    if (!std::filesystem::is_regular_file(input))
      throw Refused{std::string("missing input ") + input + " (run from the checkout root)"};
  if (cfg.work_dir.empty()) cfg.work_dir = ".bench_build/work." + std::to_string(::getpid());
  return cfg;
}

std::string number(double x) {
  if (!std::isfinite(x)) throw std::runtime_error("non-finite metric value");
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

std::size_t setup_reps(const Config& cfg) {
  return cfg.sizes.fleet_joints < full_sizes().fleet_joints ? 2 : 9;
}

/// Samples strictly above the p99 estimate.
std::size_t above(const std::vector<double>& v, double threshold) {
  std::size_t n = 0;
  for (const double x : v) n += x > threshold ? 1 : 0;
  return n;
}

int run(const Config& cfg) {
  std::filesystem::create_directories(cfg.work_dir);
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      remove_tree(dir);
      sync_fs(std::filesystem::path(dir).parent_path().string());
    }
  } cleanup{cfg.work_dir};
  sync_fs(cfg.work_dir);

  Metrics metrics;
  Phase result;  // every op of the run, for attempted/failed
  bool verified = true;
  std::string workload_info;
  std::vector<double> setups;
  std::vector<double> latencies;
  if (!cfg.trace) {
    std::unique_ptr<Workload> w;
    for (std::size_t r = 0; r < setup_reps(cfg); ++r) {
      w.reset();
      const double t0 = wall_now();
      w = make_workload(cfg, /*traced=*/false);
      w->setup();
      setups.push_back(wall_now() - t0);
    }
    result = w->run(cfg.seconds);
    const double peak_mb = peak_rss_mb();  // before verify's reference work
    verified = w->verify(result);
    workload_info = w->info();
    latencies = result.latencies_s;
    metrics = {
        {"setup_s", median(setups), "s"},
        {"ops_per_s", result.ops_per_s(), "1/s"},
        {"latency_p50_ms", median(latencies) * 1e3, "ms"},
        {"traj_per_s", result.wall_s > 0 ? result.trajectories / result.wall_s : 0.0, "1/s"},
        {"cpu_per_op_s", result.cpu_s / static_cast<double>(result.attempted), "s"},
        {"peak_rss_mb", peak_mb, "MB"},
    };
  } else {
    // Untraced and traced halves of the same run: their ops_per_s ratio is
    // the tracing overhead.
    std::unique_ptr<Workload> plain = make_workload(cfg, false);
    plain->setup();
    Phase untraced = plain->run(cfg.seconds / 2);
    verified = plain->verify(untraced);
    plain.reset();
    std::unique_ptr<Workload> w = make_workload(cfg, true);
    w->setup();
    Phase traced = w->run(cfg.seconds / 2);
    verified = w->verify(traced) && verified;
    w->layer_metrics(metrics);
    workload_info = w->info();
    const KernelCost kernel = run_layer_suite(cfg, metrics);
    const double per_traj = std::string(w->engine()) == "batch" ? kernel.batch_s : kernel.scalar_s;
    metrics.push_back({"batch.pool_efficiency",
                       traced.trajectories * per_traj / (traced.wall_s * cfg.threads), "ratio"});
    metrics.push_back({"obs.trace_overhead_pct",
                       (untraced.ops_per_s() / traced.ops_per_s() - 1.0) * 100.0, "%"});
    result.attempted = untraced.attempted + traced.attempted;
    result.failed = untraced.failed + traced.failed;
    metrics.push_back({"error_rate", static_cast<double>(result.failed) /
                                         static_cast<double>(result.attempted), "ratio"});
    latencies = traced.latencies_s;
    metrics.push_back({"latency_samples", static_cast<double>(latencies.size()), "count"});
    // Tail latency spreads too much across runs of the same code to carry
    // an end-to-end bound on a shared host; it is reported here, unbounded.
    metrics.push_back({"latency_p99_ms", quantile(latencies, 0.99) * 1e3, "ms"});
    // Serve-layer latencies and counts exist only where a daemon runs.
    std::map<std::string, bool> have;
    for (const Metric& m : metrics) have[m.name] = true;
    for (const auto& [name, unit] : std::vector<std::pair<std::string, std::string>>{
             {"serve.hit_latency_ms", "ms"}, {"serve.miss_latency_ms", "ms"},
             {"serve.queue_wait_ms", "ms"}, {"serve.dedup_ratio", "ratio"},
             {"serve.rejected", "count"}})
      if (!have[name]) metrics.push_back({name, 0.0, unit});
  }

  // Info line: build, machine and run shape, so a figure can be re-checked.
  const double p99 = quantile(latencies, 0.99);
  const auto model = fmtree::fmt::parse_fmt(read_file("models/ei_joint.fmt"));
  const fmtree::sim::FmtSimulator simulator(model);
  std::ostringstream info;
  info << "perfbench-info {\"workload\": \"" << cfg.workload << "\", \"seed\": " << cfg.seed
       << ", \"seconds\": " << number(cfg.seconds) << ", \"trace\": " << (cfg.trace ? 1 : 0)
       << ", \"compiler\": \"" << fmtree::json::escape(__VERSION__) << "\", \"build_type\": \""
       << PERFBENCH_BUILD_TYPE << "\", \"cxx_flags\": \""
       << fmtree::json::escape(PERFBENCH_CXX_FLAGS) << "\", \"nproc\": " << cpu_count()
       << ", \"threads\": " << cfg.threads << ", \"runner_threads\": "
       << fmtree::smc::ParallelRunner(simulator, cfg.threads).threads()
       << ", \"setup_reps\": " << setups.size() << ", \"latency_samples\": " << latencies.size()
       << ", \"samples_above_p99\": " << above(latencies, p99) << ", \"verified\": "
       << (verified ? "true" : "false");
  if (!workload_info.empty()) info << ", " << workload_info;
  info << "}\n";
  std::cout << info.str();

  std::ostringstream line;
  line << "{\"correct\": " << (result.failed == 0 && verified ? "true" : "false")
       << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    line << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
         << number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  line << "}}\n";
  std::cout << line.str() << std::flush;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  try {
    cfg = parse(argc, argv);
  } catch (const Refused& r) {
    std::cerr << "perfbench: refused: " << r.why << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: bad arguments: " << e.what() << "\n";
    return 2;
  }
  try {
    return run(cfg);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << cfg.workload << " failed: " << e.what() << "\n";
    return 1;
  }
}
