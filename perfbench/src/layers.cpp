// Per-layer probes of the traced run. Each probe calls one layer's public
// functions directly, on the workloads' own inputs, inside spans recorded
// by the program's obs::Tracer; a layer's time is its spans' self time (span
// minus child spans), divided by the calls the span covers. The kernel
// stages behind BatchExecutor::run (candidate-clock min scan, light settle)
// have no public entry point and are not probed here.
#include <algorithm>
#include <atomic>
#include <random>
#include <stdexcept>
#include <thread>

#include "batch/fingerprint.hpp"
#include "batch/result_cache.hpp"
#include "common.hpp"
#include "fleet/corridor.hpp"
#include "fleet/fleet.hpp"
#include "fmt/canonical.hpp"
#include "fmt/parser.hpp"
#include "lang/policy.hpp"
#include "lang/runtime.hpp"
#include "obs/tracer.hpp"
#include "serve/request.hpp"
#include "serve/session.hpp"
#include "sim/batch_executor.hpp"
#include "sim/fmt_executor.hpp"
#include "sim/gate_eval.hpp"
#include "smc/kpi.hpp"
#include "smc/runner.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace fmtree;

constexpr double kHorizon = 10.0;
constexpr std::uint64_t kSeed = 1;

/// Spans of the benchmark's own probes, and their self times.
class Probe {
public:
  /// Runs `f` `reps` times, each inside one span covering `calls` calls;
  /// returns the median per-call self time in nanoseconds.
  template <class F>
  double time_ns(std::string_view name, std::size_t reps, std::size_t calls, F&& f) {
    const std::size_t first = tracer_.size();
    for (std::size_t i = 0; i < reps; ++i) {
      auto span = tracer_.span(name);
      f();
    }
    return median(self_ns(first)) / static_cast<double>(calls);
  }

  /// Self time (ns) of each root span recorded since index `first`.
  std::vector<double> self_ns(std::size_t first) const {
    const std::vector<obs::SpanRecord> spans = tracer_.records();
    std::vector<double> child(spans.size(), 0.0);
    for (const obs::SpanRecord& s : spans)
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += wall(s);
    std::vector<double> out;
    for (std::size_t i = first; i < spans.size(); ++i)
      if (spans[i].parent < 0 || static_cast<std::size_t>(spans[i].parent) < first)
        out.push_back(wall(spans[i]) - child[i]);
    return out;
  }

private:
  static double wall(const obs::SpanRecord& s) {
    return static_cast<double>(s.end_ns - s.start_ns);
  }
  obs::Tracer tracer_;
};

smc::AnalysisSettings settings(std::uint64_t runs, Engine engine, unsigned threads) {
  smc::AnalysisSettings s;
  s.horizon = kHorizon;
  s.trajectories = runs;
  s.seed = kSeed;
  s.engine = engine;
  s.threads = threads;
  return s;
}

sim::SimOptions sim_options() {
  sim::SimOptions o;
  o.horizon = kHorizon;
  return o;
}

std::atomic<std::uint64_t> g_sink{0};  // keeps probe results observable

void probe_fmt(const Config& cfg, Probe& p, const std::string& text, Metrics& out) {
  const std::size_t reps = cfg.sizes.layer_reps;
  out.push_back({"fmt.parse_us", p.time_ns("fmt.parse", reps, 1, [&] {
                   g_sink += fmt::parse_fmt(text).leaves().size();
                 }) / 1e3, "us"});
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(text);
  out.push_back({"fmt.canonical_hash_us", p.time_ns("fmt.canonical_hash", reps, 10, [&] {
                   for (int i = 0; i < 10; ++i)
                     g_sink += fmt::canonical_hash(model).hex().size();
                 }) / 1e3, "us"});
}

/// 1-thread kernels. Returns seconds per trajectory of each engine, which
/// the pool-efficiency metric divides by.
std::pair<double, double> probe_sim(const Config& cfg, Probe& p,
                                    const fmt::FaultMaintenanceTree& model,
                                    const std::string& script, Metrics& out) {
  const std::uint64_t n = cfg.sizes.layer_kernel_runs;
  const sim::SimOptions opts = sim_options();
  const auto scalar_run = [&](const sim::FmtSimulator& simulator, const sim::SimOptions& o,
                              std::string_view name, double& events) {
    sim::SimWorkspace ws;
    return p.time_ns(name, 3, 1, [&] {
      events = 0;
      for (std::uint64_t i = 0; i < n; ++i)
        events += static_cast<double>(simulator.run(RandomStream(kSeed, i), o, ws).events);
    });
  };

  const sim::FmtSimulator scalar(model);
  double scalar_events = 0;
  const double scalar_ns = scalar_run(scalar, opts, "sim.scalar", scalar_events);
  out.push_back({"sim.scalar_ns_per_event", scalar_ns / scalar_events, "ns"});
  out.push_back({"sim.events_per_traj.scalar", scalar_events / static_cast<double>(n), "count"});

  const sim::BatchExecutor batch(model);
  const std::uint32_t width = sim::BatchExecutor::kDefaultLaneWidth;
  double batch_events = 0;
  sim::BatchWorkspace bws;
  const double batch_ns = p.time_ns("sim.batch", 3, 1, [&] {
    batch_events = 0;
    for (std::uint64_t first = 0; first < n; first += width) {
      const auto lanes = static_cast<std::uint32_t>(std::min<std::uint64_t>(width, n - first));
      batch.run(kSeed, first, lanes, opts, bws);
      for (std::uint32_t l = 0; l < lanes; ++l)
        batch_events += static_cast<double>(bws.results[l].events);
    }
  });
  out.push_back({"sim.batch_ns_per_event", batch_ns / batch_events, "ns"});
  out.push_back({"sim.events_per_traj.batch", batch_events / static_cast<double>(n), "count"});

  const lang::CompiledPolicy policy = lang::compile_policy(script);
  const fmt::FaultMaintenanceTree scripted = lang::apply_policy(policy, model);
  const lang::BoundPolicy bound = lang::bind_policy(policy, scripted);
  const sim::FmtSimulator policy_sim(scripted);
  sim::SimOptions policy_opts = opts;
  policy_opts.bound_policy = &bound;
  double policy_events = 0;
  const double policy_ns = scalar_run(policy_sim, policy_opts, "sim.policy", policy_events);
  out.push_back({"sim.policy_ns_per_event", policy_ns / policy_events, "ns"});

  // Gate settle: GateEvaluator::set_leaf on a seeded sequence of leaf flips.
  const sim::GateEvaluator& eval = scalar.evaluator();
  const auto leaves = static_cast<std::uint32_t>(model.leaves().size());
  std::mt19937_64 rng(kSeed);
  std::vector<std::uint32_t> flips(100000);
  for (std::uint32_t& f : flips) f = static_cast<std::uint32_t>(rng() % leaves);
  sim::GateEvaluator::State state;
  eval.reset(state);
  std::vector<char> failed(leaves, 0);
  const double settle_ns = p.time_ns("sim.gate_settle", 5, flips.size(), [&] {
    for (const std::uint32_t leaf : flips) {
      failed[leaf] = static_cast<char>(!failed[leaf]);
      eval.set_leaf(state, leaf, failed[leaf] != 0);
    }
    g_sink += eval.value(state, model.top()) ? 1 : 0;
  });
  out.push_back({"sim.gate_settle_ns", settle_ns, "ns"});
  return {scalar_ns / static_cast<double>(n), batch_ns / static_cast<double>(n)};
}

void probe_util(const Config& cfg, Probe& p, Metrics& out) {
  const std::uint64_t draws = cfg.sizes.layer_draws;
  const Distribution exp = Distribution::exponential(0.1);
  RandomStream rs(kSeed, 0);
  out.push_back({"util.exp_draw_ns", p.time_ns("util.exp_draw", 5, draws, [&] {
                   double acc = 0;
                   for (std::uint64_t i = 0; i < draws; ++i) acc += exp.sample(rs);
                   g_sink += static_cast<std::uint64_t>(acc);
                 }), "ns"});
  CounterStream cs(kSeed, 0);
  out.push_back({"util.counter_draw_ns", p.time_ns("util.counter_draw", 5, draws, [&] {
                   std::uint64_t acc = 0;
                   for (std::uint64_t i = 0; i < draws; ++i) acc ^= cs();
                   g_sink += acc;
                 }), "ns"});
}

/// The runner scaling curve (both engines), the aggregation pass and the
/// heap the per-trajectory summaries hold. The curve has the points t1..t4
/// on every machine: a point above the run's thread count repeats the
/// highest point that ran, and the scaling efficiency is taken there.
void probe_smc(const Config& cfg, Probe& p, const fmt::FaultMaintenanceTree& model,
               Metrics& out) {
  constexpr unsigned kScalingPoints = 4;
  const unsigned top = std::min(cfg.threads, kScalingPoints);
  for (const Engine engine : {Engine::Scalar, Engine::Batch}) {
    // Batch runs about twice as fast; give it twice the work per point.
    const std::uint64_t runs = cfg.sizes.layer_scaling_runs * (engine == Engine::Batch ? 2 : 1);
    const std::string prefix = std::string("smc.") + engine_name(engine);
    std::vector<double> rate;  // rate[n - 1]: trajectories per second at n threads
    for (unsigned n = 1; n <= top; ++n) {
      const smc::AnalysisSettings s = settings(runs, engine, n);
      const double wall_ns = p.time_ns(prefix + ".analyze", 1, 1, [&] {
        g_sink += smc::analyze(model, s).trajectories;
      });
      rate.push_back(static_cast<double>(runs) / (wall_ns * 1e-9));
    }
    for (unsigned n = 1; n <= kScalingPoints; ++n)
      out.push_back({prefix + "_traj_per_s.t" + std::to_string(n), rate[std::min(n, top) - 1],
                     "1/s"});
    out.push_back({prefix + "_scaling_eff", rate[top - 1] / (top * rate[0]), "ratio"});
  }

  // One analyze-sized run through the scalar runner, with a sampler thread
  // tracking the heap while the per-trajectory summaries are held.
  const sim::FmtSimulator simulator(model);
  const smc::ParallelRunner runner(simulator, cfg.threads);
  const smc::AnalysisSettings s = settings(cfg.sizes.analyze_runs, Engine::Scalar, cfg.threads);
  const double before = heap_bytes();
  std::atomic<bool> done{false};
  double peak = before;
  std::thread sampler([&] {
    while (!done.load()) {
      peak = std::max(peak, heap_bytes());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  smc::BatchResult result = runner.run(kSeed, 0, s.trajectories, sim_options());
  done = true;
  sampler.join();
  peak = std::max(peak, heap_bytes());  // the result still holds the summaries
  out.push_back({"smc.retained_bytes_per_traj",
                 (peak - before) / static_cast<double>(s.trajectories), "B"});
  out.push_back({"smc.aggregate_ms", p.time_ns("smc.aggregate", 5, 1, [&] {
                   g_sink += smc::aggregate_kpis(result, s).trajectories;
                 }) / 1e6, "ms"});
}

/// Fingerprint, result encoding and both cache tiers over one entry per
/// corridor joint; the fleet layer's corridor, plan and aggregation.
void probe_batch_fleet(const Config& cfg, Probe& p, const fmt::FaultMaintenanceTree& model,
                       Metrics& out) {
  const std::size_t reps = cfg.sizes.layer_reps;
  const std::size_t entries = cfg.sizes.fleet_joints;
  smc::AnalysisSettings s = settings(cfg.sizes.fleet_runs, Engine::Batch, cfg.threads);
  const smc::KpiReport report = smc::analyze(model, s);
  out.push_back({"batch.fingerprint_us", p.time_ns("batch.fingerprint", reps, 100, [&] {
                   for (int i = 0; i < 100; ++i)
                     g_sink += batch::settings_fingerprint(s).hex().size();
                 }) / 1e3, "us"});
  std::vector<batch::CacheKey> keys;
  for (std::size_t i = 0; i < entries; ++i) {
    s.seed = kSeed + 1 + i;
    keys.push_back(batch::kpi_cache_key(model, s));
  }
  const std::string encoded = batch::encode_report(keys[0], report);
  out.push_back({"batch.encode_report_us", p.time_ns("batch.encode_report", reps, 10, [&] {
                   for (int i = 0; i < 10; ++i)
                     g_sink += batch::encode_report(keys[0], report).size();
                 }) / 1e3, "us"});
  out.push_back({"batch.decode_report_us", p.time_ns("batch.decode_report", reps, 10, [&] {
                   for (int i = 0; i < 10; ++i)
                     g_sink += batch::decode_report(keys[0], encoded).trajectories;
                 }) / 1e3, "us"});

  const std::string dir = cfg.work_dir + "/layers.cache";
  remove_tree(dir);
  {
    batch::ResultCache disk(dir);
    std::size_t i = 0;
    out.push_back({"batch.cache_put_disk_us",
                   p.time_ns("batch.cache_put_disk", entries, 1, [&] {
                     disk.put(keys[i++], report);
                   }) / 1e3, "us"});
  }
  out.push_back({"batch.cache_open_ms", p.time_ns("batch.cache_open", 5, 1, [&] {
                   const batch::ResultCache opened(dir);
                   g_sink += opened.size();
                 }) / 1e6, "ms"});
  {
    batch::ResultCache disk(dir);
    std::size_t i = 0;
    out.push_back({"batch.cache_get_disk_us",
                   p.time_ns("batch.cache_get_disk", entries, 1, [&] {
                     g_sink += disk.get(keys[i++]).has_value() ? 1 : 0;
                   }) / 1e3, "us"});
    if (disk.stats().disk_hits != entries)
      throw std::runtime_error("disk-tier probe missed entries");
  }
  remove_tree(dir);
  {
    batch::ResultCache memory;
    std::size_t i = 0;
    out.push_back({"batch.cache_put_mem_us", p.time_ns("batch.cache_put_mem", entries, 1, [&] {
                     memory.put(keys[i++], report);
                   }) / 1e3, "us"});
    i = 0;
    out.push_back({"batch.cache_get_mem_us", p.time_ns("batch.cache_get_mem", entries, 1, [&] {
                     g_sink += memory.get(keys[i++]).has_value() ? 1 : 0;
                   }) / 1e3, "us"});
  }

  fleet::CorridorSpec spec;
  spec.joints = cfg.sizes.fleet_joints;
  spec.seed = cfg.seed;
  fleet::FleetOptions options;
  options.settings = settings(cfg.sizes.fleet_runs, Engine::Batch, 0);
  options.threads = cfg.threads;
  fleet::Corridor corridor;
  out.push_back({"fleet.generate_ms", p.time_ns("fleet.generate", 5, 1, [&] {
                   corridor = fleet::generate_corridor(model, spec);
                 }) / 1e6, "ms"});
  out.push_back({"fleet.plan_ms", p.time_ns("fleet.plan", 5, 1, [&] {
                   g_sink += fleet::fleet_plan(corridor, options).jobs.size();
                 }) / 1e6, "ms"});
  std::vector<fleet::JointSummary> summaries;
  for (const fleet::CorridorJoint& j : corridor.joints)
    summaries.push_back({j.name, j.scale, report});
  out.push_back({"fleet.aggregate_ms", p.time_ns("fleet.aggregate", 5, 1, [&] {
                   g_sink += fleet::aggregate_fleet(corridor, summaries, options).joints;
                 }) / 1e6, "ms"});
}

void probe_serve_lang(const Config& cfg, Probe& p, const std::string& text,
                      const std::string& script, Metrics& out) {
  const std::size_t reps = cfg.sizes.layer_reps;
  serve::Request request;
  request.model_text = text;
  request.settings.horizon = kHorizon;
  request.settings.trajectories = cfg.sizes.serve_sweep_runs;
  request.settings.seed = cfg.seed;
  request.frequencies = {2, 4};
  request.has_policy = true;
  const std::string wire = serve::encode_request(request);
  out.push_back({"serve.parse_request_us", p.time_ns("serve.parse_request", reps, 1, [&] {
                   g_sink += serve::parse_request(wire).frequencies.size();
                 }) / 1e3, "us"});
  out.push_back({"serve.prepare_ms", p.time_ns("serve.prepare", reps, 1, [&] {
                   g_sink += serve::prepare(request, "models").jobs.size();
                 }) / 1e6, "ms"});
  serve::SessionConfig config;
  config.threads = cfg.threads;
  serve::Session session(std::move(config));
  if (!session.submit(request).take().all_done())
    throw std::runtime_error("serve probe request failed");
  std::vector<serve::Ticket> tickets;
  out.push_back({"serve.submit_hit_us", p.time_ns("serve.submit_hit", reps, 1, [&] {
                   tickets.push_back(session.submit(request));
                 }) / 1e3, "us"});
  for (serve::Ticket& t : tickets)
    if (!t.take().all_done()) throw std::runtime_error("serve probe hit failed");

  out.push_back({"lang.compile_us", p.time_ns("lang.compile", reps, 1, [&] {
                   g_sink += lang::compile_policy(script).calendars.size();
                 }) / 1e3, "us"});
}

}  // namespace

KernelCost run_layer_suite(const Config& cfg, Metrics& out) {
  Probe p;
  const std::string text = read_file("models/ei_joint.fmt");
  const std::string script = read_file("examples/policies/condition_based.mpl");
  const fmt::FaultMaintenanceTree model = fmt::parse_fmt(text);
  probe_fmt(cfg, p, text, out);
  const auto [scalar_s, batch_s] = probe_sim(cfg, p, model, script, out);
  probe_util(cfg, p, out);
  probe_smc(cfg, p, model, out);
  probe_batch_fleet(cfg, p, model, out);
  probe_serve_lang(cfg, p, text, script, out);
  return {scalar_s * 1e-9, batch_s * 1e-9};
}

}  // namespace perfbench
