// The workloads. Each drives the public entry points a user reaches:
//   analyze     cli::run_on_text("analyze"), scalar engine (the default)
//   fleet_cold  cli::run_on_text("fleet --engine batch --cache-dir <fresh>")
//   serve_mix   serve::request_over_socket against an in-process
//               serve::Server fronting a default serve::Session
// and checks every op's output (see each class).
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "batch/result_cache.hpp"
#include "cli/cli.hpp"
#include "common.hpp"
#include "fmt/parser.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "serve/client.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace {

using namespace fmtree;

constexpr const char* kEiJoint = "models/ei_joint.fmt";
constexpr const char* kCompressor = "models/compressor.fmt";
constexpr const char* kScript = "examples/policies/condition_based.mpl";
constexpr const char* kReference = "perfbench/reference.json";
/// Analysis seed of analyze and the fleets: fixed, so a report can be
/// compared byte for byte across ops, runs and commits. The workload seed
/// moves the corridor and the edit/request sequences instead.
constexpr std::uint64_t kAnalysisSeed = 1;
constexpr double kHorizon = 10.0;

/// Times one op's window: wall and process CPU.
struct Stopwatch {
  double wall0 = wall_now();
  double cpu0 = cpu_now();
  void stop(OpResult& r) const {
    r.latency_s = wall_now() - wall0;
    r.cpu_s = cpu_now() - cpu0;
  }
};

std::uint64_t mix(std::uint64_t x) {  // splitmix64 finaliser
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Adds the counters of an "fmtree.metrics/v1" document into `acc`.
void add_counters(const std::string& metrics_json, std::map<std::string, double>& acc) {
  const json::Value doc = json::parse(metrics_json);
  const json::Value* counters = doc.find("counters");
  if (counters == nullptr) throw std::runtime_error("metrics document without counters");
  for (const auto& [name, value] : counters->members)
    acc[name] += static_cast<double>(value.as_u64());
}

double counter(const std::map<std::string, double>& acc, const std::string& name) {
  const auto it = acc.find(name);
  return it == acc.end() ? 0.0 : it->second;
}

/// Workload-phase metrics every workload reports from its traced ops.
void emit_pool_counts(const std::map<std::string, double>& acc, double ops,
                      double hits, double lookups, Metrics& out) {
  out.push_back({"batch.tasks", ops > 0 ? counter(acc, "batch.tasks") / ops : 0.0, "count"});
  out.push_back({"batch.steals", ops > 0 ? counter(acc, "batch.steals") / ops : 0.0, "count"});
  out.push_back({"batch.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio"});
}

// ---------------------------------------------------------------- analyze

/// One `fmtree analyze models/ei_joint.fmt --runs N` per op. Checks: the
/// report is byte-identical across ops (and, at the full size, to the
/// digest recorded in perfbench/reference.json, hence across runs), and
/// the reference E[failures] lies inside the report's CI.
class AnalyzeWorkload final : public Workload {
public:
  AnalyzeWorkload(Config config, bool traced) : cfg_(std::move(config)), traced_(traced) {}

  void setup() override {
    text_ = read_file(kEiJoint);
    (void)fmt::parse_fmt(text_);
    const json::Value ref = json::parse(read_file(kReference));
    const json::Value& a = *ref.find("analyze");
    ref_runs_ = a.find("runs")->as_u64();
    ref_digest_ = a.find("report_digest")->text;
    ref_failures_ = a.find("expected_failures")->as_double();
    opts_ = cli::parse_args({"analyze", kEiJoint, "--runs",
                             std::to_string(cfg_.sizes.analyze_runs), "--seed",
                             std::to_string(kAnalysisSeed), "--horizon",
                             std::to_string(kHorizon), "--threads",
                             std::to_string(cfg_.threads)});
    if (traced_) {
      opts_.metrics_path = cfg_.work_dir + "/analyze.metrics.json";
      opts_.trace_path = cfg_.work_dir + "/analyze.trace.json";
    }
    // Warm-up: a tenth of an op spins the runner's threads and faults in
    // the code; long enough that thread start-up jitter does not dominate.
    cli::Options warm = opts_;
    warm.runs = opts_.runs / 10;
    warm.metrics_path.clear();
    warm.trace_path.clear();
    std::ostringstream sink;
    if (cli::run_on_text(warm, text_, sink) != 0)
      throw std::runtime_error("analyze warm-up failed");
  }

  Phase run(double seconds) override {
    return run_sequential(seconds, [&] {
      OpResult r;
      std::ostringstream out;
      const Stopwatch sw;
      const int code = cli::run_on_text(opts_, text_, out);
      sw.stop(r);
      r.trajectories = static_cast<double>(opts_.runs);
      r.ok = code == 0 && check(out.str());
      if (traced_) add_counters(read_file(opts_.metrics_path), counters_);
      return r;
    });
  }

  void layer_metrics(Metrics& out) override {
    emit_pool_counts(counters_, 0, 0, 0, out);
  }

  const char* engine() const override { return "scalar"; }

private:
  bool check(const std::string& report) {
    if (first_.empty()) first_ = report;
    if (report != first_) return false;
    if (opts_.runs == ref_runs_ && digest(report) != ref_digest_) return false;
    // "| expected failures    | 0.3366 [0.3348, 0.3384]    |"
    const std::size_t row = report.find("| expected failures");
    if (row == std::string::npos) return false;
    const std::size_t cell = report.find('|', row + 1);
    double point = 0, lo = 0, hi = 0;
    if (std::sscanf(report.c_str() + cell + 1, " %lf [%lf, %lf]", &point, &lo, &hi) != 3)
      return false;
    return lo <= ref_failures_ && ref_failures_ <= hi;
  }

  Config cfg_;
  bool traced_;
  std::string text_;
  cli::Options opts_;
  std::uint64_t ref_runs_ = 0;
  std::string ref_digest_;
  double ref_failures_ = 0.0;
  std::string first_;
  std::map<std::string, double> counters_;
};

// ------------------------------------------------------------- fleet_cold

/// One `fmtree fleet --joints J --engine batch --cache-dir <fresh>` per op.
/// Checks: exactly J misses and J cache entries, and the rendering (cache
/// line aside) is byte-identical across ops. After its check, outside its
/// timed window, an op removes its cache directory and syncs the file
/// system, so no op pays for the write-back of an earlier op's files.
class FleetColdWorkload final : public Workload {
public:
  FleetColdWorkload(Config config, bool traced) : cfg_(std::move(config)), traced_(traced) {}

  ~FleetColdWorkload() override { remove_tree(dir_); }

  void setup() override {
    text_ = read_file(kEiJoint);
    (void)fmt::parse_fmt(text_);
    opts_ = cli::parse_args(
        {"fleet", kEiJoint, "--joints", std::to_string(cfg_.sizes.fleet_joints), "--runs",
         std::to_string(cfg_.sizes.fleet_runs), "--engine", "batch", "--fleet-seed",
         std::to_string(cfg_.seed), "--seed", std::to_string(kAnalysisSeed), "--horizon",
         std::to_string(kHorizon), "--threads", std::to_string(cfg_.threads)});
    if (traced_) {
      opts_.metrics_path = cfg_.work_dir + "/fleet_cold.metrics.json";
      opts_.trace_path = cfg_.work_dir + "/fleet_cold.trace.json";
    }
    dir_ = cfg_.work_dir + "/fleet_cold.cache";
    cli::Options warm = opts_;  // a tenth of the corridor, no cache
    warm.joints = opts_.joints / 10;
    warm.metrics_path.clear();
    warm.trace_path.clear();
    std::ostringstream sink;
    if (cli::run_on_text(warm, text_, sink) != 0)
      throw std::runtime_error("fleet warm-up failed");
  }

  Phase run(double seconds) override {
    return run_sequential(seconds, [&] {
      const std::string dir = dir_ + "/" + std::to_string(ops_);
      cli::Options o = opts_;
      o.cache_dir = dir;
      OpResult r;
      std::ostringstream out;
      const Stopwatch sw;
      const int code = cli::run_on_text(o, text_, out);
      sw.stop(r);
      const std::string text = out.str();
      const std::string expect =
          "cache: 0 hits, " + std::to_string(opts_.joints) + " misses (" + dir + ")\n";
      const std::size_t at = text.rfind("cache: ");
      r.ok = code == 0 && at != std::string::npos && text.substr(at) == expect &&
             entries(dir) == opts_.joints;
      if (r.ok) {
        const std::string body = text.substr(0, at);
        if (first_.empty()) first_ = body;
        r.ok = body == first_;
      }
      r.trajectories = static_cast<double>(opts_.joints * opts_.runs);
      if (traced_) add_counters(read_file(opts_.metrics_path), counters_);
      remove_tree(dir);
      sync_fs(dir_);
      ++ops_;
      return r;
    });
  }

  void layer_metrics(Metrics& out) override {
    emit_pool_counts(counters_, ops_, counter(counters_, "batch.cache.hits"),
                     counter(counters_, "batch.cache.hits") +
                         counter(counters_, "batch.cache.misses"),
                     out);
  }

  const char* engine() const override { return "batch"; }

private:
  static std::size_t entries(const std::string& dir) {
    std::size_t n = 0;
    for (const auto& e : std::filesystem::directory_iterator(dir))
      if (e.is_regular_file() && e.path().extension() == ".json") ++n;
    return n;
  }

  Config cfg_;
  bool traced_;
  std::string text_;
  cli::Options opts_;
  std::string dir_;
  std::string first_;
  std::map<std::string, double> counters_;
  double ops_ = 0;
};

// -------------------------------------------------------------- serve_mix

/// Three closed-loop clients (each sends its next request when the reply to
/// the previous one arrives, like `--connect` callers) against a daemon at
/// the default SessionConfig (memory cache, queue limit 64). No traffic
/// data exists for the daemon, so the seeded request mix is a design choice
/// (its basis and measured shares are in perfbench/layers.json):
///   35% fresh ei_joint 2-frequency sweeps        -> cache misses
///   35% one of 4 popular 1-frequency sweeps      -> hits, in-flight dedup
///       (the popular set changes every 16 requests of a client, so hot
///       keys keep arriving cold, often at several clients at once)
///   15% condition_based.mpl scripted sweeps      -> policy VM in the kernel
///   15% adaptive compressor analyses             -> sequential fallback
/// Checks: every response is all-done, and after the run every distinct
/// request is re-submitted to an in-process Session through submit_jobs;
/// each served job must match it byte for byte. A record keeps only its
/// (client, serial); verify rebuilds the request by replaying the client's
/// seeded generator, so the benchmark holds no request text while the
/// program runs.
class ServeMixWorkload final : public Workload {
public:
  static constexpr unsigned kClients = 3;
  static constexpr std::uint64_t kPopular = 4;
  static constexpr std::uint64_t kPopularEvery = 16;

  ServeMixWorkload(Config config, bool traced) : cfg_(std::move(config)), traced_(traced) {}

  ~ServeMixWorkload() override { stop_daemon(); }

  void setup() override {
    ei_ = read_file(kEiJoint);
    compressor_ = read_file(kCompressor);
    script_ = read_file(kScript);
    (void)fmt::parse_fmt(ei_);
    (void)fmt::parse_fmt(compressor_);
    static std::atomic<int> instance{0};
    socket_ = cfg_.work_dir + "/serve." + std::to_string(instance++) + ".sock";
    start_daemon(traced_);
    // Warm-up: a sweep and a scripted sweep, on a fixed seed no timed request
    // uses, start the pool and fault in the kernel and the policy VM like the
    // other workloads' warm-up runs (3 jobs in a traced daemon's counters).
    // An adaptive request is left out: its sequential run alone would make
    // up most of the set-up and spread it from run to run.
    const std::uint64_t seed = 0x3a3a3a3aULL;
    for (const serve::Request& r : {sweep({kGrid[0], kGrid[1]}, seed), scripted(seed)})
      if (!serve::request_over_socket(socket_, r).all_done())
        throw std::runtime_error("serve_mix warm-up failed");
  }

  Phase run(double seconds) override {
    const double start = wall_now();
    const double deadline = start + seconds;
    const double cpu0 = cpu_now();
    double last_end = start;
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kClients; ++c) {
      clients.emplace_back([this, c, deadline, &last_end] {
        std::mt19937_64 rng = client_rng(c);
        std::uint32_t serial = 0;
        while (wall_now() < deadline) {
          const auto [kind, request] = next_request(rng, c, serial);
          Record rec{kind, c, serial++, {}, 0.0, false, false};
          const double t0 = wall_now();
          try {
            const serve::Response response = serve::request_over_socket(socket_, request);
            rec.latency_s = wall_now() - t0;
            rec.ok = response.all_done() && response.jobs.size() == expected_jobs(request);
            rec.hit = true;
            for (const serve::JobOutcome& j : response.jobs) rec.hit = rec.hit && j.cache_hit;
            rec.digest = response_digest(response);
            const std::lock_guard lock(mutex_);
            for (const serve::JobOutcome& j : response.jobs)
              if (!j.cache_hit) simulated_[j.key.id()] = static_cast<double>(j.report.trajectories);
          } catch (const std::exception&) {
            rec.latency_s = wall_now() - t0;  // refused (R120) or failed
          }
          const std::lock_guard lock(mutex_);
          last_end = std::max(last_end, wall_now());
          records_.push_back(std::move(rec));
        }
      });
    }
    for (std::thread& t : clients) t.join();
    Phase phase;
    for (const Record& r : records_) {
      phase.latencies_s.push_back(r.latency_s);
      ++phase.attempted;
      if (!r.ok) ++phase.failed;
    }
    phase.wall_s = last_end - start;
    phase.cpu_s = cpu_now() - cpu0;
    for (const auto& [key, traj] : simulated_) phase.trajectories += traj;
    return phase;
  }

  bool verify(Phase& phase) override {
    serve::SessionConfig config;
    config.threads = cfg_.threads;
    const std::vector<std::vector<std::string>> texts = replay();
    std::map<std::string, std::size_t> distinct;  // request text -> ticket index
    for (const Record& r : records_)
      if (r.ok) distinct.emplace(texts[r.client][r.serial], 0);
    std::size_t jobs = 0;
    std::vector<serve::PreparedRequest> prepared;
    for (auto& [text, index] : distinct) {
      index = prepared.size();
      prepared.push_back(serve::prepare(serve::parse_request(text), config.model_root));
      jobs += prepared.back().jobs.size();
    }
    config.queue_limit = std::max<std::size_t>(jobs, 1);
    serve::Session reference(config);
    std::vector<serve::Ticket> tickets;
    for (serve::PreparedRequest& p : prepared)
      tickets.push_back(reference.submit_jobs(std::move(p.jobs)));
    std::vector<std::string> expected;
    for (serve::Ticket& t : tickets) expected.push_back(response_digest(t.take()));
    bool all = true;
    for (const Record& r : records_) {
      if (!r.ok) continue;
      if (r.digest != expected[distinct.at(texts[r.client][r.serial])]) {
        ++phase.failed;
        all = false;
      }
    }
    return all;
  }

  void layer_metrics(Metrics& out) override {
    std::map<std::string, double> acc;
    add_counters(registry_.to_json(), acc);
    std::vector<double> hit, miss;
    std::vector<const Record*> fresh;
    for (const Record& r : records_) {
      if (!r.ok) continue;
      (r.hit ? hit : miss).push_back(r.latency_s * 1e3);
      if (r.kind == Kind::Sweep && !r.hit && fresh.size() < 12) fresh.push_back(&r);
    }
    // Queue wait: a miss's loaded latency minus the same request's latency
    // on an idle daemon (a fresh session, requests sent one at a time).
    stop_daemon();
    start_daemon(/*traced=*/false);
    const std::vector<std::vector<std::string>> texts = replay();
    std::vector<double> loaded, idle;
    for (const Record* r : fresh) {
      const serve::Request request = serve::parse_request(texts[r->client][r->serial]);
      const double t0 = wall_now();
      (void)serve::request_over_socket(socket_, request);
      idle.push_back((wall_now() - t0) * 1e3);
      loaded.push_back(r->latency_s * 1e3);
    }
    stop_daemon();
    const double jobs = counter(acc, "serve.jobs");
    emit_pool_counts(acc, static_cast<double>(records_.size()),
                     counter(acc, "serve.cache_hits"), jobs, out);
    out.push_back({"serve.hit_latency_ms", median(hit), "ms"});
    out.push_back({"serve.miss_latency_ms", median(miss), "ms"});
    out.push_back({"serve.queue_wait_ms", median(loaded) - median(idle), "ms"});
    out.push_back({"serve.dedup_ratio", jobs > 0 ? counter(acc, "serve.dedup_hits") / jobs : 0.0,
                   "ratio"});
    out.push_back({"serve.rejected", counter(acc, "serve.rejected"), "count"});
  }

  const char* engine() const override { return "scalar"; }

  std::string info() const override {
    // Per-kind request count, hit count and median latency (ms).
    std::string out = "\"clients\": " + std::to_string(kClients);
    const char* names[] = {"sweep", "popular", "script", "adaptive"};
    for (int k = 0; k < 4; ++k) {
      std::vector<double> lat;
      std::size_t hits = 0;
      for (const Record& r : records_)
        if (static_cast<int>(r.kind) == k) {
          lat.push_back(r.latency_s * 1e3);
          hits += r.hit ? 1 : 0;
        }
      out += std::string(", \"") + names[k] + "\": [" + std::to_string(lat.size()) + ", " +
             std::to_string(hits) + ", " + std::to_string(median(lat)) + "]";
    }
    return out;
  }

private:
  enum class Kind { Sweep, Popular, Script, Adaptive };
  static constexpr std::array<double, 8> kGrid = {0.5, 1, 2, 3, 4, 6, 8, 12};

  struct Record {
    Kind kind;
    unsigned client;
    std::uint32_t serial;  ///< the client's request number
    std::string digest;    ///< response_digest of the reply
    double latency_s;
    bool ok;
    bool hit;  ///< every job resolved from the cache
  };

  serve::Request sweep(std::vector<double> frequencies, std::uint64_t seed) const {
    serve::Request r;
    r.model_text = ei_;
    r.settings.horizon = kHorizon;
    r.settings.trajectories = cfg_.sizes.serve_sweep_runs;
    r.settings.seed = seed;
    r.frequencies = std::move(frequencies);
    r.has_policy = true;
    return r;
  }

  serve::Request scripted(std::uint64_t seed) const {
    serve::Request r;
    r.model_text = ei_;
    r.settings.horizon = kHorizon;
    r.settings.trajectories = cfg_.sizes.serve_sweep_runs;
    r.settings.seed = seed;
    r.scripts.push_back({script_, {}});
    r.has_policy = true;
    return r;
  }

  serve::Request adaptive(std::uint64_t seed) const {
    serve::Request r;
    r.model_text = compressor_;
    r.settings.horizon = kHorizon;
    r.settings.trajectories = cfg_.sizes.serve_adaptive_cap;
    r.settings.seed = seed;
    r.settings.target_relative_error = 0.05;
    return r;
  }

  std::mt19937_64 client_rng(unsigned client) const {
    return std::mt19937_64(mix(cfg_.seed * 131 + client));
  }

  /// The canonical encode_request text of every request each client sent,
  /// indexed [client][serial], regenerated from the clients' seeds.
  std::vector<std::vector<std::string>> replay() const {
    std::vector<std::uint32_t> sent(kClients, 0);
    for (const Record& r : records_) sent[r.client] = std::max(sent[r.client], r.serial + 1);
    std::vector<std::vector<std::string>> texts(kClients);
    for (unsigned c = 0; c < kClients; ++c) {
      std::mt19937_64 rng = client_rng(c);
      for (std::uint32_t serial = 0; serial < sent[c]; ++serial)
        texts[c].push_back(serve::encode_request(next_request(rng, c, serial).second));
    }
    return texts;
  }

  std::pair<Kind, serve::Request> next_request(std::mt19937_64& rng, unsigned client,
                                               std::uint64_t serial) const {
    const double u = std::uniform_real_distribution<double>(0, 1)(rng);
    const std::uint64_t fresh = mix(mix(cfg_.seed) ^ (std::uint64_t{client} << 40) ^ serial);
    if (u < 0.35) {
      const std::size_t a = rng() % kGrid.size();
      const std::size_t b = (a + 1 + rng() % (kGrid.size() - 1)) % kGrid.size();
      return {Kind::Sweep, sweep({kGrid[a], kGrid[b]}, fresh)};
    }
    if (u < 0.70) {
      const std::uint64_t k = rng() % kPopular;
      const std::uint64_t generation = serial / kPopularEvery;
      return {Kind::Popular, sweep({kGrid[(generation + k) % kGrid.size()]},
                                   mix(mix(cfg_.seed ^ 0xb0b0) + generation * kPopular + k))};
    }
    if (u < 0.85) return {Kind::Script, scripted(fresh)};
    return {Kind::Adaptive, adaptive(fresh)};
  }

  static std::size_t expected_jobs(const serve::Request& r) {
    return r.has_policy ? r.frequencies.size() + r.scripts.size() : 1;
  }

  static std::string response_digest(const serve::Response& response) {
    std::string all;
    for (const serve::JobOutcome& j : response.jobs) {
      all += j.label;
      all += '\n';
      all += serve::job_state_name(j.state);
      all += '\n';
      if (j.state == serve::JobState::Done) all += batch::encode_report(j.key, j.report);
    }
    return digest(all) + ":" + std::to_string(all.size());
  }

  void start_daemon(bool traced) {
    serve::SessionConfig config;
    config.threads = cfg_.threads;
    if (traced) config.telemetry = {&registry_, &tracer_, nullptr};
    stop_.reset();
    session_ = std::make_unique<serve::Session>(std::move(config));
    serve::ServerConfig server_config;
    server_config.socket_path = socket_;
    server_config.stop = &stop_;
    server_ = std::make_unique<serve::Server>(*session_, server_config);
    server_thread_ = std::thread([this] {
      try {
        server_->run();
      } catch (const std::exception& e) {
        server_error_ = e.what();
      }
    });
    // Ready once a connection is accepted (the probe's empty document is
    // answered with an R110 error event and never reaches the session). The
    // poll interval is short so that setup_s times the daemon's start, not
    // the poll.
    const double give_up = wall_now() + 5.0;
    while (wall_now() < give_up) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, socket_.c_str(), sizeof addr.sun_path - 1);
      const bool up = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0;
      if (up) ::shutdown(fd, SHUT_WR);
      ::close(fd);
      if (up) return;
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    stop_daemon();  // joins the server thread before its error is read
    throw std::runtime_error("serve daemon did not start: " + server_error_);
  }

  void stop_daemon() {
    stop_.request_stop();
    if (server_thread_.joinable()) server_thread_.join();
    server_.reset();
    session_.reset();
  }

  Config cfg_;
  bool traced_;
  std::string ei_, compressor_, script_;
  std::string socket_;

  obs::MetricsRegistry registry_;
  obs::Tracer tracer_;
  smc::RunControl stop_;
  std::unique_ptr<serve::Session> session_;
  std::unique_ptr<serve::Server> server_;
  std::string server_error_;
  std::thread server_thread_;

  std::mutex mutex_;
  std::vector<Record> records_;
  std::map<std::string, double> simulated_;  ///< key id -> trajectories
};

}  // namespace

std::unique_ptr<Workload> make_workload(const Config& config, bool traced) {
  if (config.workload == "analyze") return std::make_unique<AnalyzeWorkload>(config, traced);
  if (config.workload == "fleet_cold") return std::make_unique<FleetColdWorkload>(config, traced);
  if (config.workload == "serve_mix") return std::make_unique<ServeMixWorkload>(config, traced);
  throw std::invalid_argument("unknown workload '" + config.workload + "'");
}

}  // namespace perfbench
