// `fmtree fleet` end to end against the committed corridor goldens: the CI
// corridor renders byte-identical on both engines in-process and through a
// daemon, and a failed shard's F101 warning is the one fleet::analyze_fleet
// reports — every executor folds its shards through fleet::fold_fleet.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/cli.hpp"
#include "fleet/corridor.hpp"
#include "fleet/fleet.hpp"
#include "fmt/parser.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "smc/run_control.hpp"
#include "util/diagnostics.hpp"
#include "util/fault_injection.hpp"

namespace fmtree::cli {
namespace {

const std::string kSource = FMTREE_SOURCE_DIR;
const std::string kModelPath = kSource + "/models/ei_joint.fmt";

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// `fleet <ei_joint> <flags>`, split at spaces.
std::vector<std::string> fleet_args(const std::string& flags) {
  std::vector<std::string> args = {"fleet", kModelPath};
  std::istringstream in(flags);
  for (std::string flag; in >> flag;) args.push_back(flag);
  return args;
}

/// The corridor of the CI `fleet` job.
std::vector<std::string> corridor_args() {
  std::vector<std::string> args = fleet_args(
      "--joints 25 --fleet-seed 7 --jitter 0.1 --coupling 0.25 --horizon 20 "
      "--runs 2000 --seed 1 --crews 1 --worst 5");
  args.insert(args.end(), {"--policy", kSource + "/examples/policies/shared_crew.mpl"});
  return args;
}

std::string golden(const std::string& engine) {
  return read_file(kSource + "/tests/fleet/goldens/corridor_" + engine + ".txt");
}

std::string render(std::vector<std::string> args, int expected_code = kExitOk) {
  std::ostringstream out;
  EXPECT_EQ(run_on_text(parse_args(args), read_file(kModelPath), out), expected_code);
  return out.str();
}

std::string without_cache_line(const std::string& text) {
  std::istringstream in(text);
  std::string line, kept;
  while (std::getline(in, line))
    if (!line.starts_with("cache:")) kept += line + '\n';
  return kept;
}

TEST(CliFleetGolden, CorridorMatchesTheCommittedGoldensOnBothEngines) {
  for (const std::string engine : {"scalar", "batch"}) {
    std::vector<std::string> args = corridor_args();
    args.insert(args.end(), {"--engine", engine});
    EXPECT_EQ(render(args), golden(engine)) << engine;
  }
}

TEST(CliFleetGolden, ServedCorridorMatchesTheGolden) {
  const std::string socket = testing::TempDir() + "fmtree_cli_fleet.sock";
  std::filesystem::remove(socket);
  serve::Session session(serve::SessionConfig{});
  smc::RunControl stop;
  serve::Server server(session, {.socket_path = socket, .stop = &stop});
  std::thread daemon([&] { server.run(); });
  for (int i = 0; i < 1000 && !std::filesystem::exists(socket); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

  std::vector<std::string> args = corridor_args();
  args.insert(args.end(), {"--engine", "scalar", "--connect", socket});
  const std::string served = render(args);
  stop.request_stop();
  daemon.join();
  EXPECT_EQ(without_cache_line(served), without_cache_line(golden("scalar")));
}

// One worker, so the first chunk, and with it the injected fault, belongs to
// joint-0000 under both executors.
TEST(CliFleetGolden, FailedShardWarningsMatchTheFacade) {
  const std::string fault = "sweep.task:error,nth=1,limit=1";
  const std::string rendered = render(
      fleet_args("--joints 6 --horizon 5 --runs 200 --threads 1 --max-retries 0 "
                 "--inject-fault " + fault),
      kExitTruncated);
  std::vector<std::string> cli_lines;
  std::istringstream in(rendered);
  for (std::string line; std::getline(in, line);)
    if (line.find("[F101]") != std::string::npos) cli_lines.push_back(line);

  fleet::CorridorSpec spec;
  spec.joints = 6;
  fleet::FleetOptions options;
  options.settings.horizon = 5;
  options.settings.trajectories = 200;
  options.settings.seed = 1;
  options.threads = 1;
  options.max_retries = 0;
  const fleet::Corridor corridor =
      fleet::generate_corridor(fmt::parse_fmt(read_file(kModelPath)), spec);
  std::vector<std::string> facade_lines;
  {
    const fault::Scope faults({fault});
    for (const Diagnostic& d : fleet::analyze_fleet(corridor, options).warnings)
      if (d.code == "F101") facade_lines.push_back("fmtree: " + format_diagnostic(d));
  }
  ASSERT_EQ(cli_lines.size(), 1u) << rendered;
  EXPECT_EQ(cli_lines, facade_lines);
  EXPECT_NE(cli_lines.front().find("'joint-0000'"), std::string::npos);
}

}  // namespace
}  // namespace fmtree::cli
