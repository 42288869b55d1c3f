#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "util/error.hpp"
#include "util/json.hpp"

namespace fmtree::cli {
namespace {

const char* kModel = R"(
  toplevel T;
  T or A B;
  A ebe phases=3 mean=5 threshold=2 repair_cost=100;
  B be exp(0.05);
  inspection I period=0.5 cost=20 targets A;
  corrective cost=5000 delay=0;
)";

const char* kMarkovianModel = R"(
  toplevel T;
  T or A B;
  A be exp(0.2);
  B be exp(0.3);
  corrective cost=0 delay=0;
)";

// ---- Argument parsing -------------------------------------------------------

TEST(CliArgs, ParsesCommandsAndFlags) {
  const Options o = parse_args({"analyze", "m.fmt", "--horizon", "25", "--runs",
                                "500", "--seed", "9", "--threads", "2",
                                "--confidence", "0.9", "--quantiles", "0.1,0.9"});
  EXPECT_EQ(o.command, Command::Analyze);
  EXPECT_EQ(o.model_path, "m.fmt");
  EXPECT_DOUBLE_EQ(o.horizon, 25);
  EXPECT_EQ(o.runs, 500u);
  EXPECT_EQ(o.seed, 9u);
  EXPECT_EQ(o.threads, 2u);
  EXPECT_DOUBLE_EQ(o.confidence, 0.9);
  ASSERT_EQ(o.quantiles.size(), 2u);
  EXPECT_DOUBLE_EQ(o.quantiles[1], 0.9);
}

TEST(CliArgs, DefaultsApplied) {
  const Options o = parse_args({"check", "m.fmt"});
  EXPECT_EQ(o.command, Command::Check);
  EXPECT_DOUBLE_EQ(o.horizon, 10);
  EXPECT_EQ(o.runs, 10000u);
  EXPECT_TRUE(o.quantiles.empty());
}

TEST(CliArgs, AllCommandsRecognized) {
  EXPECT_EQ(parse_args({"check", "m"}).command, Command::Check);
  EXPECT_EQ(parse_args({"analyze", "m"}).command, Command::Analyze);
  EXPECT_EQ(parse_args({"exact", "m"}).command, Command::Exact);
  EXPECT_EQ(parse_args({"dot", "m"}).command, Command::Dot);
  EXPECT_EQ(parse_args({"cutsets", "m"}).command, Command::CutSets);
}

TEST(CliArgs, RejectsBadUsage) {
  EXPECT_THROW(parse_args({}), DomainError);
  EXPECT_THROW(parse_args({"frobnicate", "m"}), DomainError);
  EXPECT_THROW(parse_args({"check"}), DomainError);
  EXPECT_THROW(parse_args({"check", "--horizon"}), DomainError);
  EXPECT_THROW(parse_args({"check", "m", "--bogus", "1"}), DomainError);
  EXPECT_THROW(parse_args({"check", "m", "--horizon"}), DomainError);
  EXPECT_THROW(parse_args({"check", "m", "--horizon", "abc"}), DomainError);
  EXPECT_THROW(parse_args({"check", "m", "--horizon", "0"}), DomainError);
  EXPECT_THROW(parse_args({"check", "m", "--runs", "0"}), DomainError);
  EXPECT_THROW(parse_args({"check", "m", "--runs", "1.5"}), DomainError);
  EXPECT_THROW(parse_args({"check", "m", "--confidence", "1"}), DomainError);
  EXPECT_THROW(parse_args({"check", "m", "--quantiles", "2"}), DomainError);
  EXPECT_THROW(parse_args({"check", "m", "--quantiles", ""}), DomainError);
}

TEST(CliArgs, SeedsAbove2To53StayDistinct) {
  // 2^53 and 2^53 + 1 round to the same double.
  const Options a = parse_args({"analyze", "m", "--seed", "9007199254740992"});
  const Options b = parse_args({"analyze", "m", "--seed", "9007199254740993"});
  EXPECT_EQ(a.seed, 9007199254740992u);
  EXPECT_EQ(b.seed, 9007199254740993u);
  EXPECT_EQ(parse_args({"analyze", "m", "--seed", "18446744073709551615"}).seed,
            18446744073709551615u);
}

TEST(CliArgs, CountsOutOfRangeForTheirFieldThrow) {
  // 2^32 + 1 would narrow to 1 worker; 2^64 does not fit a uint64_t.
  EXPECT_THROW(parse_args({"analyze", "m", "--threads", "4294967297"}), DomainError);
  EXPECT_THROW(parse_args({"analyze", "m", "--runs", "18446744073709551616"}),
               DomainError);
  EXPECT_THROW(parse_args({"fleet", "m", "--crews", "4294967296"}), DomainError);
  EXPECT_THROW(parse_args({"sweep", "m", "--max-retries", "4294967296"}), DomainError);
  EXPECT_EQ(parse_args({"analyze", "m", "--threads", "4294967295"}).threads,
            4294967295u);
}

TEST(CliArgs, CountsMustBePlainDecimal) {
  EXPECT_THROW(parse_args({"analyze", "m", "--runs", "-1"}), DomainError);
  EXPECT_THROW(parse_args({"analyze", "m", "--runs", "1e5"}), DomainError);
  EXPECT_THROW(parse_args({"analyze", "m", "--runs", "1e20"}), DomainError);
  EXPECT_THROW(parse_args({"analyze", "m", "--runs", "+5"}), DomainError);
  EXPECT_THROW(parse_args({"analyze", "m", "--runs", " 5"}), DomainError);
  EXPECT_THROW(parse_args({"analyze", "m", "--runs", ""}), DomainError);
  EXPECT_THROW(parse_args({"analyze", "m", "--seed", "0x10"}), DomainError);
}

// ---- Command execution ---------------------------------------------------------

Options opts(Command c, std::uint64_t runs = 2000) {
  Options o;
  o.command = c;
  o.runs = runs;
  o.horizon = 10;
  o.seed = 5;
  return o;
}

TEST(CliRun, CheckSummarizesModel) {
  std::ostringstream out;
  EXPECT_EQ(run_on_text(opts(Command::Check), kModel, out), 0);
  EXPECT_NE(out.str().find("model OK"), std::string::npos);
  EXPECT_NE(out.str().find("leaves:              2"), std::string::npos);
  EXPECT_NE(out.str().find("inspection modules:  1"), std::string::npos);
}

TEST(CliRun, AnalyzeReportsKpis) {
  Options o = opts(Command::Analyze);
  o.quantiles = {0.5};
  std::ostringstream out;
  EXPECT_EQ(run_on_text(o, kModel, out), 0);
  EXPECT_NE(out.str().find("reliability"), std::string::npos);
  EXPECT_NE(out.str().find("cost breakdown"), std::string::npos);
  EXPECT_NE(out.str().find("time-to-failure quantiles"), std::string::npos);
}

TEST(CliRun, ExactOnMarkovianModel) {
  std::ostringstream out;
  EXPECT_EQ(run_on_text(opts(Command::Exact), kMarkovianModel, out), 0);
  EXPECT_NE(out.str().find("MTTF = 2"), std::string::npos);  // 1/(0.2+0.3)
  EXPECT_NE(out.str().find("E[#failures within 10] = 5"), std::string::npos);
}

TEST(CliRun, ExactRejectsNonMarkovian) {
  std::ostringstream out;
  EXPECT_THROW(run_on_text(opts(Command::Exact), kModel, out),
               UnsupportedModelError);
}

TEST(CliRun, DotEmitsGraph) {
  std::ostringstream out;
  EXPECT_EQ(run_on_text(opts(Command::Dot), kModel, out), 0);
  EXPECT_NE(out.str().find("digraph"), std::string::npos);
}

TEST(CliRun, CutsetsListsAndRanks) {
  std::ostringstream out;
  EXPECT_EQ(run_on_text(opts(Command::CutSets), kModel, out), 0);
  EXPECT_NE(out.str().find("2 minimal cut sets"), std::string::npos);
  EXPECT_NE(out.str().find("Birnbaum"), std::string::npos);
}

TEST(CliRun, ParseErrorsPropagate) {
  std::ostringstream out;
  EXPECT_THROW(run_on_text(opts(Command::Check), "not a model", out), Error);
}

TEST(CliMain, ReportsMissingFileOnStderr) {
  std::ostringstream out, err;
  const int rc = main_impl({"check", "/nonexistent/path.fmt"}, out, err);
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err.str().find("cannot open"), std::string::npos);
}

TEST(CliArgs, CompareTakesTwoModels) {
  const Options o = parse_args({"compare", "a.fmt", "b.fmt", "--runs", "100"});
  EXPECT_EQ(o.command, Command::Compare);
  EXPECT_EQ(o.model_path, "a.fmt");
  EXPECT_EQ(o.model_path_b, "b.fmt");
  EXPECT_THROW(parse_args({"compare", "a.fmt"}), DomainError);
  EXPECT_THROW(parse_args({"compare", "a.fmt", "--runs", "5"}), DomainError);
}

TEST(CliRun, CompareDetectsBetterPolicy) {
  const std::string sparse = std::string(kModel);
  std::string frequent = sparse;
  const std::string from = "inspection I period=0.5 cost=20 targets A;";
  frequent.replace(frequent.find(from), from.size(),
                   "inspection I period=0.1 cost=20 targets A;");
  Options o = opts(Command::Compare, 4000);
  std::ostringstream out;
  EXPECT_EQ(run_compare(o, sparse, frequent, out), 0);
  EXPECT_NE(out.str().find("paired comparison"), std::string::npos);
  EXPECT_NE(out.str().find("failures"), std::string::npos);
}

TEST(CliRun, RunOnTextRejectsCompare) {
  std::ostringstream out;
  EXPECT_THROW(run_on_text(opts(Command::Compare), kModel, out), DomainError);
}

TEST(CliMain, ReportsUsageErrors) {
  std::ostringstream out, err;
  EXPECT_EQ(main_impl({}, out, err), 2);
  EXPECT_NE(err.str().find("usage:"), std::string::npos);
}

TEST(CliRun, AnalyzeWithQuantilesSimulatesEachTrajectoryOnce) {
  const std::string model_path = testing::TempDir() + "fmtree_quantiles_model.fmt";
  const std::string metrics_path = testing::TempDir() + "fmtree_quantiles_metrics.json";
  {
    std::ofstream model(model_path);
    model << kModel;
  }
  std::ostringstream out, err;
  ASSERT_EQ(main_impl({"analyze", model_path, "--runs", "2000", "--seed", "3",
                       "--quantiles", "0.1,0.5", "--metrics", metrics_path},
                      out, err),
            kExitOk)
      << err.str();
  EXPECT_NE(out.str().find("time-to-failure quantiles"), std::string::npos);
  std::ifstream in(metrics_path);
  std::stringstream text;
  text << in.rdbuf();
  const json::Value metrics = json::parse(text.str());
  const json::Value* counters = metrics.find("counters");
  ASSERT_NE(counters, nullptr);
  const json::Value* trajectories = counters->find("smc.trajectories");
  ASSERT_NE(trajectories, nullptr);
  EXPECT_EQ(trajectories->as_u64(), 2000u);
}

}  // namespace
}  // namespace fmtree::cli
