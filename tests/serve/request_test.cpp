// fmtree.request/v1 schema tests: stable R-codes, canonical (hexfloat)
// serialization round-trips, and the CLI-identical policy expansion that
// makes a served sweep cache the very same jobs as a standalone one.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <string>

#include "batch/fingerprint.hpp"
#include "fmt/canonical.hpp"
#include "serve/request.hpp"
#include "util/error.hpp"

namespace fmtree::serve {
namespace {

const char* kModel = R"(
  toplevel T;
  T or A B;
  A ebe phases=3 mean=5 threshold=2 repair_cost=100;
  B be exp(0.05);
  inspection I period=0.5 cost=20 targets A;
  corrective cost=5000 delay=0;
)";

Request sweep_request() {
  Request r;
  r.model_text = kModel;
  r.settings.horizon = 7.5;
  r.settings.trajectories = 300;
  r.settings.seed = 9;
  r.settings.confidence = 0.9;
  r.frequencies = {0, 2, 4};
  r.has_policy = true;
  return r;
}

std::string expect_code(const std::function<void()>& f) {
  try {
    f();
  } catch (const RequestError& e) {
    EXPECT_FALSE(e.diagnostics().empty());
    return e.code();
  }
  return "(no throw)";
}

TEST(ServeRequest, EncodeParsePreservesEveryFieldBitExactly) {
  Request original = sweep_request();
  original.id = "job-42";
  original.priority = 7;
  const std::string text = encode_request(original);
  const Request parsed = parse_request(text);
  EXPECT_EQ(parsed.id, "job-42");
  EXPECT_EQ(parsed.priority, 7);
  EXPECT_EQ(parsed.model_text, original.model_text);
  EXPECT_EQ(parsed.has_policy, true);
  ASSERT_EQ(parsed.frequencies.size(), original.frequencies.size());
  // Hexfloat canonical form: a re-encode of the parse is byte-identical.
  EXPECT_EQ(encode_request(parsed), text);
  // The settings fingerprint — hence every cache key — survives the trip.
  EXPECT_EQ(batch::settings_fingerprint(parsed.settings).hex(),
            batch::settings_fingerprint(original.settings).hex());
}

TEST(ServeRequest, AcceptsPlainNumbersWhereHexfloatsAreCanonical) {
  const Request r = parse_request(R"({
    "schema": "fmtree.request/v1",
    "model": {"ref": "ei_joint.fmt"},
    "settings": {"horizon": 20, "trajectories": 1000, "confidence": 0.99}
  })");
  EXPECT_EQ(r.model_ref, "ei_joint.fmt");
  EXPECT_DOUBLE_EQ(r.settings.horizon, 20.0);
  EXPECT_DOUBLE_EQ(r.settings.confidence, 0.99);
  EXPECT_FALSE(r.has_policy);
}

TEST(ServeRequest, StableDiagnosticCodes) {
  // R110: not even JSON / not an object.
  EXPECT_EQ(expect_code([] { parse_request("{oops"); }), "R110");
  EXPECT_EQ(expect_code([] { parse_request("[1,2]"); }), "R110");
  // R111: schema tag missing or unsupported.
  EXPECT_EQ(expect_code([] { parse_request(R"({"model": {"ref": "x"}})"); }),
            "R111");
  EXPECT_EQ(expect_code([] {
              parse_request(R"({"schema": "fmtree.request/v99",
                                "model": {"ref": "x"}})");
            }),
            "R111");
  // R112: structurally valid JSON that violates the schema.
  EXPECT_EQ(expect_code([] { parse_request(R"({"schema": "fmtree.request/v1"})"); }),
            "R112");
  EXPECT_EQ(expect_code([] {
              parse_request(R"({"schema": "fmtree.request/v1",
                                "model": {"inline": "a", "ref": "b"}})");
            }),
            "R112");
  EXPECT_EQ(expect_code([] {
              parse_request(R"({"schema": "fmtree.request/v1",
                                "model": {"ref": "x"}, "surprise": 1})");
            }),
            "R112");
  EXPECT_EQ(expect_code([] {
              parse_request(R"({"schema": "fmtree.request/v1",
                                "model": {"ref": "x"},
                                "settings": {"horizon": -1}})");
            }),
            "R112");
  EXPECT_EQ(expect_code([] {
              parse_request(R"({"schema": "fmtree.request/v1",
                                "model": {"ref": "x"},
                                "settings": {"engine": "quantum"}})");
            }),
            "R112");
}

TEST(ServeRequest, PrepareExpandsThePolicyGridWithCliIdenticalLabels) {
  const PreparedRequest prepared = prepare(sweep_request(), "models");
  ASSERT_EQ(prepared.jobs.size(), 3u);
  EXPECT_EQ(prepared.jobs[0].label, "no-inspection");
  EXPECT_EQ(prepared.jobs[1].label, "2x-per-year");
  EXPECT_EQ(prepared.jobs[2].label, "4x-per-year");
  EXPECT_TRUE(prepared.jobs[0].model.inspections().empty());
}

TEST(ServeRequest, PrepareWithoutPolicyYieldsOneAnalysisJob) {
  Request r = sweep_request();
  r.frequencies.clear();
  r.has_policy = false;
  const PreparedRequest prepared = prepare(r, "models");
  ASSERT_EQ(prepared.jobs.size(), 1u);
  EXPECT_EQ(prepared.jobs[0].label, "analysis");
}

TEST(ServeRequest, PrepareRejectsEscapingModelRefsAndBadModels) {
  Request escaping = sweep_request();
  escaping.model_text.clear();
  escaping.model_ref = "../secrets.fmt";
  EXPECT_EQ(expect_code([&] { prepare(escaping, "models"); }), "R112");

  Request missing = sweep_request();
  missing.model_text.clear();
  missing.model_ref = "definitely-not-there.fmt";
  EXPECT_EQ(expect_code([&] { prepare(missing, "models"); }), "R112");

  // R113: the model is the problem, carrying parse diagnostics.
  Request broken = sweep_request();
  broken.model_text = "toplevel T;\nT or A;\n";  // A undefined
  EXPECT_EQ(expect_code([&] { prepare(broken, "models"); }), "R113");

  Request uninspectable = sweep_request();
  uninspectable.model_text = R"(
    toplevel T;
    T or A;
    A be exp(0.2);
    corrective cost=100 delay=0;
  )";
  EXPECT_EQ(expect_code([&] { prepare(uninspectable, "models"); }), "R112");
}

Request fleet_request() {
  Request r;
  r.model_text = kModel;
  r.settings.horizon = 4.0;
  r.settings.trajectories = 40;
  r.settings.seed = 3;
  r.has_fleet = true;
  r.fleet.joints = 6;
  r.fleet.seed = 17;
  r.fleet.jitter = 0.12;
  r.fleet.coupling = 0.3;
  return r;
}

TEST(ServeRequest, FleetMemberRoundTripsBitExactly) {
  const Request original = fleet_request();
  const std::string text = encode_request(original);
  const Request parsed = parse_request(text);
  ASSERT_TRUE(parsed.has_fleet);
  EXPECT_EQ(parsed.fleet.joints, 6u);
  EXPECT_EQ(parsed.fleet.seed, 17u);
  EXPECT_TRUE(parsed.fleet.jitter == original.fleet.jitter);
  EXPECT_TRUE(parsed.fleet.coupling == original.fleet.coupling);
  EXPECT_EQ(encode_request(parsed), text);
}

TEST(ServeRequest, FleetSchemaViolationsAreR112) {
  // joints is required and bounded; unknown fleet members are rejected; a
  // fleet request cannot also sweep a frequency grid.
  EXPECT_EQ(expect_code([] {
              parse_request(R"({"schema": "fmtree.request/v1",
                                "model": {"ref": "x"}, "fleet": {}})");
            }),
            "R112");
  EXPECT_EQ(expect_code([] {
              parse_request(R"({"schema": "fmtree.request/v1",
                                "model": {"ref": "x"},
                                "fleet": {"joints": 0}})");
            }),
            "R112");
  EXPECT_EQ(expect_code([] {
              parse_request(R"({"schema": "fmtree.request/v1",
                                "model": {"ref": "x"},
                                "fleet": {"joints": 4, "crews": 2}})");
            }),
            "R112");
  EXPECT_EQ(expect_code([] {
              parse_request(R"({"schema": "fmtree.request/v1",
                                "model": {"ref": "x"},
                                "fleet": {"joints": 4, "jitter": -0.5}})");
            }),
            "R112");
  EXPECT_EQ(expect_code([] {
              parse_request(R"({"schema": "fmtree.request/v1",
                                "model": {"ref": "x"},
                                "fleet": {"joints": 4},
                                "policy": {"frequencies": [1, 2]}})");
            }),
            "R112");
}

// Integer fields decode exactly from the number token: a seed above 2^53
// survives the trip (through a double, 2^53+1 became 2^53), and a value
// outside [0, 2^64) is R112 instead of a wrapped or out-of-range cast.
TEST(ServeRequest, IntegerFieldsDecodeExactly) {
  for (const std::uint64_t seed :
       {(std::uint64_t{1} << 53) + 1, std::numeric_limits<std::uint64_t>::max()}) {
    Request sweep = sweep_request();
    sweep.settings.seed = seed;
    EXPECT_EQ(parse_request(encode_request(sweep)).settings.seed, seed);
    Request fleet = fleet_request();
    fleet.fleet.seed = seed;
    EXPECT_EQ(parse_request(encode_request(fleet)).fleet.seed, seed);
  }
  for (const std::string seed : {"18446744073709551616", "-1"}) {
    const std::string text = R"({"schema": "fmtree.request/v1",
                                 "model": {"ref": "x"},
                                 "settings": {"seed": )" + seed + "}}";
    EXPECT_EQ(expect_code([&] { parse_request(text); }), "R112") << seed;
  }
}

TEST(ServeRequest, PrepareExpandsAFleetIntoJointLabelledJobs) {
  const PreparedRequest prepared = prepare(fleet_request(), "models");
  ASSERT_EQ(prepared.jobs.size(), 6u);
  // The daemon routes through fleet::fleet_plan, so its jobs carry exactly
  // the corridor's joint names (and hence the same cache keys as an
  // in-process `fmtree fleet` run).
  EXPECT_EQ(prepared.jobs.front().label, "joint-0000");
  EXPECT_EQ(prepared.jobs.back().label, "joint-0005");
  // Jitter perturbs the lifetimes: the shards are distinct models, so they
  // hash to distinct cache keys.
  EXPECT_FALSE(fmt::canonical_hash(prepared.jobs[0].model) ==
               fmt::canonical_hash(prepared.jobs[1].model));
}

TEST(ServeRequest, EncodeRequestBytesArePinned) {
  Request full;
  full.id = "pin \"1\"";
  full.priority = -3;
  full.model_text = "toplevel T;\nT be exp(0.5);\t// \"tab\"\n";
  full.settings.horizon = 7.5;
  full.settings.trajectories = 300;
  full.settings.seed = 9;
  full.settings.confidence = 0.9;
  full.settings.discount_rate = 0.03;
  full.settings.target_relative_error = 0.01;
  full.settings.engine = Engine::Batch;
  full.has_fleet = true;
  full.fleet.joints = 25;
  full.fleet.seed = 4;
  full.fleet.jitter = 0.1;
  full.fleet.coupling = 0.25;
  full.has_policy = true;
  full.frequencies = {0, 2, 1.0 / 3.0};
  Request::PolicyScript inline_script;
  inline_script.text = "policy \"p\" {\n  every 0.5: inspect A;\n}\n";
  Request::PolicyScript ref_script;
  ref_script.ref = "condition_based.mpl";
  full.scripts = {inline_script, ref_script};
  EXPECT_EQ(encode_request(full), R"json({
  "schema": "fmtree.request/v1",
  "id": "pin \"1\"",
  "priority": -3,
  "model": {"inline": "toplevel T;\nT be exp(0.5);\t// \"tab\"\n"},
  "settings": {
    "horizon": "0x1.ep+2",
    "trajectories": 300,
    "seed": 9,
    "confidence": "0x1.ccccccccccccdp-1",
    "discount_rate": "0x1.eb851eb851eb8p-6",
    "target_relative_error": "0x1.47ae147ae147bp-7",
    "engine": "batch"
  },
  "fleet": {"joints": 25, "seed": 4, "jitter": "0x1.999999999999ap-4", "coupling": "0x1p-2"},
  "policy": {"frequencies": ["0x0p+0", "0x1p+1", "0x1.5555555555555p-2"], "scripts": [{"inline": "policy \"p\" {\n  every 0.5: inspect A;\n}\n"}, {"ref": "condition_based.mpl"}]}
}
)json");

  Request minimal;
  minimal.model_ref = "ei_joint.fmt";
  EXPECT_EQ(encode_request(minimal), R"json({
  "schema": "fmtree.request/v1",
  "model": {"ref": "ei_joint.fmt"},
  "settings": {
    "horizon": "0x1.4p+3",
    "trajectories": 10000,
    "seed": 1,
    "confidence": "0x1.e666666666666p-1",
    "discount_rate": "0x0p+0",
    "target_relative_error": "0x0p+0",
    "engine": "default"
  }
}
)json");
}

}  // namespace
}  // namespace fmtree::serve
