// fmtree.response/v1 event encoding: the NDJSON bytes are pinned (a client
// of an older build must keep reading them), and a result event decodes
// back to the exact report doubles.
#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <string>

#include "../batch/report_bits.hpp"
#include "batch/fingerprint.hpp"

namespace fmtree::serve {
namespace {

batch::CacheKey key(std::uint64_t salt) {
  return batch::CacheKey{Fingerprint{0x1234, salt}, Fingerprint{0x5678, 0x9abc}};
}

smc::KpiReport small_report() {
  smc::KpiReport r;
  r.horizon = 10.0;
  r.trajectories = 100;
  r.reliability = {0.5, 0.4, 0.6, 0.95};
  r.total_cost = {1234.5, 1200.25, 1268.75, 0.95};
  r.mean_cost = {0.1, 0.2, 0.3, 0.4, 0.7};
  r.failures_per_leaf = {0.25};
  r.repairs_per_leaf = {0.125};
  return r;
}

/// One done job (its report nests as a compact "fmtree.result/v2" document)
/// and one failed job, with a warning that needs escaping.
Response result_response() {
  Response resp;
  resp.id = "r\"1\"";
  Diagnostic warn;
  warn.severity = Severity::Warning;
  warn.code = "C101";
  warn.message = "corrupt entry 'a\\b'";
  warn.hint = "recomputed";
  resp.warnings.push_back(warn);
  JobOutcome done;
  done.label = "2x-per-year";
  done.key = key(7);
  done.state = JobState::Done;
  done.cache_hit = true;
  done.report = small_report();
  JobOutcome failed;
  failed.label = "bad\\job";
  failed.key = key(8);
  failed.state = JobState::Failed;
  failed.retries = 2;
  failed.failure.kind = "injected";
  failed.failure.message = "fault \"x\"\n";
  failed.failure.transient = true;
  failed.failure.attempts = 3;
  resp.jobs = {done, failed};
  return resp;
}

TEST(ServeProtocol, AcceptedProgressAndErrorBytesArePinned) {
  EXPECT_EQ(encode_accepted("req \"7\"", 3), R"json({"schema":"fmtree.response/v1","event":"accepted","id":"req \"7\"","jobs":3}
)json");

  obs::Progress p;
  p.phase = "sweep";
  p.done = 5;
  p.total = 12;
  p.rate = 2.5;
  p.eta_seconds = 2.8;
  p.ci_half_width = -1.0;
  p.ci_target = 0.05;
  EXPECT_EQ(encode_progress(p), R"json({"schema":"fmtree.response/v1","event":"progress","phase":"sweep","done":5,"total":12,"rate":"0x1.4p+1","eta_seconds":"0x1.6666666666666p+1","ci_half_width":"-0x1p+0","ci_target":"0x1.999999999999ap-5"}
)json");

  EXPECT_EQ(encode_error(RequestError("R112", "bad field 'x'", "use \"y\"")),
            R"json({"schema":"fmtree.response/v1","event":"error","code":"R112","message":"bad field 'x'","diagnostics":[{"severity":"error","code":"R112","line":0,"column":0,"message":"bad field 'x'","hint":"use \"y\""}]}
)json");
}

TEST(ServeProtocol, ResultBytesArePinned) {
  EXPECT_EQ(encode_result(result_response()),
            R"json({"schema":"fmtree.response/v1","event":"result","id":"r\"1\"","stop_reason":"none","warnings":[{"severity":"warning","code":"C101","line":0,"column":0,"message":"corrupt entry 'a\\b'","hint":"recomputed"}],"jobs":[{"label":"2x-per-year","key":{"model":"00000000000012340000000000000007","request":"00000000000056780000000000009abc"},"status":"done","source":"cache","retries":0,"report":{"schema":"fmtree.result/v2","model":"00000000000012340000000000000007","request":"00000000000056780000000000009abc","content_hash":"adc5afb316d20cbf340c45c1e8b56dbd","report":{"horizon":"0x1.4p+3","trajectories":100,"reliability":["0x1p-1","0x1.999999999999ap-2","0x1.3333333333333p-1","0x1.e666666666666p-1"],"expected_failures":["0x0p+0","0x0p+0","0x0p+0","0x1.e666666666666p-1"],"failures_per_year":["0x0p+0","0x0p+0","0x0p+0","0x1.e666666666666p-1"],"availability":["0x0p+0","0x0p+0","0x0p+0","0x1.e666666666666p-1"],"total_cost":["0x1.34ap+10","0x1.2c1p+10","0x1.3d3p+10","0x1.e666666666666p-1"],"cost_per_year":["0x0p+0","0x0p+0","0x0p+0","0x1.e666666666666p-1"],"npv_cost":["0x0p+0","0x0p+0","0x0p+0","0x1.e666666666666p-1"],"mean_cost":["0x1.999999999999ap-4","0x1.999999999999ap-3","0x1.3333333333333p-2","0x1.999999999999ap-2","0x1.6666666666666p-1"],"mean_inspections":"0x0p+0","mean_repairs":"0x0p+0","mean_replacements":"0x0p+0","failures_per_leaf":["0x1p-2"],"repairs_per_leaf":["0x1p-3"]}}},{"label":"bad\\job","key":{"model":"00000000000012340000000000000008","request":"00000000000056780000000000009abc"},"status":"failed","source":"simulated","retries":2,"failure":{"kind":"injected","message":"fault \"x\"\n","transient":true,"attempts":3}}]}
)json");
}

TEST(ServeProtocol, ResultEventDecodesTheExactReport) {
  const Response sent = result_response();
  const Event event = decode_event(encode_result(sent));
  ASSERT_EQ(event.kind, EventKind::Result);
  EXPECT_EQ(event.id, sent.id);
  ASSERT_EQ(event.response.jobs.size(), 2u);
  const JobOutcome& done = event.response.jobs[0];
  EXPECT_EQ(done.state, JobState::Done);
  EXPECT_TRUE(done.cache_hit);
  EXPECT_TRUE(batch_test::same_bits(done.report, sent.jobs[0].report));
  const JobOutcome& failed = event.response.jobs[1];
  EXPECT_EQ(failed.state, JobState::Failed);
  EXPECT_EQ(failed.label, "bad\\job");
  EXPECT_EQ(failed.failure.message, "fault \"x\"\n");
  EXPECT_EQ(failed.failure.attempts, 3u);
  ASSERT_EQ(event.response.warnings.size(), 1u);
  EXPECT_EQ(event.response.warnings[0].message, "corrupt entry 'a\\b'");
}

TEST(ServeProtocol, TamperedNestedReportIsR121) {
  std::string line = encode_result(result_response());
  const std::size_t at = line.find("\"trajectories\":100");
  ASSERT_NE(at, std::string::npos);
  line.replace(at, 18, "\"trajectories\":101");
  try {
    (void)decode_event(line);
    FAIL() << "expected R121";
  } catch (const RequestError& e) {
    EXPECT_EQ(e.code(), "R121");
  }
}

}  // namespace
}  // namespace fmtree::serve
