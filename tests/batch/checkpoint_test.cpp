#include "batch/checkpoint.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "batch/sweep.hpp"
#include "fmt/parser.hpp"
#include "util/error.hpp"

namespace fmtree::batch {
namespace {

const char* kModel = R"(
  toplevel T;
  T or A;
  A be exp(0.2);
  corrective cost=100 delay=0;
)";

SweepPlan tiny_plan(std::uint64_t seed_base = 1) {
  SweepPlan plan;
  for (std::uint64_t s : {seed_base, seed_base + 1}) {
    SweepJob job;
    job.label = "seed-" + std::to_string(s);
    job.model = fmt::parse_fmt(kModel);
    job.settings.horizon = 5.0;
    job.settings.trajectories = 50;
    job.settings.seed = s;
    plan.jobs.push_back(std::move(job));
  }
  return plan;
}

TEST(SweepCheckpoint, EncodeDecodeRoundTrips) {
  SweepCheckpoint cp;
  cp.plan_id = "abc123";
  cp.jobs = {{"job \"quoted\"", "k1-k1", "done"},
             {"other", "k2-k2", "failed"},
             {"third", "k3-k3", "pending"}};
  const SweepCheckpoint back = decode_checkpoint(encode_checkpoint(cp));
  EXPECT_EQ(back.plan_id, cp.plan_id);
  ASSERT_EQ(back.jobs.size(), 3u);
  EXPECT_EQ(back.jobs[0].label, "job \"quoted\"");
  EXPECT_EQ(back.jobs[1].status, "failed");
  // done / failed / pending partition the plan and round-trip exactly: a
  // failed job must never be folded into either of the other totals.
  EXPECT_EQ(back.jobs_done(), 1u);
  EXPECT_EQ(back.jobs_failed(), 1u);
  EXPECT_EQ(back.jobs_pending(), 1u);
  EXPECT_EQ(back.jobs_done() + back.jobs_failed() + back.jobs_pending(),
            back.jobs.size());
}

TEST(SweepCheckpoint, DecodeRejectsGarbage) {
  EXPECT_THROW(decode_checkpoint("not json"), IoError);
  EXPECT_THROW(decode_checkpoint("{\"schema\": \"other/v1\"}"), IoError);
  EXPECT_THROW(decode_checkpoint(
                   "{\"schema\": \"fmtree.sweep-checkpoint/v1\", \"plan\": "
                   "\"x\", \"jobs\": [{\"label\": \"a\", \"key\": \"k\", "
                   "\"status\": \"bogus\"}]}"),
               IoError);
}

TEST(SweepCheckpoint, PlanIdDetectsADifferentPlan) {
  EXPECT_EQ(checkpoint_plan_id(tiny_plan()), checkpoint_plan_id(tiny_plan()));
  // A different seed grid is a different plan...
  EXPECT_NE(checkpoint_plan_id(tiny_plan()), checkpoint_plan_id(tiny_plan(7)));
  // ...but execution knobs (threads, chunking, retries) are not.
  SweepPlan tuned = tiny_plan();
  tuned.threads = 7;
  tuned.chunk = 3;
  tuned.max_retries = 9;
  EXPECT_EQ(checkpoint_plan_id(tiny_plan()), checkpoint_plan_id(tuned));
}

TEST(SweepCheckpoint, WriteReadReflectsOutcomeStatus) {
  const std::string dir = testing::TempDir() + "fmtree_checkpoint_test";
  std::filesystem::remove_all(dir);  // idempotence across ctest runs
  std::filesystem::create_directories(dir);
  const std::string path = checkpoint_path(dir);
  EXPECT_FALSE(read_checkpoint(path).has_value());  // absent = nullopt

  const SweepPlan plan = tiny_plan();
  const SweepOutcome outcome = run_sweep(plan);
  ASSERT_TRUE(write_checkpoint(path, plan, outcome.results));
  const auto cp = read_checkpoint(path);
  ASSERT_TRUE(cp.has_value());
  EXPECT_EQ(cp->plan_id, checkpoint_plan_id(plan));
  ASSERT_EQ(cp->jobs.size(), plan.jobs.size());
  EXPECT_EQ(cp->jobs_done(), plan.jobs.size());
  for (std::size_t j = 0; j < cp->jobs.size(); ++j) {
    EXPECT_EQ(cp->jobs[j].label, plan.jobs[j].label);
    EXPECT_EQ(cp->jobs[j].key, outcome.results[j].key.id());
    EXPECT_EQ(cp->jobs[j].status, "done");
  }

  // A torn manifest (crash mid-write) would throw; the atomic publish means
  // we only ever see whole files — simulate the torn case directly.
  {
    std::ofstream torn(path, std::ios::trunc);
    torn << "{\"schema\": \"fmtree.sweep-ch";
  }
  EXPECT_THROW(read_checkpoint(path), IoError);
}

TEST(SweepCheckpoint, EncodeBytesArePinned) {
  SweepCheckpoint cp;
  cp.plan_id = "00ff";
  cp.jobs = {{"seed-1", "k1-k2", "done"},
             {"odd \"label\"", "k3-k4", "failed"},
             {"p", "k5-k6", "pending"}};
  EXPECT_EQ(encode_checkpoint(cp), R"json({
  "schema": "fmtree.sweep-checkpoint/v1",
  "plan": "00ff",
  "jobs": [
    {"label": "seed-1", "key": "k1-k2", "status": "done"},
    {"label": "odd \"label\"", "key": "k3-k4", "status": "failed"},
    {"label": "p", "key": "k5-k6", "status": "pending"}
  ]
}
)json");
}

}  // namespace
}  // namespace fmtree::batch
