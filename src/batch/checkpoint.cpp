#include "batch/checkpoint.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "batch/sweep.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace fmtree::batch {

namespace {
constexpr const char* kSchema = "fmtree.sweep-checkpoint/v1";
}  // namespace

std::uint64_t SweepCheckpoint::jobs_done() const {
  std::uint64_t n = 0;
  for (const CheckpointEntry& e : jobs)
    if (e.status == "done") ++n;
  return n;
}

std::uint64_t SweepCheckpoint::jobs_failed() const {
  std::uint64_t n = 0;
  for (const CheckpointEntry& e : jobs)
    if (e.status == "failed") ++n;
  return n;
}

std::uint64_t SweepCheckpoint::jobs_pending() const {
  std::uint64_t n = 0;
  for (const CheckpointEntry& e : jobs)
    if (e.status == "pending") ++n;
  return n;
}

std::string checkpoint_plan_id(const SweepPlan& plan) {
  StreamHasher h;
  h.tag(kSchema);
  h.u64(plan.jobs.size());
  for (const SweepJob& job : plan.jobs) {
    h.str(job.label);
    const CacheKey key = kpi_cache_key(job.model, job.settings);
    h.fingerprint(key.model).fingerprint(key.request);
  }
  return h.digest().hex();
}

std::string checkpoint_path(const std::string& cache_dir) {
  return cache_dir + "/sweep-checkpoint.json";
}

std::string encode_checkpoint(const SweepCheckpoint& cp) {
  using Wrap = json::Writer::Wrap;
  json::Writer w(json::Writer::Layout::Spaced);
  w.begin_object(Wrap::Block).key("schema").string(kSchema);
  w.key("plan").string(cp.plan_id).key("jobs").begin_array(Wrap::Block);
  for (const CheckpointEntry& e : cp.jobs) {
    w.begin_object().key("label").string(e.label).key("key").string(e.key);
    w.key("status").string(e.status).end_object();
  }
  return w.end_array().end_object().take() + '\n';
}

SweepCheckpoint decode_checkpoint(const std::string& text) {
  const json::Value doc = json::parse(text);
  const json::Value* schema = doc.find("schema");
  if (schema == nullptr || !schema->is(json::Kind::String) ||
      schema->text != kSchema)
    throw IoError("sweep checkpoint: unknown schema");
  const json::Value* plan = doc.find("plan");
  if (plan == nullptr || !plan->is(json::Kind::String))
    throw IoError("sweep checkpoint: missing plan fingerprint");
  const json::Value* jobs = doc.find("jobs");
  if (jobs == nullptr || !jobs->is(json::Kind::Array))
    throw IoError("sweep checkpoint: missing jobs array");
  SweepCheckpoint cp;
  cp.plan_id = plan->text;
  cp.jobs.reserve(jobs->items.size());
  for (const json::Value& item : jobs->items) {
    const json::Value* label = item.find("label");
    const json::Value* key = item.find("key");
    const json::Value* status = item.find("status");
    if (label == nullptr || key == nullptr || status == nullptr)
      throw IoError("sweep checkpoint: malformed job entry");
    if (status->text != "done" && status->text != "failed" &&
        status->text != "pending")
      throw IoError("sweep checkpoint: unknown status '" + status->text + "'");
    cp.jobs.push_back({label->text, key->text, status->text});
  }
  return cp;
}

bool write_checkpoint(const std::string& path, const SweepPlan& plan,
                      std::span<const JobResult> results) {
  SweepCheckpoint cp;
  cp.plan_id = checkpoint_plan_id(plan);
  cp.jobs.reserve(plan.jobs.size());
  for (std::size_t j = 0; j < plan.jobs.size(); ++j) {
    CheckpointEntry e;
    e.label = plan.jobs[j].label;
    if (j < results.size()) {
      const JobResult& r = results[j];
      e.key = r.key.id();
      e.status = r.state == JobState::Done     ? "done"
                 : r.state == JobState::Failed ? "failed"
                                               : "pending";
    } else {
      e.key = kpi_cache_key(plan.jobs[j].model, plan.jobs[j].settings).id();
      e.status = "pending";
    }
    cp.jobs.push_back(std::move(e));
  }
  // Atomic publish, same discipline as the cache: a crash mid-write leaves
  // either the previous manifest or a stale temp file, never a torn one.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    out << encode_checkpoint(cp);
    if (!out.flush()) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::optional<SweepCheckpoint> read_checkpoint(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  return decode_checkpoint(text.str());
}

}  // namespace fmtree::batch
