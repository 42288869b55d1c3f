#include "batch/result_cache.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <utility>

#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/json.hpp"

namespace fmtree::batch {

namespace {

double parse_hexfloat(const json::Value& v) {
  if (!v.is(json::Kind::String)) throw IoError("cache entry: expected a hexfloat string");
  const std::optional<double> d = json::parse_hexfloat(v.text);
  if (!d) throw IoError("cache entry: bad hexfloat '" + v.text + "'");
  return *d;
}

void write_ci(json::Writer& w, const char* name, const ConfidenceInterval& ci) {
  w.key(name).begin_array().hexfloat(ci.point).hexfloat(ci.lo).hexfloat(ci.hi);
  w.hexfloat(ci.confidence).end_array();
}

ConfidenceInterval decode_ci(const json::Value& report, const char* name) {
  const json::Value* v = report.find(name);
  if (v == nullptr || !v->is(json::Kind::Array) || v->items.size() != 4)
    throw IoError("cache entry: missing interval '" + std::string(name) + "'");
  return {parse_hexfloat(v->items[0]), parse_hexfloat(v->items[1]),
          parse_hexfloat(v->items[2]), parse_hexfloat(v->items[3])};
}

void write_doubles(json::Writer& w, const char* name, const std::vector<double>& values) {
  w.key(name).begin_array();
  for (const double v : values) w.hexfloat(v);
  w.end_array();
}

std::vector<double> decode_doubles(const json::Value& report, const char* name) {
  const json::Value* v = report.find(name);
  if (v == nullptr || !v->is(json::Kind::Array))
    throw IoError("cache entry: missing array '" + std::string(name) + "'");
  std::vector<double> out;
  out.reserve(v->items.size());
  for (const json::Value& item : v->items) out.push_back(parse_hexfloat(item));
  return out;
}

double decode_double(const json::Value& report, const char* name) {
  const json::Value* v = report.find(name);
  if (v == nullptr)
    throw IoError("cache entry: missing field '" + std::string(name) + "'");
  return parse_hexfloat(*v);
}

/// Per-process random token for temp-file names: two crashed or concurrent
/// processes writing the same entry never collide on a temp path.
const std::string& process_tag() {
  static const std::string tag = [] {
    std::random_device rd;
    std::uint64_t token = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(token));
    return std::string(buf);
  }();
  return tag;
}

/// Deterministic single-byte mutation for the cache.read/cache.write corrupt
/// fault modes: flips one bit in the middle of the payload, which either
/// breaks the JSON or changes a value the content hash then rejects.
void corrupt_payload(std::string& payload) {
  if (payload.empty()) return;
  payload[payload.size() / 2] ^= 0x01;
}

}  // namespace

Fingerprint report_content_hash(const smc::KpiReport& r) {
  StreamHasher h;
  h.tag("fmtree.result/v2");
  h.f64(r.horizon).u64(r.trajectories);
  const auto ci = [&h](const ConfidenceInterval& c) {
    h.f64(c.point).f64(c.lo).f64(c.hi).f64(c.confidence);
  };
  ci(r.reliability);
  ci(r.expected_failures);
  ci(r.failures_per_year);
  ci(r.availability);
  ci(r.total_cost);
  ci(r.cost_per_year);
  ci(r.npv_cost);
  h.f64(r.mean_cost.inspection)
      .f64(r.mean_cost.repair)
      .f64(r.mean_cost.replacement)
      .f64(r.mean_cost.corrective)
      .f64(r.mean_cost.downtime);
  h.f64(r.mean_inspections).f64(r.mean_repairs).f64(r.mean_replacements);
  h.u64(r.failures_per_leaf.size());
  for (const double v : r.failures_per_leaf) h.f64(v);
  h.u64(r.repairs_per_leaf.size());
  for (const double v : r.repairs_per_leaf) h.f64(v);
  return h.digest();
}

void write_report(json::Writer& w, const CacheKey& key, const smc::KpiReport& r) {
  using Wrap = json::Writer::Wrap;
  w.begin_object(Wrap::Block).key("schema").string("fmtree.result/v2");
  w.key("model").string(key.model.hex()).key("request").string(key.request.hex());
  w.key("content_hash").string(report_content_hash(r).hex());
  w.key("report").begin_object(Wrap::Block).key("horizon").hexfloat(r.horizon);
  w.key("trajectories").integer(r.trajectories);
  write_ci(w, "reliability", r.reliability);
  write_ci(w, "expected_failures", r.expected_failures);
  write_ci(w, "failures_per_year", r.failures_per_year);
  write_ci(w, "availability", r.availability);
  write_ci(w, "total_cost", r.total_cost);
  write_ci(w, "cost_per_year", r.cost_per_year);
  write_ci(w, "npv_cost", r.npv_cost);
  write_doubles(w, "mean_cost",
                {r.mean_cost.inspection, r.mean_cost.repair, r.mean_cost.replacement,
                 r.mean_cost.corrective, r.mean_cost.downtime});
  w.key("mean_inspections").hexfloat(r.mean_inspections);
  w.key("mean_repairs").hexfloat(r.mean_repairs);
  w.key("mean_replacements").hexfloat(r.mean_replacements);
  write_doubles(w, "failures_per_leaf", r.failures_per_leaf);
  write_doubles(w, "repairs_per_leaf", r.repairs_per_leaf);
  w.end_object().end_object();
}

std::string encode_report(const CacheKey& key, const smc::KpiReport& r) {
  json::Writer w(json::Writer::Layout::Spaced);
  write_report(w, key, r);
  return w.take() + '\n';
}

smc::KpiReport decode_report(const CacheKey& key, const std::string& text) {
  return decode_report(key, json::parse(text));
}

smc::KpiReport decode_report(const CacheKey& key, const json::Value& doc) {
  const json::Value* schema = doc.find("schema");
  if (schema == nullptr || !schema->is(json::Kind::String) ||
      schema->text != "fmtree.result/v2")
    throw IoError("cache entry: unknown schema");
  const json::Value* model = doc.find("model");
  const json::Value* request = doc.find("request");
  if (model == nullptr || request == nullptr || model->text != key.model.hex() ||
      request->text != key.request.hex())
    throw IoError("cache entry: key mismatch");
  const json::Value* stored_hash = doc.find("content_hash");
  if (stored_hash == nullptr || !stored_hash->is(json::Kind::String))
    throw IoError("cache entry: missing content hash");
  const json::Value* rep = doc.find("report");
  if (rep == nullptr || !rep->is(json::Kind::Object))
    throw IoError("cache entry: missing report object");

  smc::KpiReport r;
  r.horizon = decode_double(*rep, "horizon");
  const json::Value* traj = rep->find("trajectories");
  if (traj == nullptr) throw IoError("cache entry: missing trajectory count");
  r.trajectories = traj->as_u64();
  r.truncated = false;  // put() never stores truncated reports
  r.stop_reason = smc::StopReason::None;
  r.reliability = decode_ci(*rep, "reliability");
  r.expected_failures = decode_ci(*rep, "expected_failures");
  r.failures_per_year = decode_ci(*rep, "failures_per_year");
  r.availability = decode_ci(*rep, "availability");
  r.total_cost = decode_ci(*rep, "total_cost");
  r.cost_per_year = decode_ci(*rep, "cost_per_year");
  r.npv_cost = decode_ci(*rep, "npv_cost");
  const std::vector<double> cost = decode_doubles(*rep, "mean_cost");
  if (cost.size() != 5) throw IoError("cache entry: mean_cost needs 5 components");
  r.mean_cost = {cost[0], cost[1], cost[2], cost[3], cost[4]};
  r.mean_inspections = decode_double(*rep, "mean_inspections");
  r.mean_repairs = decode_double(*rep, "mean_repairs");
  r.mean_replacements = decode_double(*rep, "mean_replacements");
  r.failures_per_leaf = decode_doubles(*rep, "failures_per_leaf");
  r.repairs_per_leaf = decode_doubles(*rep, "repairs_per_leaf");

  // Integrity gate: the values we decoded must reproduce the checksum the
  // writer computed from its values. Any bit rot or torn write that still
  // parses lands here.
  if (report_content_hash(r).hex() != stored_hash->text)
    throw IoError("cache entry: content hash mismatch");
  return r;
}

ResultCache::ResultCache(std::size_t memory_entries) : memory_entries_(memory_entries) {}

ResultCache::ResultCache(std::string directory, std::size_t memory_entries)
    : memory_entries_(memory_entries), directory_(std::move(directory)) {
  if (directory_.empty()) throw IoError("result cache needs a directory path");
  std::error_code ec;
  std::filesystem::create_directories(directory_, ec);
  if (ec)
    throw IoError("cannot create cache directory '" + directory_ +
                  "': " + ec.message());
  recovery_scan();
}

std::string ResultCache::entry_path(const CacheKey& key) const {
  return directory_ + "/" + key.id() + ".json";
}

std::string ResultCache::quarantine_directory() const {
  return directory_.empty() ? std::string{} : directory_ + "/quarantine";
}

void ResultCache::recovery_scan() {
  // A crashed writer leaves "<entry>.json.tmp.<tag>" files behind (and the
  // pre-v2 format left "<entry>.json.tmp"); none can ever be read, so remove
  // them. A *live* concurrent writer could lose its temp file to this scan —
  // it then fails its rename and recomputes, which is the contract anyway.
  std::error_code ec;
  std::uint64_t removed = 0;
  // An unreadable directory yields an end iterator: no recovery, no throw.
  for (const auto& entry : std::filesystem::directory_iterator(directory_, ec)) {
    std::error_code file_ec;
    if (!entry.is_regular_file(file_ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.find(".json.tmp") == std::string::npos) continue;
    std::filesystem::remove(entry.path(), file_ec);
    if (!file_ec) ++removed;
  }
  if (removed > 0) {
    stats_.recovered_tmp_files += removed;
    Diagnostic d;
    d.severity = Severity::Warning;
    d.code = "C102";
    d.message = "cache recovery: removed " + std::to_string(removed) +
                " stale temporary file(s) left by a crashed writer in '" +
                directory_ + "'";
    warnings_.push_back(std::move(d));
  }
}

void ResultCache::quarantine_entry(const std::string& path, const std::string& why) {
  // Caller holds mutex_. Move the entry aside so the next read is a clean
  // miss and the corrupt bytes stay available for post-mortem inspection.
  ++stats_.disk_failures;
  ++stats_.corrupt_entries;
  const std::filesystem::path source(path);
  const std::filesystem::path dir(quarantine_directory());
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::string disposition;
  if (!ec) {
    std::filesystem::rename(source, dir / source.filename(), ec);
  }
  if (!ec) {
    ++stats_.quarantined;
    disposition = "quarantined to '" + (dir / source.filename()).string() + "'";
  } else {
    disposition = "could not quarantine: " + ec.message();
  }
  Diagnostic d;
  d.severity = Severity::Warning;
  d.code = "C101";
  d.message = "corrupt result-cache entry '" + source.filename().string() +
              "' (" + why + "); " + disposition;
  d.hint = "the result will be recomputed; inspect the quarantine directory "
           "if corruption persists";
  warnings_.push_back(std::move(d));
}

std::optional<smc::KpiReport> ResultCache::get(const CacheKey& key) {
  std::lock_guard lock(mutex_);
  const std::string id = key.id();
  if (const auto it = memory_.find(id); it != memory_.end()) {
    ++stats_.hits;
    ++stats_.memory_hits;
    recency_.splice(recency_.begin(), recency_, it->second.recency);
    return it->second.report;
  }
  if (!directory_.empty()) {
    const std::string path = entry_path(key);
    std::ifstream in(path);
    if (in) {
      std::ostringstream text;
      text << in.rdbuf();
      std::string payload = text.str();
      try {
        if (fault::fault_point("cache.read")) corrupt_payload(payload);
        smc::KpiReport report = decode_report(key, payload);
        remember(id, report);
        ++stats_.hits;
        ++stats_.disk_hits;
        return report;
      } catch (const fault::InjectedFault& e) {
        quarantine_entry(path, e.what());  // injected read error: same path
      } catch (const IoError& e) {
        quarantine_entry(path, e.what());
      }
    }
  }
  ++stats_.misses;
  return std::nullopt;
}

void ResultCache::remember(const std::string& id, const smc::KpiReport& report) {
  const auto [it, inserted] = memory_.try_emplace(id);
  it->second.report = report;
  if (inserted) {
    // Keys of an unordered_map stay put across rehashing, so the recency
    // list can point at them.
    it->second.recency = recency_.insert(recency_.begin(), &it->first);
  } else {
    recency_.splice(recency_.begin(), recency_, it->second.recency);
  }
  if (memory_entries_ != 0 && memory_.size() > memory_entries_) {
    memory_.erase(memory_.find(*recency_.back()));
    recency_.pop_back();
  }
}

void ResultCache::put(const CacheKey& key, const smc::KpiReport& report) {
  if (report.truncated) return;  // a stop prefix is not the key's canonical result
  // Only the memory insert and the temp-name sequence number need the
  // mutex; encoding and the disk write run unlocked, so concurrent get()s
  // (a Session admitting requests) never wait behind a file write.
  std::uint64_t sequence = 0;
  {
    std::lock_guard lock(mutex_);
    remember(key.id(), report);
    if (directory_.empty()) return;
    sequence = ++tmp_sequence_;
  }
  const auto count = [this](std::uint64_t Stats::*field) {
    std::lock_guard lock(mutex_);
    ++(stats_.*field);
  };
  // Write-then-rename so concurrent readers never observe a partial entry.
  // The temp name is process- and sequence-unique: two writers of the same
  // key never clobber each other's in-flight file.
  const std::string final_path = entry_path(key);
  const std::string tmp_path =
      final_path + ".tmp." + process_tag() + "-" + std::to_string(sequence);
  std::string payload = encode_report(key, report);
  try {
    // "cache.write" in corrupt mode simulates silent media corruption: the
    // mangled payload is published and must be caught by the content hash on
    // the next read. Error mode simulates a failed write syscall.
    if (fault::fault_point("cache.write")) corrupt_payload(payload);
  } catch (const fault::InjectedFault&) {
    count(&Stats::disk_failures);
    return;  // nothing was written yet
  }
  {
    std::ofstream out(tmp_path, std::ios::trunc);
    if (!out) {
      count(&Stats::disk_failures);
      return;
    }
    out << payload;
    if (!out.flush()) {
      count(&Stats::disk_failures);
      std::remove(tmp_path.c_str());
      return;
    }
  }
  try {
    (void)fault::fault_point("cache.rename");
  } catch (const fault::InjectedFault&) {
    count(&Stats::disk_failures);
    std::remove(tmp_path.c_str());  // failed publish must not leak the temp
    return;
  }
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    count(&Stats::disk_failures);
    std::remove(tmp_path.c_str());
    return;
  }
  count(&Stats::disk_writes);
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

std::vector<Diagnostic> ResultCache::take_warnings() {
  std::lock_guard lock(mutex_);
  return std::exchange(warnings_, {});
}

std::size_t ResultCache::size() const {
  std::lock_guard lock(mutex_);
  return memory_.size();
}

}  // namespace fmtree::batch
