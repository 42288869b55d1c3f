#include "serve/protocol.hpp"

#include <optional>
#include <string_view>

#include "batch/result_cache.hpp"
#include "util/diagnostics.hpp"
#include "util/error.hpp"
#include "util/fingerprint.hpp"
#include "util/json.hpp"

namespace fmtree::serve {

namespace {

constexpr std::string_view kSchema = "fmtree.response/v1";

/// The phase literals progress producers use (obs/progress.hpp). Decoded
/// phases are interned to these so Event::progress.phase never dangles.
constexpr std::string_view kPhases[] = {"sweep", "simulate", "solve", "refine"};

[[noreturn]] void bad_wire(const std::string& what) {
  throw RequestError("R121", "malformed response event: " + what,
                     "client and server disagree on fmtree.response/v1; check "
                     "that both run compatible fmtree versions");
}

/// Opens the one-line object of an event: its schema tag and event name.
json::Writer begin_event(const char* event) {
  json::Writer w(json::Writer::Layout::Compact);
  w.begin_object().key("schema").string(kSchema).key("event").string(event);
  return w;
}

std::string end_event(json::Writer& w) { return w.end_object().take() + '\n'; }

const json::Value& member(const json::Value& obj, const char* key) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) bad_wire(std::string("missing member '") + key + "'");
  return *v;
}

std::string get_string(const json::Value& obj, const char* key) {
  const json::Value& v = member(obj, key);
  if (!v.is(json::Kind::String))
    bad_wire(std::string("member '") + key + "' must be a string");
  return v.text;
}

std::string get_string_or(const json::Value& obj, const char* key,
                          std::string fallback = {}) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (!v->is(json::Kind::String))
    bad_wire(std::string("member '") + key + "' must be a string");
  return v->text;
}

std::uint64_t get_u64(const json::Value& obj, const char* key) {
  return member(obj, key).as_u64();
}

/// Doubles travel as hexfloat strings (exact) but plain numbers are accepted
/// too, mirroring the request schema's tolerance.
double get_double(const json::Value& obj, const char* key) {
  const json::Value& v = member(obj, key);
  if (v.is(json::Kind::Number)) return v.as_double();
  if (!v.is(json::Kind::String))
    bad_wire(std::string("member '") + key + "' must be a number");
  const std::optional<double> d = json::parse_hexfloat(v.text);
  if (!d) bad_wire(std::string("member '") + key + "' is not a number: '" + v.text + "'");
  return *d;
}

Severity severity_from_name(const std::string& name) {
  if (name == "note") return Severity::Note;
  if (name == "warning") return Severity::Warning;
  if (name == "error") return Severity::Error;
  bad_wire("unknown diagnostic severity '" + name + "'");
}

JobState job_state_from_name(const std::string& name) {
  if (name == "done") return JobState::Done;
  if (name == "failed") return JobState::Failed;
  if (name == "cancelled") return JobState::Cancelled;
  if (name == "interrupted") return JobState::Interrupted;
  bad_wire("unknown job status '" + name + "'");
}

Diagnostic decode_diagnostic(const json::Value& obj) {
  if (!obj.is(json::Kind::Object)) bad_wire("diagnostic must be an object");
  Diagnostic d;
  d.severity = severity_from_name(get_string(obj, "severity"));
  d.code = get_string(obj, "code");
  d.loc.line = get_u64(obj, "line");
  d.loc.column = get_u64(obj, "column");
  d.message = get_string(obj, "message");
  d.hint = get_string_or(obj, "hint");
  d.token = get_string_or(obj, "token");
  return d;
}

std::vector<Diagnostic> decode_diagnostics(const json::Value& arr,
                                           const char* where) {
  if (!arr.is(json::Kind::Array))
    bad_wire(std::string("member '") + where + "' must be an array");
  std::vector<Diagnostic> out;
  out.reserve(arr.items.size());
  for (const json::Value& item : arr.items) out.push_back(decode_diagnostic(item));
  return out;
}

JobOutcome decode_job(const json::Value& obj) {
  if (!obj.is(json::Kind::Object)) bad_wire("result job must be an object");
  JobOutcome out;
  out.label = get_string(obj, "label");
  const json::Value& key = member(obj, "key");
  if (!key.is(json::Kind::Object)) bad_wire("job 'key' must be an object");
  out.key.model = Fingerprint::from_hex(get_string(key, "model"));
  out.key.request = Fingerprint::from_hex(get_string(key, "request"));
  out.state = job_state_from_name(get_string(obj, "status"));
  out.cache_hit = get_string_or(obj, "source", "simulated") == "cache";
  out.retries = static_cast<std::uint32_t>(get_u64(obj, "retries"));
  if (out.state == JobState::Failed) {
    const json::Value& failure = member(obj, "failure");
    if (!failure.is(json::Kind::Object)) bad_wire("job 'failure' must be an object");
    out.failure.kind = get_string(failure, "kind");
    out.failure.message = get_string(failure, "message");
    const json::Value& transient = member(failure, "transient");
    if (!transient.is(json::Kind::Bool)) bad_wire("'transient' must be a bool");
    out.failure.transient = transient.boolean;
    out.failure.attempts = static_cast<std::uint32_t>(get_u64(failure, "attempts"));
  }
  // The embedded report is a "fmtree.result/v2" document; decode_report's
  // content-hash check guards its values end to end.
  if (out.state == JobState::Done)
    out.report = batch::decode_report(out.key, member(obj, "report"));
  return out;
}

}  // namespace

std::string encode_accepted(const std::string& id, std::size_t jobs) {
  json::Writer w = begin_event("accepted");
  w.key("id").string(id).key("jobs").integer(jobs);
  return end_event(w);
}

std::string encode_progress(const obs::Progress& progress) {
  json::Writer w = begin_event("progress");
  w.key("phase").string(progress.phase);
  w.key("done").integer(progress.done).key("total").integer(progress.total);
  w.key("rate").hexfloat(progress.rate).key("eta_seconds").hexfloat(progress.eta_seconds);
  w.key("ci_half_width").hexfloat(progress.ci_half_width);
  w.key("ci_target").hexfloat(progress.ci_target);
  return end_event(w);
}

std::string encode_result(const Response& response) {
  json::Writer w = begin_event("result");
  w.key("id").string(response.id);
  w.key("stop_reason").string(smc::stop_reason_name(response.stop_reason));
  write_json(w.key("warnings"), response.warnings);
  w.key("jobs").begin_array();
  for (const JobOutcome& job : response.jobs) {
    w.begin_object().key("label").string(job.label).key("key").begin_object();
    w.key("model").string(job.key.model.hex());
    w.key("request").string(job.key.request.hex()).end_object();
    w.key("status").string(job_state_name(job.state));
    w.key("source").string(job.cache_hit ? "cache" : "simulated");
    w.key("retries").integer(job.retries);
    if (job.state == JobState::Failed) {
      const batch::JobFailure& f = job.failure;
      w.key("failure").begin_object().key("kind").string(f.kind);
      w.key("message").string(f.message).key("transient").boolean(f.transient);
      w.key("attempts").integer(f.attempts).end_object();
    }
    if (job.state == JobState::Done)
      batch::write_report(w.key("report"), job.key, job.report);
    w.end_object();
  }
  w.end_array();
  return end_event(w);
}

std::string encode_error(const RequestError& error) {
  json::Writer w = begin_event("error");
  w.key("code").string(error.code()).key("message").string(error.what());
  write_json(w.key("diagnostics"), error.diagnostics());
  return end_event(w);
}

Event decode_event(const std::string& line) try {
  const json::Value doc = json::parse(line);
  if (!doc.is(json::Kind::Object)) bad_wire("event is not a JSON object");
  if (get_string_or(doc, "schema") != kSchema)
    bad_wire("missing or unsupported schema tag (want fmtree.response/v1)");
  const std::string event = get_string(doc, "event");
  Event out;
  if (event == "accepted") {
    out.kind = EventKind::Accepted;
    out.id = get_string_or(doc, "id");
    out.jobs = get_u64(doc, "jobs");
  } else if (event == "progress") {
    out.kind = EventKind::Progress;
    const std::string phase = get_string(doc, "phase");
    for (const std::string_view known : kPhases)
      if (phase == known) out.progress.phase = known;
    out.progress.done = get_u64(doc, "done");
    out.progress.total = get_u64(doc, "total");
    out.progress.rate = get_double(doc, "rate");
    out.progress.eta_seconds = get_double(doc, "eta_seconds");
    out.progress.ci_half_width = get_double(doc, "ci_half_width");
    out.progress.ci_target = get_double(doc, "ci_target");
  } else if (event == "result") {
    out.kind = EventKind::Result;
    out.id = get_string_or(doc, "id");
    out.response.id = out.id;
    out.response.stop_reason =
        smc::stop_reason_from_name(get_string_or(doc, "stop_reason", "none"));
    out.response.warnings = decode_diagnostics(member(doc, "warnings"), "warnings");
    const json::Value& jobs = member(doc, "jobs");
    if (!jobs.is(json::Kind::Array)) bad_wire("member 'jobs' must be an array");
    out.response.jobs.reserve(jobs.items.size());
    for (const json::Value& job : jobs.items)
      out.response.jobs.push_back(decode_job(job));
  } else if (event == "error") {
    out.kind = EventKind::Error;
    out.error_code = get_string(doc, "code");
    out.diagnostics = decode_diagnostics(member(doc, "diagnostics"), "diagnostics");
    if (out.diagnostics.empty()) {
      Diagnostic d;
      d.code = out.error_code;
      d.message = get_string_or(doc, "message", "server reported an error");
      out.diagnostics.push_back(std::move(d));
    }
  } else {
    bad_wire("unknown event '" + event + "'");
  }
  return out;
} catch (const RequestError&) {
  throw;
} catch (const Error& e) {
  bad_wire(e.what());
}

}  // namespace fmtree::serve
