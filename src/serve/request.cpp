#include "serve/request.hpp"

#include <cmath>
#include <fstream>
#include <optional>
#include <sstream>

#include "fleet/fleet.hpp"
#include "fmt/parser.hpp"
#include "lang/runtime.hpp"
#include "util/format.hpp"
#include "util/json.hpp"

namespace fmtree::serve {

namespace {

constexpr const char* kSchema = "fmtree.request/v1";

Diagnostic make_diagnostic(std::string code, const std::string& message,
                           std::string hint) {
  Diagnostic d;
  d.severity = Severity::Error;
  d.code = std::move(code);
  d.message = message;
  d.hint = std::move(hint);
  return d;
}

[[noreturn]] void invalid(const std::string& message, std::string hint = {}) {
  throw RequestError("R112", message, std::move(hint));
}

/// Schema doubles: a JSON number, or a string holding a C99 hexfloat (or
/// any strtod-parseable spelling). Hexfloat strings are the canonical form
/// because they round-trip bit-exactly into the cache fingerprint.
double parse_number(const json::Value& v, const std::string& what) {
  if (v.is(json::Kind::Number)) {
    try {
      return v.as_double();
    } catch (const Error& e) {
      invalid("request field '" + what + "': " + e.what());
    }
  }
  if (v.is(json::Kind::String)) {
    const std::optional<double> value = json::parse_hexfloat(v.text);
    if (!value)
      invalid("request field '" + what + "' is not a number: '" + v.text + "'",
              "use a JSON number or a C99 hexfloat string like \"0x1.8p+1\"");
    return *value;
  }
  invalid("request field '" + what + "' must be a number or hexfloat string");
}

/// Schema integers: a JSON number token holding a whole decimal, decoded
/// exactly (never through a double).
std::uint64_t parse_count(const json::Value& v, const std::string& what) {
  const std::optional<std::uint64_t> n =
      v.is(json::Kind::Number) ? fmtree::parse_count(v.text) : std::nullopt;
  if (!n)
    invalid("request field '" + what + "' must be a nonnegative integer no "
            "greater than 18446744073709551615");
  return *n;
}

void reject_unknown_members(const json::Value& object, const char* where,
                            std::initializer_list<const char*> known) {
  for (const auto& [key, value] : object.members) {
    bool ok = false;
    for (const char* k : known) ok = ok || key == k;
    if (!ok)
      invalid(std::string("unknown request field '") + where + "." + key + "'",
              "the fmtree.request/v1 schema rejects unrecognized fields");
  }
}

}  // namespace

RequestError::RequestError(std::string code, const std::string& message,
                           std::string hint)
    : Error(message), code_(std::move(code)) {
  diagnostics_.push_back(make_diagnostic(code_, message, std::move(hint)));
}

RequestError::RequestError(std::string code, std::vector<Diagnostic> diagnostics)
    : Error(diagnostics.empty() ? "invalid request" : diagnostics.front().message),
      code_(std::move(code)),
      diagnostics_(std::move(diagnostics)) {}

AdmissionError::AdmissionError(const std::string& message)
    : RequestError("R120", message,
                   "the daemon's job queue is full; retry after a drain") {}

Request parse_request(const std::string& text) {
  json::Value doc;
  try {
    doc = json::parse(text);
  } catch (const Error& e) {
    throw RequestError("R110", std::string("malformed request JSON: ") + e.what());
  }
  if (!doc.is(json::Kind::Object))
    throw RequestError("R110", "request must be a JSON object");
  const json::Value* schema = doc.find("schema");
  if (schema == nullptr || !schema->is(json::Kind::String))
    throw RequestError("R111", "request has no schema tag",
                       std::string("expected \"schema\": \"") + kSchema + "\"");
  if (schema->text != kSchema)
    throw RequestError("R111", "unsupported request schema '" + schema->text + "'",
                       std::string("this server speaks ") + kSchema);
  reject_unknown_members(
      doc, "request",
      {"schema", "id", "priority", "model", "settings", "fleet", "policy"});

  Request req;
  if (const json::Value* id = doc.find("id")) {
    if (!id->is(json::Kind::String)) invalid("request field 'id' must be a string");
    req.id = id->text;
  }
  if (const json::Value* prio = doc.find("priority")) {
    const double p = parse_number(*prio, "priority");
    if (p != std::floor(p) || p < -1000 || p > 1000)
      invalid("request field 'priority' must be an integer in [-1000, 1000]");
    req.priority = static_cast<int>(p);
  }

  const json::Value* model = doc.find("model");
  if (model == nullptr || !model->is(json::Kind::Object))
    invalid("request needs a 'model' object",
            "either {\"inline\": \"<.fmt source>\"} or {\"ref\": \"<name>\"}");
  reject_unknown_members(*model, "model", {"inline", "ref"});
  const json::Value* inline_text = model->find("inline");
  const json::Value* ref = model->find("ref");
  if ((inline_text != nullptr) == (ref != nullptr))
    invalid("request 'model' needs exactly one of 'inline' or 'ref'");
  if (inline_text != nullptr) {
    if (!inline_text->is(json::Kind::String))
      invalid("request field 'model.inline' must be a string of .fmt source");
    req.model_text = inline_text->text;
  } else {
    if (!ref->is(json::Kind::String) || ref->text.empty())
      invalid("request field 'model.ref' must be a nonempty string");
    req.model_ref = ref->text;
  }

  if (const json::Value* settings = doc.find("settings")) {
    if (!settings->is(json::Kind::Object))
      invalid("request field 'settings' must be an object");
    reject_unknown_members(*settings, "settings",
                           {"horizon", "trajectories", "seed", "confidence",
                            "discount_rate", "target_relative_error", "engine"});
    if (const json::Value* v = settings->find("horizon"))
      req.settings.horizon = parse_number(*v, "settings.horizon");
    if (const json::Value* v = settings->find("trajectories"))
      req.settings.trajectories = parse_count(*v, "settings.trajectories");
    if (const json::Value* v = settings->find("seed"))
      req.settings.seed = parse_count(*v, "settings.seed");
    if (const json::Value* v = settings->find("confidence"))
      req.settings.confidence = parse_number(*v, "settings.confidence");
    if (const json::Value* v = settings->find("discount_rate"))
      req.settings.discount_rate = parse_number(*v, "settings.discount_rate");
    if (const json::Value* v = settings->find("target_relative_error"))
      req.settings.target_relative_error =
          parse_number(*v, "settings.target_relative_error");
    if (const json::Value* v = settings->find("engine")) {
      if (!v->is(json::Kind::String))
        invalid("request field 'settings.engine' must be a string");
      if (v->text == "default") req.settings.engine = Engine::Default;
      else if (v->text == "scalar") req.settings.engine = Engine::Scalar;
      else if (v->text == "batch") req.settings.engine = Engine::Batch;
      else
        invalid("unknown engine '" + v->text + "'",
                "one of \"default\", \"scalar\", \"batch\"");
    }
  }
  if (!(req.settings.horizon > 0)) invalid("settings.horizon must be positive");
  if (req.settings.trajectories == 0)
    invalid("settings.trajectories must be positive");
  if (!(req.settings.confidence > 0 && req.settings.confidence < 1))
    invalid("settings.confidence must lie in (0,1)");

  if (const json::Value* fleet = doc.find("fleet")) {
    if (!fleet->is(json::Kind::Object))
      invalid("request field 'fleet' must be an object");
    reject_unknown_members(*fleet, "fleet",
                           {"joints", "seed", "jitter", "coupling"});
    const json::Value* joints = fleet->find("joints");
    if (joints == nullptr)
      invalid("request field 'fleet' needs 'joints'");
    const std::uint64_t n = parse_count(*joints, "fleet.joints");
    if (n < 1 || n > 100000)
      invalid("request field 'fleet.joints' must lie in [1, 100000]");
    req.fleet.joints = static_cast<std::uint32_t>(n);
    if (const json::Value* v = fleet->find("seed"))
      req.fleet.seed = parse_count(*v, "fleet.seed");
    if (const json::Value* v = fleet->find("jitter")) {
      req.fleet.jitter = parse_number(*v, "fleet.jitter");
      if (!(req.fleet.jitter >= 0) || !std::isfinite(req.fleet.jitter))
        invalid("request field 'fleet.jitter' must be finite and >= 0");
    }
    if (const json::Value* v = fleet->find("coupling")) {
      req.fleet.coupling = parse_number(*v, "fleet.coupling");
      if (!(req.fleet.coupling >= 0) || !std::isfinite(req.fleet.coupling))
        invalid("request field 'fleet.coupling' must be finite and >= 0");
    }
    req.has_fleet = true;
  }

  if (const json::Value* policy = doc.find("policy")) {
    if (!policy->is(json::Kind::Object))
      invalid("request field 'policy' must be an object");
    reject_unknown_members(*policy, "policy", {"frequencies", "scripts"});
    const json::Value* freqs = policy->find("frequencies");
    const json::Value* scripts = policy->find("scripts");
    if (freqs == nullptr && scripts == nullptr)
      invalid("request field 'policy' needs 'frequencies' and/or 'scripts'");
    if (freqs != nullptr) {
      if (!freqs->is(json::Kind::Array) || freqs->items.empty())
        invalid("request field 'policy.frequencies' must be a nonempty array");
      for (const json::Value& item : freqs->items) {
        const double f = parse_number(item, "policy.frequencies[]");
        if (!(f >= 0) || !std::isfinite(f))
          invalid("policy frequencies must be finite and >= 0");
        req.frequencies.push_back(f);
      }
    }
    if (scripts != nullptr) {
      if (!scripts->is(json::Kind::Array) || scripts->items.empty())
        invalid("request field 'policy.scripts' must be a nonempty array");
      for (const json::Value& item : scripts->items) {
        if (!item.is(json::Kind::Object))
          invalid("request field 'policy.scripts[]' must be an object",
                  "either {\"inline\": \"<script>\"} or {\"ref\": \"<name>\"}");
        reject_unknown_members(item, "policy.scripts[]", {"inline", "ref"});
        const json::Value* inline_src = item.find("inline");
        const json::Value* script_ref = item.find("ref");
        if ((inline_src != nullptr) == (script_ref != nullptr))
          invalid(
              "request 'policy.scripts[]' needs exactly one of 'inline' or "
              "'ref'");
        Request::PolicyScript script;
        if (inline_src != nullptr) {
          if (!inline_src->is(json::Kind::String) || inline_src->text.empty())
            invalid(
                "request field 'policy.scripts[].inline' must be a nonempty "
                "string of policy source");
          script.text = inline_src->text;
        } else {
          if (!script_ref->is(json::Kind::String) || script_ref->text.empty())
            invalid(
                "request field 'policy.scripts[].ref' must be a nonempty "
                "string");
          script.ref = script_ref->text;
        }
        req.scripts.push_back(std::move(script));
      }
    }
    req.has_policy = true;
  }
  if (req.has_fleet && !req.frequencies.empty())
    invalid("a fleet request cannot also sweep 'policy.frequencies'",
            "bake the inspection schedule into the model (or use one policy "
            "script); every joint runs the same policy");
  if (req.has_fleet && req.scripts.size() > 1)
    invalid("a fleet request accepts at most one policy script",
            "the script is applied to every joint of the corridor");
  return req;
}

std::string encode_request(const Request& request) {
  using Wrap = json::Writer::Wrap;
  json::Writer w(json::Writer::Layout::Spaced);
  w.begin_object(Wrap::Block).key("schema").string(kSchema);
  if (!request.id.empty()) w.key("id").string(request.id);
  if (request.priority != 0) w.key("priority").integer(request.priority);
  w.key("model").begin_object();
  if (!request.model_ref.empty()) w.key("ref").string(request.model_ref);
  else w.key("inline").string(request.model_text);
  const smc::AnalysisSettings& s = request.settings;
  w.end_object().key("settings").begin_object(Wrap::Block);
  w.key("horizon").hexfloat(s.horizon).key("trajectories").integer(s.trajectories);
  w.key("seed").integer(s.seed).key("confidence").hexfloat(s.confidence);
  w.key("discount_rate").hexfloat(s.discount_rate);
  w.key("target_relative_error").hexfloat(s.target_relative_error);
  w.key("engine").string(s.engine == Engine::Default ? "default"
                                                      : engine_name(s.engine));
  w.end_object();
  if (request.has_fleet) {
    w.key("fleet").begin_object().key("joints").integer(request.fleet.joints);
    w.key("seed").integer(request.fleet.seed);
    w.key("jitter").hexfloat(request.fleet.jitter);
    w.key("coupling").hexfloat(request.fleet.coupling).end_object();
  }
  if (request.has_policy) {
    w.key("policy").begin_object();
    if (!request.frequencies.empty()) {
      w.key("frequencies").begin_array();
      for (const double f : request.frequencies) w.hexfloat(f);
      w.end_array();
    }
    if (!request.scripts.empty()) {
      w.key("scripts").begin_array();
      for (const Request::PolicyScript& script : request.scripts) {
        if (!script.ref.empty()) w.begin_object().key("ref").string(script.ref);
        else w.begin_object().key("inline").string(script.text);
        w.end_object();
      }
      w.end_array();
    }
    w.end_object();
  }
  return w.end_object().take() + '\n';
}

namespace {

/// Resolves (R112 on a bad ref), compiles (R114 with the compiler's own L1xx
/// diagnostics) and eagerly binds one policy script against the request's
/// model, so a script naming missing components is rejected at admission,
/// not at execution.
std::shared_ptr<const lang::CompiledPolicy> compile_script(
    const Request::PolicyScript& script, const std::string& model_root,
    const fmt::FaultMaintenanceTree& model) {
  std::string source = script.text;
  if (!script.ref.empty()) {
    if (script.ref.find("..") != std::string::npos || script.ref.front() == '/')
      throw RequestError("R112",
                         "policy script ref '" + script.ref +
                             "' must be a plain name inside the model root",
                         "absolute paths and '..' segments are rejected");
    const std::string path = model_root + "/" + script.ref;
    std::ifstream file(path);
    if (!file)
      throw RequestError("R112", "policy script ref '" + script.ref +
                                     "' not found under '" + model_root + "'");
    std::ostringstream buffer;
    buffer << file.rdbuf();
    source = buffer.str();
  }
  Diagnostics diags;
  std::optional<lang::CompiledPolicy> compiled = lang::compile_policy(source, diags);
  if (!compiled) throw RequestError("R114", diags.all());
  try {
    (void)lang::bind_policy(*compiled, lang::apply_policy(*compiled, model));
  } catch (const ModelErrors& e) {
    throw RequestError("R114", e.diagnostics());
  }
  return std::make_shared<const lang::CompiledPolicy>(*std::move(compiled));
}

}  // namespace

PreparedRequest prepare(const Request& request, const std::string& model_root) {
  std::string text = request.model_text;
  if (!request.model_ref.empty()) {
    if (request.model_ref.find("..") != std::string::npos ||
        request.model_ref.front() == '/')
      throw RequestError("R112",
                         "model ref '" + request.model_ref +
                             "' must be a plain name inside the model root",
                         "absolute paths and '..' segments are rejected");
    const std::string path = model_root + "/" + request.model_ref;
    std::ifstream file(path);
    if (!file)
      throw RequestError("R112", "model ref '" + request.model_ref +
                                     "' not found under '" + model_root + "'");
    std::ostringstream buffer;
    buffer << file.rdbuf();
    text = buffer.str();
  }

  PreparedRequest prepared;
  try {
    prepared.model = fmt::parse_fmt(text);
  } catch (const ParseErrors& e) {
    throw RequestError("R113", e.diagnostics());
  } catch (const ModelErrors& e) {
    throw RequestError("R113", e.diagnostics());
  } catch (const ParseError& e) {
    throw RequestError("R113", {diagnostic_from(e)});
  } catch (const ModelError& e) {
    throw RequestError("R113", {diagnostic_from(e, "M104")});
  }

  // Corridor expansion: the jobs are built by the same fleet::fleet_plan the
  // in-process path uses, so a served corridor describes — and cache-hits —
  // exactly the jobs a local run of the same spec would.
  if (request.has_fleet) {
    fleet::CorridorSpec spec;
    spec.joints = request.fleet.joints;
    spec.seed = request.fleet.seed;
    spec.jitter = request.fleet.jitter;
    spec.coupling = request.fleet.coupling;
    fleet::FleetOptions options;
    options.settings = request.settings;
    if (!request.scripts.empty())
      options.policy =
          compile_script(request.scripts.front(), model_root, prepared.model);
    try {
      const fleet::Corridor corridor =
          fleet::generate_corridor(prepared.model, spec);
      prepared.jobs = std::move(fleet::fleet_plan(corridor, options).jobs);
    } catch (const DomainError& e) {
      throw RequestError("R112", std::string("invalid fleet spec: ") + e.what());
    }
    return prepared;
  }

  if (!request.has_policy) {
    batch::SweepJob job;
    job.label = "analysis";
    job.model = prepared.model;
    job.settings = request.settings;
    prepared.jobs.push_back(std::move(job));
    return prepared;
  }

  bool wants_inspections = false;
  for (double f : request.frequencies) wants_inspections = wants_inspections || f > 0;
  if (wants_inspections && prepared.model.inspections().empty())
    throw RequestError("R112", "model has no inspection modules to sweep");

  // Identical expansion (labels included) to the `fmtree sweep` CLI, so a
  // served sweep and a standalone one describe — and cache — the same jobs.
  prepared.jobs.reserve(request.frequencies.size() + request.scripts.size());
  for (double f : request.frequencies) {
    batch::SweepJob job;
    job.model = prepared.model;
    if (f == 0) {
      job.model.clear_inspections();
      job.label = "no-inspection";
    } else {
      for (std::size_t i = 0; i < job.model.inspections().size(); ++i)
        job.model.set_inspection_schedule(i, 1.0 / f);
      std::ostringstream name;
      name << f << "x-per-year";
      job.label = name.str();
    }
    job.settings = request.settings;
    prepared.jobs.push_back(std::move(job));
  }

  // Scripted candidates: compile each script (R114 carries the compiler's
  // own L1xx diagnostics) and attach the compiled policy to the job's
  // settings; the engines transform the model at execution time. Script
  // refs resolve under the same model root — and the same path discipline —
  // as model refs.
  for (const Request::PolicyScript& script : request.scripts) {
    std::shared_ptr<const lang::CompiledPolicy> policy =
        compile_script(script, model_root, prepared.model);
    batch::SweepJob job;
    job.label = policy->name;
    job.model = prepared.model;
    job.settings = request.settings;
    job.settings.policy = std::move(policy);
    prepared.jobs.push_back(std::move(job));
  }
  return prepared;
}

}  // namespace fmtree::serve
