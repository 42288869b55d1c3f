#include "util/diagnostics.hpp"

#include <sstream>

#include "util/json.hpp"

namespace fmtree {

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::Note: return "note";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "?";
}

void Diagnostics::add(Diagnostic d) {
  if (d.severity == Severity::Error) ++errors_;
  items_.push_back(std::move(d));
}

void Diagnostics::error(std::string code, SourceLocation loc, std::string message,
                        std::string hint, std::string token) {
  add(Diagnostic{Severity::Error, std::move(code), loc, std::move(message),
                 std::move(hint), std::move(token)});
}

void Diagnostics::warning(std::string code, SourceLocation loc, std::string message,
                          std::string hint) {
  add(Diagnostic{Severity::Warning, std::move(code), loc, std::move(message),
                 std::move(hint), {}});
}

std::string format_diagnostic(const Diagnostic& d) {
  std::ostringstream os;
  if (d.loc.line != 0) {
    os << d.loc.line << ':';
    if (d.loc.column != 0) os << d.loc.column << ':';
    os << ' ';
  }
  os << severity_name(d.severity) << '[' << d.code << "]: " << d.message;
  if (!d.token.empty() && d.message.find("'" + d.token + "'") == std::string::npos)
    os << " (at '" << d.token << "')";
  if (!d.hint.empty()) os << " (hint: " << d.hint << ')';
  return os.str();
}

std::string Diagnostics::format() const {
  std::string out;
  for (const Diagnostic& d : items_) {
    out += format_diagnostic(d);
    out += '\n';
  }
  return out;
}

void write_json(json::Writer& w, const std::vector<Diagnostic>& items) {
  w.begin_array();
  for (const Diagnostic& d : items) {
    w.begin_object().key("severity").string(severity_name(d.severity));
    w.key("code").string(d.code).key("line").integer(d.loc.line);
    w.key("column").integer(d.loc.column).key("message").string(d.message);
    if (!d.hint.empty()) w.key("hint").string(d.hint);
    if (!d.token.empty()) w.key("token").string(d.token);
    w.end_object();
  }
  w.end_array();
}

std::string Diagnostics::to_json() const {
  json::Writer w(json::Writer::Layout::Compact);
  write_json(w, items_);
  return w.take();
}

namespace {

bool is_parse_code(const std::string& code) {
  return !code.empty() && (code[0] == 'L' || code[0] == 'P');
}

std::vector<Diagnostic> errors_only(const std::vector<Diagnostic>& items) {
  std::vector<Diagnostic> out;
  for (const Diagnostic& d : items)
    if (d.severity == Severity::Error) out.push_back(d);
  return out;
}

std::string render_aggregate(const char* kind, const std::vector<Diagnostic>& diags) {
  std::ostringstream os;
  std::size_t errors = 0;
  for (const Diagnostic& d : diags)
    if (d.severity == Severity::Error) ++errors;
  os << errors << ' ' << kind << (errors == 1 ? "" : "s") << ":\n";
  for (const Diagnostic& d : diags) os << "  " << format_diagnostic(d) << '\n';
  return os.str();
}

SourceLocation first_error_location(const std::vector<Diagnostic>& diags) {
  for (const Diagnostic& d : diags)
    if (d.severity == Severity::Error) return d.loc;
  return {};
}

}  // namespace

ParseErrors::ParseErrors(std::vector<Diagnostic> diagnostics)
    : ParseError(Raw{}, first_error_location(diagnostics).line,
                 first_error_location(diagnostics).column,
                 render_aggregate("parse error", diagnostics)),
      diagnostics_(std::move(diagnostics)) {}

ModelErrors::ModelErrors(std::vector<Diagnostic> diagnostics)
    : ModelError(render_aggregate("model error", diagnostics)),
      diagnostics_(std::move(diagnostics)) {}

void Diagnostics::throw_if_errors() const {
  if (!has_errors()) return;
  const std::vector<Diagnostic> errs = errors_only(items_);
  for (const Diagnostic& d : errs)
    if (is_parse_code(d.code)) throw ParseErrors(errs);
  throw ModelErrors(errs);
}

Diagnostic diagnostic_from(const ParseError& e) {
  return Diagnostic{Severity::Error, e.code(), {e.line(), e.column()},
                    e.message().empty() ? std::string(e.what()) : e.message(),
                    e.hint(), e.token()};
}

Diagnostic diagnostic_from(const Error& e, std::string code) {
  std::string message = e.what();
  // Strip the class prefix ("model error: ", "domain error: ", ...) — the
  // diagnostic code already classifies the problem.
  if (const std::size_t colon = message.find(": "); colon != std::string::npos &&
                                                    colon < 24)
    message.erase(0, colon + 2);
  return Diagnostic{Severity::Error, std::move(code), {}, std::move(message), {}, {}};
}

}  // namespace fmtree
