// Structured diagnostics: every user-facing failure is a Diagnostic with a
// severity, a stable code, a source location (line and column where one
// exists) and an optional hint. Front ends (the .fmt/.ft parsers, model
// validation, the CLI) collect diagnostics into a Diagnostics sink so a
// single pass reports *every* problem instead of aborting at the first one.
//
// Stable code ranges (documented in DESIGN.md, "Failure semantics"):
//   L1xx  lexical errors       (bad character, unterminated string, ...)
//   P1xx  syntax errors        (unexpected token, duplicate statement, ...)
//   P2xx  attribute errors     (missing/unknown/out-of-range attributes)
//   P3xx  reference errors     (statement names an undeclared node)
//   M1xx  model errors         (cycles, orphans, structural validation)
//   R1xx  resource limits      (iteration caps, state-space caps, budgets)
//   N1xx  numeric errors       (non-finite statistics)
//   U1xx  usage/input errors   (bad files, bad option values, unsupported models)
//   X1xx  internal errors      (anything escaping as std::exception)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace fmtree {

namespace json {
class Writer;
}  // namespace json

enum class Severity { Note, Warning, Error };

const char* severity_name(Severity s);

/// 1-based line/column; 0 means "no location" (whole-input problems such as
/// a missing toplevel declaration, or non-parser diagnostics).
struct SourceLocation {
  std::size_t line = 0;
  std::size_t column = 0;
};

struct Diagnostic {
  Severity severity = Severity::Error;
  std::string code;     ///< stable identifier, e.g. "P101"
  SourceLocation loc;
  std::string message;  ///< plain message, no "parse error at ..." prefix
  std::string hint;     ///< optional "try ..." guidance; empty when none
  std::string token;    ///< offending token text when one exists
};

/// Append-only diagnostic sink. Cheap to pass by reference through the
/// parsing/validation layers; rendering (text or JSON) happens at the edge.
class Diagnostics {
public:
  void add(Diagnostic d);
  void error(std::string code, SourceLocation loc, std::string message,
             std::string hint = {}, std::string token = {});
  void warning(std::string code, SourceLocation loc, std::string message,
               std::string hint = {});

  bool empty() const noexcept { return items_.empty(); }
  std::size_t error_count() const noexcept { return errors_; }
  bool has_errors() const noexcept { return errors_ > 0; }
  const std::vector<Diagnostic>& all() const noexcept { return items_; }

  /// Human-readable rendering, one diagnostic per line:
  ///   <line>:<col>: error[P101]: message (hint: ...)
  std::string format() const;

  /// Machine-readable rendering: a JSON array of diagnostic objects with
  /// keys severity/code/line/column/message/hint/token.
  std::string to_json() const;

  /// Throws if any error-severity diagnostic was collected: ParseErrors when
  /// at least one lexical/syntax/attribute/reference (L*/P*) error exists,
  /// ModelErrors otherwise. No-op when error-free.
  void throw_if_errors() const;

private:
  std::vector<Diagnostic> items_;
  std::size_t errors_ = 0;
};

/// Renders one diagnostic in the human-readable format used by Diagnostics::format().
std::string format_diagnostic(const Diagnostic& d);

/// Writes `items` into `w` as the JSON array Diagnostics::to_json() renders.
void write_json(json::Writer& w, const std::vector<Diagnostic>& items);

/// Aggregate of one parse pass: derives from ParseError so call sites that
/// expect the single-error exception keep working, while carrying the full
/// diagnostic list of the pass.
class ParseErrors : public ParseError {
public:
  explicit ParseErrors(std::vector<Diagnostic> diagnostics);
  const std::vector<Diagnostic>& diagnostics() const noexcept { return diagnostics_; }

private:
  std::vector<Diagnostic> diagnostics_;
};

/// Aggregate of model validation; derives from ModelError analogously.
class ModelErrors : public ModelError {
public:
  explicit ModelErrors(std::vector<Diagnostic> diagnostics);
  const std::vector<Diagnostic>& diagnostics() const noexcept { return diagnostics_; }

private:
  std::vector<Diagnostic> diagnostics_;
};

/// Converts a caught exception into a Diagnostic, preserving structured
/// fields (location, code, hint) where the exception type carries them.
Diagnostic diagnostic_from(const ParseError& e);
Diagnostic diagnostic_from(const Error& e, std::string code);

}  // namespace fmtree
