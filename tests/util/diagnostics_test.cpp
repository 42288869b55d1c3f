#include "util/diagnostics.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace fmtree {
namespace {

TEST(Diagnostics, CountsErrorsNotWarnings) {
  Diagnostics d;
  EXPECT_TRUE(d.empty());
  d.warning("P101", {1, 1}, "odd but legal");
  EXPECT_FALSE(d.has_errors());
  d.error("P102", {2, 5}, "duplicate definition of 'A'");
  d.error("M101", {3, 1}, "undefined reference");
  EXPECT_EQ(d.error_count(), 2u);
  EXPECT_EQ(d.all().size(), 3u);
}

TEST(Diagnostics, FormatIncludesLocationCodeHintAndToken) {
  Diagnostic d;
  d.code = "P101";
  d.loc = {4, 12};
  d.message = "expected ';'";
  d.hint = "statements end with ';'";
  d.token = "or";
  EXPECT_EQ(format_diagnostic(d),
            "4:12: error[P101]: expected ';' (at 'or') (hint: statements end with ';')");
}

TEST(Diagnostics, FormatSuppressesMissingParts) {
  Diagnostic d;
  d.code = "M105";
  d.message = "no top event set";
  EXPECT_EQ(format_diagnostic(d), "error[M105]: no top event set");
  d.loc = {7, 0};  // line known, column not
  EXPECT_EQ(format_diagnostic(d), "7: error[M105]: no top event set");
}

TEST(Diagnostics, TokenNotRepeatedWhenMessageQuotesIt) {
  Diagnostic d;
  d.code = "P102";
  d.loc = {2, 1};
  d.message = "duplicate definition of 'A'";
  d.token = "A";
  EXPECT_EQ(format_diagnostic(d), "2:1: error[P102]: duplicate definition of 'A'");
}

TEST(Diagnostics, ToJsonEscapesAndListsEveryDiagnostic) {
  Diagnostics d;
  d.error("P101", {1, 2}, "bad \"name\"", "quote it", "\"x");
  d.warning("M103", {0, 0}, "unused node");
  const std::string json = d.to_json();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"code\":\"P101\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":1"), std::string::npos);
  EXPECT_NE(json.find("\"column\":2"), std::string::npos);
  EXPECT_NE(json.find("bad \\\"name\\\""), std::string::npos);
  EXPECT_NE(json.find("\"hint\":\"quote it\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\":\"warning\""), std::string::npos);
}

TEST(Diagnostics, ThrowIfErrorsPicksParseAggregateForParseCodes) {
  Diagnostics d;
  d.error("P101", {3, 7}, "expected ';'");
  d.error("M101", {5, 1}, "undefined reference to 'X'");
  try {
    d.throw_if_errors();
    FAIL() << "expected ParseErrors";
  } catch (const ParseErrors& e) {
    EXPECT_EQ(e.diagnostics().size(), 2u);
    EXPECT_EQ(e.line(), 3u);  // first error's location
    EXPECT_EQ(e.column(), 7u);
    EXPECT_NE(std::string(e.what()).find("2 parse errors"), std::string::npos);
  }
}

TEST(Diagnostics, ThrowIfErrorsPicksModelAggregateOtherwise) {
  Diagnostics d;
  d.warning("P101", {1, 1}, "a warning does not make it a parse failure");
  d.error("M102", {0, 0}, "cycle involving 'A'");
  EXPECT_THROW(d.throw_if_errors(), ModelErrors);
}

TEST(Diagnostics, ThrowIfErrorsNoOpWithoutErrors) {
  Diagnostics d;
  d.warning("M103", {1, 1}, "nothing fatal");
  EXPECT_NO_THROW(d.throw_if_errors());
}

TEST(Diagnostics, AggregatesStillCatchableAsSingleErrorTypes) {
  // Compatibility contract: old call sites catching ParseError / ModelError
  // keep working when the parser throws the aggregate forms.
  Diagnostics d;
  d.error("P101", {1, 1}, "boom");
  EXPECT_THROW(d.throw_if_errors(), ParseError);
  Diagnostics m;
  m.error("M101", {1, 1}, "boom");
  EXPECT_THROW(m.throw_if_errors(), ModelError);
}

TEST(Diagnostics, FromParseErrorPreservesStructuredFields) {
  const ParseError e(9, 4, "vot", "unknown statement type 'vot'", "P104",
                     "expected and/or/vot/be");
  const Diagnostic d = diagnostic_from(e);
  EXPECT_EQ(d.code, "P104");
  EXPECT_EQ(d.loc.line, 9u);
  EXPECT_EQ(d.loc.column, 4u);
  EXPECT_EQ(d.token, "vot");
  EXPECT_EQ(d.message, "unknown statement type 'vot'");
  EXPECT_EQ(d.hint, "expected and/or/vot/be");
}

TEST(Diagnostics, FromErrorStripsClassPrefix) {
  const Diagnostic d = diagnostic_from(IoError("cannot open 'x.fmt'"), "U101");
  EXPECT_EQ(d.code, "U101");
  EXPECT_EQ(d.message, "cannot open 'x.fmt'");
}

TEST(ResourceLimit, WhatRendersPartialProgress) {
  const ResourceLimitError e("solver failed to converge",
                             {.iterations = 42, .residual = 1e-3, .states = 7});
  const std::string what = e.what();
  EXPECT_NE(what.find("resource limit: solver failed to converge"), std::string::npos);
  EXPECT_NE(what.find("iterations=42"), std::string::npos);
  EXPECT_NE(what.find("residual=0.001"), std::string::npos);
  EXPECT_NE(what.find("states=7"), std::string::npos);
  EXPECT_EQ(e.progress().iterations, 42u);
}

TEST(Diagnostics, ToJsonBytesArePinned) {
  Diagnostics d;
  d.error("P101", {1, 2}, "bad \"name\"", "quote it", "\"x");
  d.warning("M103", {0, 0}, "unused\tnode\x01");
  EXPECT_EQ(d.to_json(), R"json([{"severity":"error","code":"P101","line":1,"column":2,"message":"bad \"name\"","hint":"quote it","token":"\"x"},{"severity":"warning","code":"M103","line":0,"column":0,"message":"unused\tnode\u0001"}])json");
}

}  // namespace
}  // namespace fmtree
