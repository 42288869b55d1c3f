// Error-recovery parsing: one pass over a broken .ft input must surface
// every diagnostic (with location, stable code and hint), not just the first.
#include "ft/parser.hpp"

#include <gtest/gtest.h>

#include "ft/lexer.hpp"

#include "util/diagnostics.hpp"
#include "util/error.hpp"

namespace fmtree::ft {
namespace {

TEST(FtParserRecovery, CleanInputYieldsTreeAndNoDiagnostics) {
  const FtParseResult r = parse_fault_tree_collect(
      "toplevel T;\nT or A B;\nA be exp(1);\nB be exp(2);\n");
  ASSERT_TRUE(r.tree.has_value());
  EXPECT_TRUE(r.diagnostics.empty());
  EXPECT_EQ(r.tree->basic_events().size(), 2u);
}

TEST(FtParserRecovery, ReportsEveryErrorInOnePass) {
  // Three independent problems on three lines; the statement loop must
  // synchronize at each ';' and keep going.
  const FtParseResult r = parse_fault_tree_collect(
      "toplevel T;\n"
      "T or A B C;\n"
      "A be exp(0);\n"     // bad rate
      "B zz C;\n"          // unknown statement type
      "T be exp(1);\n"     // duplicate definition
      "C be exp(1);\n");   // fine — must still be consumed
  EXPECT_FALSE(r.tree.has_value());
  ASSERT_EQ(r.diagnostics.error_count(), 3u);
  const auto& d = r.diagnostics.all();
  EXPECT_EQ(d[0].loc.line, 3u);
  EXPECT_EQ(d[0].code, "P101");
  EXPECT_EQ(d[1].loc.line, 4u);
  EXPECT_EQ(d[1].code, "P104");
  EXPECT_EQ(d[1].token, "zz");
  EXPECT_GT(d[1].loc.column, 0u);
  EXPECT_EQ(d[2].loc.line, 5u);
  EXPECT_EQ(d[2].code, "P102");
  EXPECT_FALSE(d[2].hint.empty());
}

TEST(FtParserRecovery, LexicalAndSyntaxErrorsCoexist) {
  const FtParseResult r = parse_fault_tree_collect(
      "toplevel T;\n"
      "T or @ A;\n"        // lexer-level bad character
      "A be zeta(1);\n");  // unknown distribution
  EXPECT_FALSE(r.tree.has_value());
  ASSERT_GE(r.diagnostics.error_count(), 2u);
  EXPECT_EQ(r.diagnostics.all()[0].code[0], 'L');
  EXPECT_EQ(r.diagnostics.all()[0].loc.line, 2u);
}

TEST(FtParserRecovery, SyntaxErrorsSuppressCascadingReferenceErrors) {
  // 'A be exp(0);' fails, leaving A undeclared — but reporting M101 for A
  // on top of the real error would only confuse; the semantic phase is
  // skipped when syntax errors exist.
  const FtParseResult r =
      parse_fault_tree_collect("toplevel T;\nT or A;\nA be exp(0);\n");
  ASSERT_EQ(r.diagnostics.error_count(), 1u);
  EXPECT_EQ(r.diagnostics.all()[0].code, "P101");
}

TEST(FtParserRecovery, UndefinedReferencesAllReportedAndDeduplicated) {
  const FtParseResult r = parse_fault_tree_collect(
      "toplevel T;\n"
      "T or A B;\n"
      "A and Miss1 Miss2;\n"
      "B or Miss1;\n"  // Miss1 again: reported once
      );
  EXPECT_FALSE(r.tree.has_value());
  ASSERT_EQ(r.diagnostics.error_count(), 2u);
  EXPECT_EQ(r.diagnostics.all()[0].code, "M101");
  EXPECT_EQ(r.diagnostics.all()[1].code, "M101");
}

TEST(FtParserRecovery, CyclesReported) {
  const FtParseResult r =
      parse_fault_tree_collect("toplevel T;\nT or U;\nU or T;\n");
  EXPECT_FALSE(r.tree.has_value());
  ASSERT_GE(r.diagnostics.error_count(), 1u);
  EXPECT_EQ(r.diagnostics.all()[0].code, "M102");
}

TEST(FtParserRecovery, AllOrphansReported) {
  const FtParseResult r = parse_fault_tree_collect(
      "toplevel T;\nT or A;\nA be exp(1);\n"
      "O1 be exp(1);\nO2 or A;\n");
  EXPECT_FALSE(r.tree.has_value());
  EXPECT_EQ(r.diagnostics.error_count(), 2u);
  for (const Diagnostic& d : r.diagnostics.all()) EXPECT_EQ(d.code, "M103");
}

TEST(FtParserRecovery, MissingToplevelAlwaysChecked) {
  const FtParseResult r = parse_fault_tree_collect("A be exp(1);\n");
  EXPECT_FALSE(r.tree.has_value());
  ASSERT_EQ(r.diagnostics.error_count(), 1u);
  EXPECT_EQ(r.diagnostics.all()[0].code, "P103");
  EXPECT_FALSE(r.diagnostics.all()[0].hint.empty());
}

TEST(FtParserRecovery, ThrowingParserRaisesAggregateWithSameDiagnostics) {
  const std::string text = "toplevel T;\nT or A;\nA be exp(0);\nB zz;\n";
  const FtParseResult collected = parse_fault_tree_collect(text);
  ASSERT_EQ(collected.diagnostics.error_count(), 2u);
  try {
    (void)parse_fault_tree(text);
    FAIL() << "expected ParseErrors";
  } catch (const ParseErrors& e) {
    ASSERT_EQ(e.diagnostics().size(), 2u);
    EXPECT_EQ(e.diagnostics()[0].code, collected.diagnostics.all()[0].code);
    EXPECT_EQ(e.diagnostics()[1].loc.line, collected.diagnostics.all()[1].loc.line);
  }
}

TEST(FtParserRecovery, ExpectedTokenErrorsCarryColumnAndToken) {
  try {
    (void)parse_fault_tree("toplevel T\nT or A;\nA be exp(1);\n");
    FAIL() << "expected ParseErrors";
  } catch (const ParseErrors& e) {
    ASSERT_EQ(e.diagnostics().size(), 1u);
    const Diagnostic& d = e.diagnostics().front();
    EXPECT_EQ(d.loc.line, 2u);  // the 'T' opening line 2 is where ';' was expected
    EXPECT_GT(d.loc.column, 0u);
    EXPECT_EQ(d.token, "T");
    EXPECT_EQ(e.line(), 2u);  // the aggregate mirrors the first error's location
  }
}

TEST(FtParserRecovery, StringsKeepTheirOpeningQuotePosition) {
  // Unterminated: the scan runs past a newline to the end of the input, and
  // the L102 still points at the opening quote, line 2 column 10.
  const FtParseResult r = parse_fault_tree_collect("toplevel sys;\nsys or a \"b\n");
  ASSERT_GE(r.diagnostics.error_count(), 1u);
  const Diagnostic& d = r.diagnostics.all().front();
  EXPECT_EQ(d.code, "L102");
  EXPECT_EQ(d.loc.line, 2u);
  EXPECT_EQ(d.loc.column, 10u);

  // Terminated across lines: the string token sits at its opening quote,
  // and the token after it at its own position on the closing line.
  Diagnostics diags;
  const std::vector<Token> tokens = tokenize("a \"x\ny\" b", diags);
  EXPECT_TRUE(diags.empty());
  ASSERT_EQ(tokens.size(), 4u);  // a, "x\ny", b, end
  EXPECT_EQ(tokens[1].text, "x\ny");
  EXPECT_EQ(tokens[1].line, 1u);
  EXPECT_EQ(tokens[1].column, 3u);
  EXPECT_EQ(tokens[2].line, 2u);
  EXPECT_EQ(tokens[2].column, 4u);
}

}  // namespace
}  // namespace fmtree::ft
