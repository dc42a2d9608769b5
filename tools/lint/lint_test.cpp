// Tests for pinsim-lint: every fixture file is analyzed under a
// pretend repo-relative path (rule applicability is path-driven) and
// the exact (rule, line) diagnostics are asserted. Triggering fixtures
// carry `// expect: <rule>` markers on the lines findings must land
// on; non-triggering fixtures and cross-directory re-analyses assert
// explicit expectation lists. The lexer's line accounting is also
// checked through lex() directly.
#include "lint.hpp"

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "lexer.hpp"

namespace pinsim::lint {
namespace {

#ifndef PINSIM_LINT_FIXTURES
#error "PINSIM_LINT_FIXTURES must point at tools/lint/fixtures"
#endif

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(PINSIM_LINT_FIXTURES) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

using RuleLine = std::pair<std::string, int>;  // (rule, 1-based line)

/// Collect the `// expect: rule [rule...]` markers from fixture text.
std::multiset<RuleLine> markers(const std::string& contents) {
  std::multiset<RuleLine> expected;
  std::istringstream lines(contents);
  std::string text;
  int line = 0;
  while (std::getline(lines, text)) {
    ++line;
    const std::size_t at = text.find("// expect:");
    if (at == std::string::npos) continue;
    std::istringstream rules(text.substr(at + std::string("// expect:").size()));
    std::string rule;
    while (rules >> rule) expected.insert({rule, line});
  }
  return expected;
}

std::multiset<RuleLine> analyze(const std::string& fixture,
                                const std::string& pretend_path) {
  const std::string contents = read_fixture(fixture);
  std::vector<Diagnostic> diags;
  analyze_file(default_config(), pretend_path, contents, &diags);
  std::multiset<RuleLine> got;
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.file, pretend_path);
    got.insert({d.rule, d.line});
  }
  return got;
}

std::string print(const std::multiset<RuleLine>& set) {
  std::ostringstream out;
  for (const auto& [rule, line] : set) out << rule << "@" << line << " ";
  return out.str();
}

/// Assert the analyzer's findings are exactly the fixture's markers.
void expect_markers(const std::string& fixture,
                    const std::string& pretend_path) {
  const std::multiset<RuleLine> expected = markers(read_fixture(fixture));
  ASSERT_FALSE(expected.empty()) << fixture << " has no expect markers";
  const std::multiset<RuleLine> got = analyze(fixture, pretend_path);
  EXPECT_EQ(got, expected) << fixture << " as " << pretend_path
                           << "\n  expected: " << print(expected)
                           << "\n  got:      " << print(got);
}

void expect_exactly(const std::string& fixture,
                    const std::string& pretend_path,
                    const std::multiset<RuleLine>& expected) {
  const std::multiset<RuleLine> got = analyze(fixture, pretend_path);
  EXPECT_EQ(got, expected) << fixture << " as " << pretend_path
                           << "\n  expected: " << print(expected)
                           << "\n  got:      " << print(got);
}

// --- determinism ----------------------------------------------------------

TEST(LintDeterminism, FlagsEveryMarkedLineInSimulatedDirs) {
  expect_markers("determinism_bad.cpp", "src/os/fixture_determinism_bad.cpp");
}

TEST(LintDeterminism, SilentOnCleanCode) {
  expect_exactly("determinism_ok.cpp", "src/os/fixture_determinism_ok.cpp",
                 {});
}

TEST(LintDeterminism, DoesNotApplyOutsideSimulatedDirs) {
  // Same violating file, analyzed outside the simulated dirs: the
  // per-directory config switches the host-read checks off. The two
  // unordered-container loops still land in src/, bench/ and examples/
  // (their output reaches the golden bytes, and a float sum in bucket
  // order varies even over the same elements); tests are exempt.
  const std::multiset<RuleLine> loops = {{"determinism", 37},
                                         {"determinism", 40}};
  expect_exactly("determinism_bad.cpp",
                 "src/core/fixture_determinism_bad.cpp", loops);
  expect_exactly("determinism_bad.cpp", "bench/fixture_determinism_bad.cpp",
                 loops);
  expect_exactly("determinism_bad.cpp",
                 "examples/fixture_determinism_bad.cpp", loops);
  expect_exactly("determinism_bad.cpp",
                 "tests/os/fixture_determinism_bad.cpp", {});
}

// --- ordering -------------------------------------------------------------

TEST(LintOrdering, FlagsPointerKeyedContainers) {
  expect_markers("ordering_bad.cpp", "src/virt/fixture_ordering_bad.cpp");
}

TEST(LintOrdering, SilentOnStableKeysAndAnnotated) {
  expect_exactly("ordering_ok.cpp", "src/virt/fixture_ordering_ok.cpp", {});
}

TEST(LintOrdering, DoesNotApplyOutsideSimulatedDirs) {
  expect_exactly("ordering_bad.cpp", "tests/virt/fixture_ordering_bad.cpp",
                 {});
}

// --- hygiene --------------------------------------------------------------

TEST(LintHygiene, FlagsHeaderAndOutputViolations) {
  expect_markers("hygiene_bad.hpp", "src/core/fixture_hygiene_bad.hpp");
}

TEST(LintHygiene, SilentOnCleanHeader) {
  expect_exactly("hygiene_ok.hpp", "src/core/fixture_hygiene_ok.hpp", {});
}

TEST(LintHygiene, OutputAllowedInBenchExamplesTools) {
  // The missing-#pragma-once and using-namespace findings stay (lines
  // 1 and 9); the cout/printf findings disappear under bench/.
  expect_exactly("hygiene_bad.hpp", "bench/fixture_hygiene_bad.hpp",
                 {{"hygiene", 1}, {"hygiene", 9}});
}

TEST(LintHygiene, CoutBanAppliesToOtherUtilFiles) {
  std::vector<Diagnostic> diags;
  analyze_file(default_config(), "src/util/rng.cpp",
               "void emit() { std::cout << 1; }\n", &diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "hygiene");
  EXPECT_EQ(diags[0].line, 1);
}

// --- suppression ----------------------------------------------------------

TEST(LintSuppression, AllowAboveAllowAllAndWrongRule) {
  expect_markers("suppress.cpp", "src/os/fixture_suppress.cpp");
}

TEST(LintSuppression, SameLineAllowSilencesOnlyThatLine) {
  const std::string code =
      "long a() { return time(nullptr); }  // pinsim-lint: allow(determinism)\n"
      "long b() { return time(nullptr); }\n";
  std::vector<Diagnostic> diags;
  analyze_file(default_config(), "src/hw/clock.cpp", code, &diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "determinism");
  EXPECT_EQ(diags[0].line, 2);
}

// --- infrastructure -------------------------------------------------------

TEST(LintInfra, PathMatching) {
  EXPECT_TRUE(path_matches("src/os/kernel.cpp", "src/os/"));
  EXPECT_FALSE(path_matches("src/osmisc/kernel.cpp", "src/os/"));
  EXPECT_TRUE(path_matches("src/util/rng.cpp", "src/util/rng.cpp"));
  EXPECT_FALSE(path_matches("src/util/rng.cpp", "src/util/rng.cp"));
  EXPECT_FALSE(path_matches("src/os/", "src/os/"));  // dirs match children
}

TEST(LintInfra, LexerEdgesFixtureIsClean) {
  // Raw strings, block comments, char literals, digit separators, and
  // macro bodies carrying banned tokens must all be invisible to the
  // rule passes.
  expect_exactly("lexer_edges.cpp", "src/os/fixture_lexer_edges.cpp", {});
}

TEST(LintInfra, CommentsAndStringsAreStripped) {
  const std::string code =
      "// rand() in a comment is fine\n"
      "/* so is time(nullptr) in a block */\n"
      "const char* s = \"rand() getenv(\";\n"
      "const char* r = R\"(std::random_device)\";\n";
  std::vector<Diagnostic> diags;
  analyze_file(default_config(), "src/sim/strings.cpp", code, &diags);
  EXPECT_TRUE(diags.empty()) << diags.size();
}

TEST(LintInfra, DiagnosticsAreSortedByLine) {
  const std::string code =
      "int b() { return rand(); }\n"
      "int a() { return time(nullptr); }\n";
  std::vector<Diagnostic> diags;
  analyze_file(default_config(), "src/sim/order.cpp", code, &diags);
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].line, 1);
  EXPECT_EQ(diags[1].line, 2);
}

TEST(LintInfra, ContinuedLineCommentIsCommentaryAndAllowsAttachPastIt) {
  // Regression: a backslash-continued `//` comment used to leak its
  // continuation line into the token stream (false findings), and a
  // continued whole-line allow() attached to the continuation line
  // instead of the first code line after it.
  expect_markers("lexer_comment_continuation.cpp", "src/os/continued.cpp");
}

TEST(LintInfra, RawStringClosingLineCountsAsCode) {
  // Regression: after a multi-line raw string, a trailing comment on
  // the closing line was treated as whole-line, so its allow() leaked
  // onto the next line and masked a real finding there.
  expect_markers("lexer_rawstring_lines.cpp", "src/os/raw_lines.cpp");
}

// Lexer line accounting, observed through lex() directly.
TEST(LexerLines, RawStringTokenAnchorsOnStartLine) {
  const LexResult r = lex("int x = R\"(a\nb)\";\nint y;\n");
  bool saw_literal = false;
  for (const Token& t : r.tokens) {
    if (t.kind != Token::kLiteral) continue;
    saw_literal = true;
    EXPECT_EQ(t.line, 1);
  }
  EXPECT_TRUE(saw_literal);
}

TEST(LexerLines, ContinuedCommentSwallowsNextLine) {
  const LexResult r = lex("// swallowed \\\nint not_code;\nint code;\n");
  for (const Token& t : r.tokens) {
    EXPECT_NE(t.text, "not_code");
  }
  ASSERT_FALSE(r.tokens.empty());
  EXPECT_EQ(r.tokens[0].text, "int");
  EXPECT_EQ(r.tokens[0].line, 3);
}

}  // namespace
}  // namespace pinsim::lint
