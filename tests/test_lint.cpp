// The varlint suite: the lexer, every rule's hit/miss/suppression (via the
// golden fixtures in tests/lint_fixtures/), path scoping, the suppression
// meta-rules, and both renderers. Fixtures are linted under synthetic
// project-relative paths so one file can exercise a rule both inside and
// outside its scope.
#include "src/lint/lexer.h"
#include "src/lint/lint.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/io/json.h"

namespace varbench::lint {
namespace {

namespace fs = std::filesystem;

std::string read_fixture(const std::string& name) {
  const fs::path path = fs::path{VARBENCH_LINT_FIXTURE_DIR} / name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture: " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<Finding> lint_fixture(const std::string& rel_path,
                                  const std::string& fixture) {
  return lint_source(rel_path, read_fixture(fixture));
}

/// Lines on which `rule` fired with the given suppression state, sorted.
std::vector<std::size_t> lines_of(const std::vector<Finding>& findings,
                                  const std::string& rule, bool suppressed) {
  std::vector<std::size_t> lines;
  for (const Finding& f : findings) {
    if (f.rule == rule && f.suppressed == suppressed) lines.push_back(f.line);
  }
  return lines;
}

using Lines = std::vector<std::size_t>;

// ------------------------------------------------------------------ lexer

TEST(LintLexer, CommentsAndStringsAreSingleTokens) {
  const auto toks = lex("a /* multi\nline */ \"str \\\" quote\" // tail\n");
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[0].kind, Token::Kind::kIdent);
  EXPECT_EQ(toks[1].kind, Token::Kind::kComment);
  EXPECT_EQ(toks[2].kind, Token::Kind::kString);
  EXPECT_EQ(toks[2].text, "\"str \\\" quote\"");
  EXPECT_EQ(toks[2].line, 2u);
  EXPECT_EQ(toks[3].kind, Token::Kind::kComment);
}

TEST(LintLexer, RawStringsRespectDelimiters) {
  // The )" inside does not end a delimiter-tagged raw string.
  const auto toks = lex("auto s = R\"x(quote \" and )\" inside)x\";");
  std::size_t strings = 0;
  for (const Token& t : toks) {
    if (t.kind == Token::Kind::kString) {
      ++strings;
      EXPECT_EQ(t.text, "R\"x(quote \" and )\" inside)x\"");
    }
  }
  EXPECT_EQ(strings, 1u);
}

TEST(LintLexer, ScopeResolutionIsOneToken) {
  const auto toks = lex("std::chrono::now");
  ASSERT_EQ(toks.size(), 5u);
  EXPECT_EQ(toks[1].text, "::");
  EXPECT_EQ(toks[3].text, "::");
  EXPECT_EQ(toks[1].kind, Token::Kind::kPunct);
}

TEST(LintLexer, NumbersWithSeparatorsAndSuffixes) {
  const auto toks = lex("1'000'000 0x1Fu 12.5e-3 60000ms");
  ASSERT_EQ(toks.size(), 4u);
  for (const Token& t : toks) {
    EXPECT_EQ(t.kind, Token::Kind::kNumber) << t.text;
  }
  EXPECT_EQ(toks[0].text, "1'000'000");
  EXPECT_EQ(toks[3].text, "60000ms");
}

TEST(LintLexer, CharLiteralsDoNotOpenStrings) {
  const auto toks = lex("char q = '\"'; int x = 1;");
  for (const Token& t : toks) {
    EXPECT_NE(t.kind, Token::Kind::kString) << t.text;
  }
}

TEST(LintLexer, MalformedInputDoesNotThrow) {
  EXPECT_NO_THROW((void)lex("\"unterminated"));
  EXPECT_NO_THROW((void)lex("/* unterminated"));
  EXPECT_NO_THROW((void)lex("R\"x(unterminated"));
}

// ---------------------------------------------------------------- registry

TEST(LintRegistry, AllRulesPresentWithUniqueNames) {
  const auto& reg = rule_registry();
  std::set<std::string> names;
  for (const RuleInfo& r : reg) {
    EXPECT_TRUE(names.insert(r.name).second) << "duplicate: " << r.name;
    EXPECT_FALSE(r.summary.empty()) << r.name;
  }
  for (const char* expected :
       {"no-raw-random", "no-wallclock", "no-raw-thread", "no-unordered-iter",
        "error-names-path", "header-hygiene", "no-fp-contract",
        "suppression-syntax", "suppression-unused"}) {
    EXPECT_EQ(names.count(expected), 1u) << expected;
  }
}

// ------------------------------------------------------------- no-raw-random

TEST(LintRules, NoRawRandomHitsMissesAndSuppression) {
  const auto fs = lint_fixture("src/report/fx.cpp", "no_raw_random.cpp");
  EXPECT_EQ(lines_of(fs, "no-raw-random", false), (Lines{6, 7, 8, 9, 10}));
  EXPECT_EQ(lines_of(fs, "no-raw-random", true), (Lines{27}));
  EXPECT_EQ(count_unsuppressed(fs), 5u);
  for (const Finding& f : fs) {
    if (f.suppressed) {
      EXPECT_NE(f.suppress_reason.find("golden suppression"),
                std::string::npos);
    }
  }
}

TEST(LintRules, NoRawRandomExemptUnderRngx) {
  const auto fs = lint_fixture("src/rngx/fx.cpp", "no_raw_random.cpp");
  EXPECT_TRUE(lines_of(fs, "no-raw-random", false).empty());
  // With the rule out of scope, the fixture's suppression goes stale.
  EXPECT_EQ(lines_of(fs, "suppression-unused", false), (Lines{27}));
}

// -------------------------------------------------------------- no-wallclock

TEST(LintRules, NoWallclockHitsMissesAndSuppression) {
  const auto fs = lint_fixture("src/report/fx.cpp", "no_wallclock.cpp");
  EXPECT_EQ(lines_of(fs, "no-wallclock", false), (Lines{7, 8, 9, 10, 12}));
  // A standalone suppression comment with a wrapped reason covers the next
  // line holding code, not the comment's own continuation.
  EXPECT_EQ(lines_of(fs, "no-wallclock", true), (Lines{32}));
  EXPECT_TRUE(lines_of(fs, "suppression-unused", false).empty());
}

TEST(LintRules, NoWallclockExemptUnderCampaignBenchAndTheClockHeader) {
  for (const char* rel :
       {"src/campaign/fx.cpp", "bench/fx.cpp", "src/metrics/clock.h"}) {
    const auto fs = lint_fixture(rel, "no_wallclock.cpp");
    EXPECT_TRUE(lines_of(fs, "no-wallclock", false).empty()) << rel;
  }
}

TEST(LintRules, NoWallclockHitsInTheRestOfTheMetricsLayer) {
  // The clock header is the one clock site: a steady_clock::now() anywhere
  // else under src/metrics/ (line 7) is a finding like everywhere else.
  const auto fs = lint_fixture("src/metrics/metrics.cpp", "no_wallclock.cpp");
  EXPECT_EQ(lines_of(fs, "no-wallclock", false), (Lines{7, 8, 9, 10, 12}));
}

// ------------------------------------------------------------- no-raw-thread

TEST(LintRules, NoRawThreadHitsAndMisses) {
  const auto fs = lint_fixture("src/report/fx.cpp", "no_raw_thread.cpp");
  EXPECT_EQ(lines_of(fs, "no-raw-thread", false), (Lines{6, 7, 12}));
}

TEST(LintRules, NoRawThreadExemptUnderExec) {
  const auto fs = lint_fixture("src/exec/fx.cpp", "no_raw_thread.cpp");
  EXPECT_TRUE(lines_of(fs, "no-raw-thread", false).empty());
}

// --------------------------------------------------------- no-unordered-iter

TEST(LintRules, NoUnorderedIterFlagsRangeForAndIterators) {
  const auto fs = lint_fixture("src/report/fx.cpp", "no_unordered_iter.cpp");
  EXPECT_EQ(lines_of(fs, "no-unordered-iter", false), (Lines{12, 15}));
}

// ---------------------------------------------------------- error-names-path

TEST(LintRules, ErrorNamesPathAppliesOnlyUnderIo) {
  const auto in_io = lint_fixture("src/io/fx.cpp", "error_names_path.cpp");
  EXPECT_EQ(lines_of(in_io, "error-names-path", false), (Lines{9, 11}));
  EXPECT_EQ(lines_of(in_io, "error-names-path", true), (Lines{33}));

  const auto outside = lint_fixture("src/report/fx.cpp",
                                    "error_names_path.cpp");
  EXPECT_TRUE(lines_of(outside, "error-names-path", false).empty());
}

// ------------------------------------------------------------ header-hygiene

TEST(LintRules, HeaderHygieneFlagsMissingPragmaAndUsingNamespace) {
  const auto fs = lint_fixture("src/util/fx.h", "header_hygiene_bad.h");
  EXPECT_EQ(lines_of(fs, "header-hygiene", false), (Lines{3, 5}));
}

TEST(LintRules, HeaderHygieneCleanHeaderAndNonHeaderExempt) {
  const auto good = lint_fixture("src/util/fx.h", "header_hygiene_good.h");
  EXPECT_TRUE(lines_of(good, "header-hygiene", false).empty());
  // The same bad content under a .cpp path is out of scope.
  const auto as_cpp = lint_fixture("src/util/fx.cpp", "header_hygiene_bad.h");
  EXPECT_TRUE(lines_of(as_cpp, "header-hygiene", false).empty());
}

// ------------------------------------------------------------ no-fp-contract

TEST(LintRules, NoFpContractFlagsPragmasOptimizeAttributesAndFusedOps) {
  const auto fs = lint_fixture("src/math/fx.cpp", "no_fp_contract.cpp");
  EXPECT_EQ(lines_of(fs, "no-fp-contract", false),
            (Lines{5, 6, 7, 8, 9, 10, 13, 14, 15, 16, 17}));
  EXPECT_EQ(count_unsuppressed(fs), 11u);
}

TEST(LintRules, NoFpContractAppliesEverywhere) {
  for (const char* rel : {"tests/fx.cpp", "bench/fx.cpp", "src/exec/fx.h"}) {
    const auto fs = lint_fixture(rel, "no_fp_contract.cpp");
    EXPECT_EQ(lines_of(fs, "no-fp-contract", false).size(), 11u) << rel;
  }
}

// -------------------------------------------------------- suppression engine

TEST(LintSuppressions, MalformedStaleAndProseCases) {
  const auto fs = lint_fixture("src/report/fx.cpp", "suppressions.cpp");
  // Reason-less (line 6) and unknown-rule (line 9) suppressions are
  // malformed: they report AND fail to suppress the underlying finding.
  EXPECT_EQ(lines_of(fs, "suppression-syntax", false), (Lines{6, 9}));
  EXPECT_EQ(lines_of(fs, "no-wallclock", false), (Lines{6, 9}));
  // A well-formed suppression whose rule never fires is stale.
  EXPECT_EQ(lines_of(fs, "suppression-unused", false), (Lines{12}));
  // Prose mentioning the marker mid-comment (lines 14-15) is inert.
  for (const Finding& f : fs) {
    EXPECT_LT(f.line, 14u) << f.rule << " at line " << f.line;
  }
  EXPECT_EQ(count_unsuppressed(fs), 5u);
}

TEST(LintSuppressions, MetaRulesCannotBeSuppressed) {
  const std::string src =
      "int x = 1;  // varlint: allow(suppression-unused) -- nope\n";
  const auto fs = lint_source("src/report/fx.cpp", src);
  EXPECT_EQ(lines_of(fs, "suppression-syntax", false), (Lines{1}));
}

// ---------------------------------------------------------------- renderers

TEST(LintRender, TextFormatAndSummaryLine) {
  const auto fs = lint_source("tools/fx.cpp", "int r = rand();\n");
  const std::string text = render_text(fs, 1);
  EXPECT_NE(text.find("tools/fx.cpp:1: [no-raw-random]"), std::string::npos)
      << text;
  EXPECT_NE(text.find("1 unsuppressed finding(s), 0 suppressed, "
                      "1 file(s) scanned"),
            std::string::npos)
      << text;
}

TEST(LintRender, JsonIsParseableAndComplete) {
  const std::string src =
      "int r = rand();  // varlint: allow(no-raw-random) -- fixture\n"
      "int s = rand();\n";
  const auto fs = lint_source("tools/fx.cpp", src);
  const io::Json doc = io::Json::parse(render_json(fs, 1));
  EXPECT_EQ(doc.at("tool").as_string(), "varlint");
  EXPECT_EQ(doc.at("files_scanned").as_uint64(), 1u);
  EXPECT_EQ(doc.at("unsuppressed").as_uint64(), 1u);
  EXPECT_EQ(doc.at("suppressed").as_uint64(), 1u);
  const auto& findings = doc.at("findings").as_array();
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].at("line").as_uint64(), 1u);
  EXPECT_TRUE(findings[0].at("suppressed").as_bool());
  EXPECT_EQ(findings[0].at("reason").as_string(), "fixture");
  EXPECT_FALSE(findings[1].at("suppressed").as_bool());
}

}  // namespace
}  // namespace varbench::lint
