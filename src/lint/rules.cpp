// Rule implementations and the suppression engine for varlint
// (docs/static_analysis.md maps each rule onto the determinism contract).
#include <algorithm>
#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "src/io/json.h"
#include "src/lint/lint.h"

namespace varbench::lint {
namespace {

// ------------------------------------------------------------ token helpers

using Tokens = std::vector<Token>;

bool is_ident(const Tokens& t, std::size_t i, std::string_view text) {
  return i < t.size() && t[i].kind == Token::Kind::kIdent && t[i].text == text;
}

bool is_punct(const Tokens& t, std::size_t i, std::string_view text) {
  return i < t.size() && t[i].kind == Token::Kind::kPunct && t[i].text == text;
}

bool any_of(std::string_view text, std::initializer_list<std::string_view> s) {
  for (const std::string_view v : s) {
    if (text == v) return true;
  }
  return false;
}

bool contains_any(std::string_view text,
                  std::initializer_list<std::string_view> s) {
  for (const std::string_view v : s) {
    if (text.find(v) != std::string_view::npos) return true;
  }
  return false;
}

std::string lower(std::string_view text) {
  std::string out{text};
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

/// The per-file view a rule checks: comment tokens are stripped (comments
/// may name anything), suppression handling happens afterwards.
struct FileCtx {
  const std::string& rel;
  const Tokens& code;
  bool is_header = false;
};

void add(std::vector<Finding>& out, std::string_view rule, std::size_t line,
         std::string message) {
  Finding f;
  f.rule = std::string{rule};
  f.line = line;
  f.message = std::move(message);
  out.push_back(std::move(f));
}

// ------------------------------------------------------------------- rules

constexpr std::string_view kNoRawRandom = "no-raw-random";
constexpr std::string_view kNoWallclock = "no-wallclock";
constexpr std::string_view kNoRawThread = "no-raw-thread";
constexpr std::string_view kNoUnorderedIter = "no-unordered-iter";
constexpr std::string_view kErrorNamesPath = "error-names-path";
constexpr std::string_view kHeaderHygiene = "header-hygiene";
constexpr std::string_view kNoFpContract = "no-fp-contract";
constexpr std::string_view kSuppressionSyntax = "suppression-syntax";
constexpr std::string_view kSuppressionUnused = "suppression-unused";

/// no-raw-random: every random draw must derive from a src/rngx stream —
/// a std:: engine or C rand() call is seeded ad hoc and breaks the
/// seed+tag → stream contract (docs/determinism.md §1).
void check_no_raw_random(const FileCtx& f, std::vector<Finding>& out) {
  const Tokens& t = f.code;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent) continue;
    const std::string& s = t[i].text;
    const bool c_func = any_of(s, {"rand", "srand", "rand_r", "drand48",
                                   "lrand48", "srand48"}) &&
                        is_punct(t, i + 1, "(");
    const bool std_type =
        any_of(s, {"random_device", "mt19937", "mt19937_64", "minstd_rand",
                   "minstd_rand0", "default_random_engine", "knuth_b",
                   "ranlux24", "ranlux48", "seed_seq"});
    const bool distribution = s.size() > 13 &&
                              s.rfind("_distribution") == s.size() - 13;
    if (c_func || std_type || distribution) {
      add(out, kNoRawRandom, t[i].line,
          "raw RNG '" + s +
              "': all randomness must derive from src/rngx streams "
              "(derive_seed / Rng::split), so every draw is reproducible "
              "from (seed, tag) alone");
    }
  }
}

/// no-wallclock: a wall-clock read anywhere near an artifact path makes
/// output depend on when it ran. Timing belongs to the campaign
/// heartbeat/provenance layer (src/campaign/), the instrumentation clock
/// (src/metrics/clock.h — the one clock site every instrumented subsystem
/// goes through, docs/metrics.md), and bench/ harnesses.
void check_no_wallclock(const FileCtx& f, std::vector<Finding>& out) {
  const Tokens& t = f.code;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent) continue;
    const std::string& s = t[i].text;
    if (any_of(s, {"gettimeofday", "clock_gettime", "timespec_get",
                   "localtime", "gmtime", "mktime", "ftime"})) {
      add(out, kNoWallclock, t[i].line,
          "wall-clock read '" + s +
              "' outside the provenance/heartbeat whitelist "
              "(src/metrics/clock.h, src/campaign/, bench/)");
      continue;
    }
    if (any_of(s, {"time", "clock"}) && is_punct(t, i + 1, "(") &&
        !(i > 0 && is_punct(t, i - 1, "."))) {
      add(out, kNoWallclock, t[i].line,
          "wall-clock read '" + s +
              "()' outside the provenance/heartbeat whitelist "
              "(src/metrics/clock.h, src/campaign/, bench/)");
      continue;
    }
    if (s == "now" && i > 0 && is_punct(t, i - 1, "::")) {
      const std::string qualifier = i >= 2 ? t[i - 2].text : "";
      add(out, kNoWallclock, t[i].line,
          "wall-clock read '" + qualifier +
              "::now()' outside the provenance/heartbeat whitelist "
              "(src/metrics/clock.h, src/campaign/, bench/)");
    }
  }
}

/// no-raw-thread: parallelism must go through src/exec so per-index RNG
/// streams and index-ordered reductions keep results thread-count
/// invariant (docs/determinism.md §2). std::thread::hardware_concurrency
/// and std::this_thread are queries, not spawns, and stay legal.
void check_no_raw_thread(const FileCtx& f, std::vector<Finding>& out) {
  const Tokens& t = f.code;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent) continue;
    const std::string& s = t[i].text;
    // `#include <thread>` itself stays legal: hardware_concurrency (the
    // one whitelisted member) lives there.
    const bool in_include =
        i >= 2 && is_punct(t, i - 1, "<") && is_ident(t, i - 2, "include");
    if (s == "thread" && !in_include &&
        !(is_punct(t, i + 1, "::") &&
          is_ident(t, i + 2, "hardware_concurrency"))) {
      add(out, kNoRawThread, t[i].line,
          "raw 'thread' outside src/exec: spawn work through ThreadPool / "
          "parallel_for / parallel_replicate_range to keep thread-count "
          "invariance");
      continue;
    }
    if (any_of(s, {"jthread", "pthread_create", "pthread_t"})) {
      add(out, kNoRawThread, t[i].line,
          "raw thread primitive '" + s +
              "' outside src/exec: use the exec layer instead");
      continue;
    }
    if (s == "async" && i >= 2 && is_punct(t, i - 1, "::") &&
        is_ident(t, i - 2, "std")) {
      add(out, kNoRawThread, t[i].line,
          "std::async outside src/exec schedules on an unmanaged thread; "
          "use the exec layer instead");
      continue;
    }
    if (s == "omp" && i > 0 && is_ident(t, i - 1, "pragma")) {
      add(out, kNoRawThread, t[i].line,
          "OpenMP pragma outside src/exec: its scheduling is invisible to "
          "the ExecContext nesting guard");
    }
  }
}

/// no-unordered-iter: iterating an unordered container feeds hash-order —
/// which varies across libstdc++ versions and pointer layouts — into
/// whatever is built from the loop. Declarations are tracked per file and
/// every range-for / .begin() over one is flagged.
void check_no_unordered_iter(const FileCtx& f, std::vector<Finding>& out) {
  const Tokens& t = f.code;
  std::vector<std::string> vars;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent ||
        !any_of(t[i].text, {"unordered_map", "unordered_set",
                            "unordered_multimap", "unordered_multiset"})) {
      continue;
    }
    std::size_t j = i + 1;
    if (is_punct(t, j, "<")) {
      std::size_t depth = 1;
      ++j;
      while (j < t.size() && depth > 0) {
        if (is_punct(t, j, "<")) ++depth;
        if (is_punct(t, j, ">")) --depth;
        ++j;
      }
    }
    while (is_punct(t, j, "&") || is_punct(t, j, "*") ||
           is_ident(t, j, "const")) {
      ++j;
    }
    if (j < t.size() && t[j].kind == Token::Kind::kIdent) {
      vars.push_back(t[j].text);
    }
  }
  if (vars.empty()) return;
  const auto is_tracked = [&vars](const std::string& name) {
    return std::find(vars.begin(), vars.end(), name) != vars.end();
  };
  for (std::size_t i = 0; i < t.size(); ++i) {
    // Range-for: `for (... : container)`.
    if (is_punct(t, i, ":") && i + 2 < t.size() &&
        t[i + 1].kind == Token::Kind::kIdent && is_tracked(t[i + 1].text) &&
        is_punct(t, i + 2, ")")) {
      add(out, kNoUnorderedIter, t[i + 1].line,
          "iteration over unordered container '" + t[i + 1].text +
              "' has unspecified order, which leaks into anything built "
              "from the loop — iterate a sorted copy or use "
              "std::map/std::vector");
    }
    // Iterator loops: `container.begin()` and friends.
    if (t[i].kind == Token::Kind::kIdent && is_tracked(t[i].text) &&
        is_punct(t, i + 1, ".") && i + 3 < t.size() &&
        any_of(t[i + 2].text, {"begin", "cbegin", "rbegin", "crbegin"}) &&
        is_punct(t, i + 3, "(")) {
      add(out, kNoUnorderedIter, t[i].line,
          "iterator walk over unordered container '" + t[i].text +
              "' has unspecified order — iterate a sorted copy or use "
              "std::map/std::vector");
    }
  }
}

/// error-names-path: an I/O error that cannot name what it was reading is
/// undebuggable at campaign scale. Every throw in src/io must interpolate
/// a path / offset / key / offending value into the error.
void check_error_names_path(const FileCtx& f, std::vector<Finding>& out) {
  const Tokens& t = f.code;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_ident(t, i, "throw")) continue;
    std::size_t end = i + 1;
    bool has_context = false;
    while (end < t.size() && !is_punct(t, end, ";")) {
      if (t[end].kind == Token::Kind::kIdent) {
        const std::string low = lower(t[end].text);
        const bool context_name =
            low.find("path") != std::string::npos ||
            low.find("offset") != std::string::npos ||
            low.find("line") != std::string::npos ||
            low.find("col") != std::string::npos ||
            low.find("key") != std::string::npos ||
            low.find("file") != std::string::npos ||
            low.find("byte") != std::string::npos ||
            low.find("domain") != std::string::npos ||
            low.find("where") != std::string::npos ||
            low.find("name") != std::string::npos;
        if (context_name || any_of(t[end].text, {"dump", "strerror", "what",
                                                 "errno", "value"})) {
          has_context = true;
        }
      }
      ++end;
    }
    if (end == i + 1) continue;  // bare `throw;` rethrows an error that
                                 // already carries its context
    if (!has_context) {
      add(out, kErrorNamesPath, t[i].line,
          "throw in src/io carries no path/offset/key context — construct "
          "the error with the file path, byte offset, JSON key, or "
          "offending value so corrupt input is localizable");
    }
  }
}

/// header-hygiene: #pragma once first, and no `using namespace` — a
/// header-level using-directive changes name lookup in every includer.
void check_header_hygiene(const FileCtx& f, std::vector<Finding>& out) {
  const Tokens& t = f.code;
  if (!(is_punct(t, 0, "#") && is_ident(t, 1, "pragma") &&
        is_ident(t, 2, "once"))) {
    add(out, kHeaderHygiene, t.empty() ? 1 : t[0].line,
        "header must open with #pragma once (before any non-comment "
        "token)");
  }
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (is_ident(t, i, "using") && is_ident(t, i + 1, "namespace")) {
      add(out, kHeaderHygiene, t[i].line,
          "'using namespace' in a header changes name lookup in every "
          "includer — qualify names or use scoped aliases");
    }
  }
}

/// no-fp-contract: the build pins -ffp-contract=off for the whole tree
/// (docs/determinism.md#floating-point), so every a*b+c rounds twice on
/// every ISA. A pragma or optimize attribute can re-enable contraction or
/// fast-math for one scope, and an explicit fused op rounds once; either
/// makes artifact bits depend on the compiler and the ISA. target(...)
/// attributes select an ISA, not FP semantics, and stay legal, as do
/// methods that happen to be named `optimize` (the hpo:: searchers).
void check_no_fp_contract(const FileCtx& f, std::vector<Finding>& out) {
  const Tokens& t = f.code;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent) continue;
    const std::string& s = t[i].text;
    if (s == "pragma" && i > 0 && is_punct(t, i - 1, "#")) {
      if ((is_ident(t, i + 1, "STDC") && is_ident(t, i + 2, "FP_CONTRACT")) ||
          (is_ident(t, i + 1, "GCC") && is_ident(t, i + 2, "optimize")) ||
          (is_ident(t, i + 1, "clang") && is_ident(t, i + 2, "fp"))) {
        add(out, kNoFpContract, t[i].line,
            "'#pragma " + t[i + 1].text + " " + t[i + 2].text +
                "' overrides the tree-wide -ffp-contract=off for its scope; "
                "FP semantics are set once, in CMakeLists.txt");
      }
      continue;
    }
    if (s == "__attribute__" && is_punct(t, i + 1, "(")) {
      // Attribute names sit at paren depth 2: __attribute__((a, b(...))).
      std::size_t depth = 0;
      for (std::size_t j = i + 1; j < t.size(); ++j) {
        if (is_punct(t, j, "(")) ++depth;
        if (is_punct(t, j, ")") && --depth == 0) break;
        if (depth == 2 && (is_ident(t, j, "optimize") ||
                           is_ident(t, j, "__optimize__"))) {
          add(out, kNoFpContract, t[j].line,
              "__attribute__((optimize)) recompiles one function under "
              "other flags, which can re-enable FP contraction or "
              "fast-math; use target(...) to select an ISA");
        }
      }
      continue;
    }
    if ((s == "optimize" || s == "__optimize__") && i >= 2 &&
        is_punct(t, i - 1, "::") &&
        (is_ident(t, i - 2, "gnu") || is_ident(t, i - 2, "__gnu__"))) {
      add(out, kNoFpContract, t[i].line,
          "[[gnu::optimize]] recompiles one function under other flags, "
          "which can re-enable FP contraction or fast-math");
      continue;
    }
    const bool std_fma = any_of(s, {"fma", "fmaf", "fmal"}) &&
                         ((i >= 2 && is_punct(t, i - 1, "::") &&
                           is_ident(t, i - 2, "std")) ||
                          (is_punct(t, i + 1, "(") &&
                           !(i > 0 && (is_punct(t, i - 1, ".") ||
                                       is_punct(t, i - 1, ">")))));
    const bool builtin_fma = s.rfind("__builtin_", 0) == 0 &&
                             contains_any(s, {"fma", "fms", "fnma", "fnms"});
    const bool intrinsic_fma =
        s.rfind("_mm", 0) == 0 &&
        contains_any(s, {"fmadd", "fmsub", "fnmadd", "fnmsub"});
    if (std_fma || builtin_fma || intrinsic_fma) {
      add(out, kNoFpContract, t[i].line,
          "explicit fused multiply-add '" + s +
              "' rounds once where the rest of the tree rounds the "
              "multiply and the add separately; write a * b + c");
    }
  }
}

// ---------------------------------------------------------------- registry

struct Rule {
  RuleInfo info;
  void (*check)(const FileCtx&, std::vector<Finding>&) = nullptr;
};

const std::vector<Rule>& rules() {
  static const std::vector<Rule> kRules = {
      {{std::string{kNoRawRandom},
        "bans std:: engines/distributions and C rand(); randomness must "
        "flow through src/rngx (seed+tag -> stream)",
        {},
        {"src/rngx/"},
        false},
       &check_no_raw_random},
      {{std::string{kNoWallclock},
        "bans time()/clock_gettime/chrono ::now() so artifact bytes cannot "
        "depend on when they were produced",
        {},
        {"src/metrics/clock.h", "src/campaign/", "bench/"},
        false},
       &check_no_wallclock},
      {{std::string{kNoRawThread},
        "bans std::thread/std::async/OpenMP; parallelism must go through "
        "src/exec for thread-count invariance",
        {},
        {"src/exec/"},
        false},
       &check_no_raw_thread},
      {{std::string{kNoUnorderedIter},
        "flags range-for/iterator loops over unordered_{map,set}; hash "
        "order leaks into artifacts",
        {},
        {},
        false},
       &check_no_unordered_iter},
      {{std::string{kErrorNamesPath},
        "every throw in src/io must carry a path/offset/key so corrupt "
        "artifacts are localizable",
        {"src/io/"},
        {},
        false},
       &check_error_names_path},
      {{std::string{kHeaderHygiene},
        "headers open with #pragma once and never say 'using namespace'",
        {},
        {},
        true},
       &check_header_hygiene},
      {{std::string{kNoFpContract},
        "bans FP-contraction pragmas, optimize attributes and explicit "
        "fused multiply-adds; -ffp-contract=off holds for the whole tree",
        {},
        {},
        false},
       &check_no_fp_contract},
      // Meta-rules: emitted by the suppression engine itself; they keep
      // the suppression inventory honest and cannot be suppressed.
      {{std::string{kSuppressionSyntax},
        "suppression comments must parse and carry a reason: // varlint: "
        "allow(<rule>) -- <reason>",
        {},
        {},
        false},
       nullptr},
      {{std::string{kSuppressionUnused},
        "a suppression whose rule no longer fires on its line is stale and "
        "must be removed",
        {},
        {},
        false},
       nullptr},
  };
  return kRules;
}

bool known_rule(std::string_view name) {
  for (const Rule& r : rules()) {
    if (r.info.name == name) return true;
  }
  return false;
}

bool in_scope(const RuleInfo& info, const std::string& rel, bool is_header) {
  if (info.headers_only && !is_header) return false;
  for (const std::string& prefix : info.not_under) {
    if (rel.rfind(prefix, 0) == 0) return false;
  }
  if (info.only_under.empty()) return true;
  for (const std::string& prefix : info.only_under) {
    if (rel.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

// ------------------------------------------------------------ suppressions

struct Suppression {
  std::size_t comment_line = 0;
  std::size_t target_line = 0;
  std::vector<std::string> rule_names;
  std::string reason;
  std::string error;  // non-empty -> malformed, `reason`/`rule_names` moot
  bool used = false;
};

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r' || s.back() == '\n')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Parse one comment that mentions "varlint:". Grammar:
///   varlint: allow(<rule>[, <rule>...]) -- <reason>
Suppression parse_suppression(const Token& comment, std::size_t marker_pos) {
  Suppression sup;
  sup.comment_line = comment.line;
  std::string_view text{comment.text};
  // Strip a block comment's closing marker so it cannot end up in the
  // reason text.
  if (text.size() >= 2 && text.substr(text.size() - 2) == "*/") {
    text.remove_suffix(2);
  }
  std::string_view rest = trim(text.substr(marker_pos + 8));  // "varlint:"
  if (rest.rfind("allow(", 0) != 0) {
    sup.error = "expected 'allow(<rule>[, <rule>...])' after 'varlint:'";
    return sup;
  }
  rest.remove_prefix(6);
  const std::size_t close = rest.find(')');
  if (close == std::string_view::npos) {
    sup.error = "unterminated allow(...) rule list";
    return sup;
  }
  std::string_view list = rest.substr(0, close);
  rest = trim(rest.substr(close + 1));
  while (!list.empty()) {
    const std::size_t comma = list.find(',');
    const std::string_view item = trim(list.substr(0, comma));
    if (!item.empty()) sup.rule_names.emplace_back(item);
    if (comma == std::string_view::npos) break;
    list.remove_prefix(comma + 1);
  }
  if (sup.rule_names.empty()) {
    sup.error = "allow() names no rules";
    return sup;
  }
  for (const std::string& name : sup.rule_names) {
    if (!known_rule(name)) {
      sup.error = "unknown rule '" + name + "' (see varlint --list-rules)";
      return sup;
    }
    if (name == kSuppressionSyntax || name == kSuppressionUnused) {
      sup.error = "meta-rule '" + name + "' cannot be suppressed";
      return sup;
    }
  }
  if (rest.rfind("--", 0) != 0 || trim(rest.substr(2)).empty()) {
    sup.error =
        "suppression carries no justification (write: -- <why this line is "
        "legitimately exempt>)";
    return sup;
  }
  sup.reason = std::string{trim(rest.substr(2))};
  return sup;
}

std::vector<Suppression> collect_suppressions(const Tokens& all,
                                              const Tokens& code) {
  std::vector<Suppression> sups;
  for (const Token& tok : all) {
    if (tok.kind != Token::Kind::kComment) continue;
    // A suppression is a plain comment whose content *starts* with the
    // marker. Doc comments (///, //!, /**, /*!) never suppress, and a
    // marker buried mid-comment is prose about varlint, not a directive —
    // so documentation can show the syntax without enacting it.
    std::string_view content{tok.text};
    content.remove_prefix(2);  // "//" or "/*"
    if (!content.empty() && (content.front() == '/' ||
                             content.front() == '!' ||
                             content.front() == '*')) {
      continue;
    }
    while (!content.empty() &&
           (content.front() == ' ' || content.front() == '\t')) {
      content.remove_prefix(1);
    }
    if (content.rfind("varlint:", 0) != 0) continue;
    const std::size_t marker =
        static_cast<std::size_t>(content.data() - tok.text.data());
    Suppression sup = parse_suppression(tok, marker);
    // A comment sharing its line with code covers that line; a standalone
    // comment covers the next line of code after it, so a long reason can
    // wrap onto continuation comment lines.
    bool shares_line = false;
    for (const Token& c : code) {
      if (c.line == tok.line) {
        shares_line = true;
        break;
      }
      if (c.line > tok.line) break;
    }
    if (shares_line) {
      sup.target_line = tok.line;
    } else {
      const std::size_t newlines = static_cast<std::size_t>(
          std::count(tok.text.begin(), tok.text.end(), '\n'));
      sup.target_line = tok.line + newlines + 1;
      for (const Token& c : code) {
        if (c.line >= sup.target_line) {
          sup.target_line = c.line;
          break;
        }
      }
    }
    sups.push_back(std::move(sup));
  }
  return sups;
}

}  // namespace

// ------------------------------------------------------------- public API

const std::vector<RuleInfo>& rule_registry() {
  static const std::vector<RuleInfo> kInfos = [] {
    std::vector<RuleInfo> out;
    for (const Rule& r : rules()) out.push_back(r.info);
    return out;
  }();
  return kInfos;
}

std::vector<Finding> lint_source(const std::string& rel_path,
                                 std::string_view source) {
  const Tokens all = lex(source);
  Tokens code;
  code.reserve(all.size());
  for (const Token& tok : all) {
    if (tok.kind != Token::Kind::kComment) code.push_back(tok);
  }
  const bool header =
      rel_path.size() >= 2 &&
      (rel_path.rfind(".h") == rel_path.size() - 2 ||
       (rel_path.size() >= 4 &&
        rel_path.rfind(".hpp") == rel_path.size() - 4));
  const FileCtx ctx{rel_path, code, header};

  std::vector<Finding> findings;
  for (const Rule& rule : rules()) {
    if (rule.check != nullptr && in_scope(rule.info, rel_path, header)) {
      rule.check(ctx, findings);
    }
  }

  std::vector<Suppression> sups = collect_suppressions(all, code);
  for (Finding& f : findings) {
    for (Suppression& sup : sups) {
      if (sup.error.empty() && sup.target_line == f.line &&
          std::find(sup.rule_names.begin(), sup.rule_names.end(), f.rule) !=
              sup.rule_names.end()) {
        f.suppressed = true;
        f.suppress_reason = sup.reason;
        sup.used = true;
        break;
      }
    }
  }
  for (const Suppression& sup : sups) {
    if (!sup.error.empty()) {
      add(findings, kSuppressionSyntax, sup.comment_line,
          "malformed suppression: " + sup.error);
    } else if (!sup.used) {
      std::string names;
      for (const std::string& name : sup.rule_names) {
        if (!names.empty()) names += ", ";
        names += name;
      }
      add(findings, kSuppressionUnused, sup.comment_line,
          "suppression for '" + names + "' matched no finding on line " +
              std::to_string(sup.target_line) + " — remove it");
    }
  }

  for (Finding& f : findings) f.path = rel_path;
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  return findings;
}

std::size_t count_unsuppressed(const std::vector<Finding>& findings) {
  std::size_t n = 0;
  for (const Finding& f : findings) {
    if (!f.suppressed) ++n;
  }
  return n;
}

std::string render_text(const std::vector<Finding>& findings,
                        std::size_t files_scanned) {
  std::string out;
  for (const Finding& f : findings) {
    if (f.suppressed) continue;
    out += f.path + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
           f.message + "\n";
  }
  const std::size_t unsuppressed = count_unsuppressed(findings);
  out += "varlint: " + std::to_string(unsuppressed) +
         " unsuppressed finding(s), " +
         std::to_string(findings.size() - unsuppressed) + " suppressed, " +
         std::to_string(files_scanned) + " file(s) scanned\n";
  return out;
}

std::string render_json(const std::vector<Finding>& findings,
                        std::size_t files_scanned) {
  io::Json doc = io::Json::object();
  doc.set("tool", "varlint");
  doc.set("files_scanned", files_scanned);
  doc.set("unsuppressed", count_unsuppressed(findings));
  doc.set("suppressed", findings.size() - count_unsuppressed(findings));
  io::Json arr = io::Json::array();
  for (const Finding& f : findings) {
    io::Json item = io::Json::object();
    item.set("path", f.path);
    item.set("line", f.line);
    item.set("rule", f.rule);
    item.set("message", f.message);
    item.set("suppressed", f.suppressed);
    if (f.suppressed) item.set("reason", f.suppress_reason);
    arr.push_back(std::move(item));
  }
  doc.set("findings", std::move(arr));
  return doc.dump(2) + "\n";
}

}  // namespace varbench::lint
