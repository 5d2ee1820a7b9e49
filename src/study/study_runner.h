// run_study(spec): the single entry point that dispatches a StudySpec onto
// the core/, compare/, and stats/ engines and returns the canonical
// ResultTable artifact. The runner is the one in the kind's row of the
// kind table (src/study/study_kinds.h).
//
// Every built-in runner honours the spec's shard slice: it computes only
// the global repetition indices of shard_subrange(n, i, N) per repetition
// loop, on per-index RNG streams, so merge_result_tables() over all N
// shard artifacts is bit-identical to the unsharded artifact
// (docs/study_api.md).
#pragma once

#include <cstdio>
#include <vector>

#include "src/study/result_table.h"
#include "src/study/study_spec.h"

namespace varbench::study {

/// The pre-run checks of run_study without running anything: the case
/// study exists (kinds whose defaults leave it empty), and analytic figure
/// kinds keep repetitions == 1. Used by `varbench campaign
/// --plan-only` so a plan-clean campaign cannot fail these checks at
/// worker time. Throws std::invalid_argument with actionable messages.
void validate_study_spec(const StudySpec& spec);

/// Validate the spec (validate_study_spec), run the kind's runner, and
/// stamp the artifact metadata (name, spec, shard, seed, threads, wall
/// time). Throws io::JsonError /
/// std::invalid_argument with actionable messages.
[[nodiscard]] ResultTable run_study(const StudySpec& spec);

/// Human-readable summary of a *complete* table (shard 1/1), computed from
/// the raw rows: per-source statistics for variance studies, the P(A>B)
/// decision for comparisons, detection-rate curves, etc.; a figure kind's
/// summary opens with its title and paper claim. For a partial (shard)
/// table, prints a note pointing at `varbench merge`.
void print_summary(const ResultTable& table, std::FILE* out);

/// One row of `varbench list`: everything a user needs to write a spec for
/// the kind — its name, what it reproduces, whether `--shard` applies, and
/// the `--set params.<key>` knobs it accepts.
struct StudyKindInfo {
  StudyKind kind = StudyKind::kVariance;
  std::string name;
  std::string title;
  bool shardable = true;
  std::vector<std::string> param_keys;
};

/// Every study kind (the original five plus the figure kinds), in kind
/// table order. The param keys are derived from the kind's own
/// serialization, so they cannot drift from the parser.
[[nodiscard]] std::vector<StudyKindInfo> registered_study_kinds();

/// The `varbench list` rendering of registered_study_kinds().
[[nodiscard]] std::string list_study_kinds_text();

/// registered_study_kinds() as a JSON array ([{name, title, shardable,
/// params}]) — the payload the CLI wraps in its shared {"tool",
/// "version"} introspection envelope (tools/varbench_cli.cpp), alongside
/// `varbench metrics --list --json`'s registry payload.
[[nodiscard]] io::Json study_kinds_json();

/// The `varbench list --json` rendering: a deterministic document
/// ({"tool", "version", "kinds": [{name, title, shardable, params}]})
/// for tooling — same introspection convention as `varlint --list-rules
/// --json`.
[[nodiscard]] std::string list_study_kinds_json();

}  // namespace varbench::study
