// The study-kind table: one row per StudyKind binds everything about a
// kind — its spec name, its `varbench list` title, the paper claim it
// checks, whether it shards, the params it declares, its defaults, its
// runner and its summarizer. Row i is enumerator i (static_assert'd
// in src/study/study_kinds.cpp), so a new kind is an enumerator plus one
// row; the spec layer, run_study, report::print_summary, `varbench list`
// and the campaign planner all read the row.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "src/study/result_table.h"
#include "src/study/study_spec.h"

namespace varbench::study {

/// Bitmask over the StudyParams fields. A row's `params` selects the keys
/// its kind serializes and parses; the field table in study_spec.cpp maps
/// each bit to its key and member.
enum ParamField : unsigned {
  kParamTasks = 1u << 0,
  kParamEstimators = 1u << 1,
  kParamHpoAlgorithms = 1u << 2,
  kParamHpoAlgo = 1u << 3,
  kParamHpoRepetitions = 1u << 4,
  kParamHpoBudget = 1u << 5,
  kParamIncludeNumericalNoise = 1u << 6,
  kParamAlgo = 1u << 7,
  kParamBudget = 1u << 8,
  kParamLrMult = 1u << 9,
  kParamEstimator = 1u << 10,
  kParamK = 1u << 11,
  kParamGamma = 1u << 12,
  kParamResamples = 1u << 13,
  kParamNumResamples = 1u << 14,
  kParamKGrid = 1u << 15,
  kParamTGrid = 1u << 16,
  kParamGammaGrid = 1u << 17,
  kParamBetaGrid = 1u << 18,
  kParamPGrid = 1u << 19,
  kParamEdges = 1u << 20,
};

struct StudyKindDef {
  StudyKind kind;
  std::string_view name;   // the spec "kind" string
  std::string_view title;  // one-line description for `varbench list`
  /// The paper claim a figure kind checks; print_summary opens with it.
  /// Empty for the original five kinds.
  std::string_view claim;
  /// false: one campaign task whatever --shards says (the runner rejects
  /// a shard block).
  bool shardable = true;
  /// Analytic kinds enumerate a fixed grid; their `repetitions` must stay
  /// 1 (validate_study_spec enforces it) while the grid itself shards.
  bool fixed_repetitions = false;
  unsigned params = 0;  // declared StudyParams fields (ParamField mask)
  /// Applied to a default-constructed spec by default_spec(): case_study,
  /// scale, repetitions and params. A kind whose defaults leave case_study
  /// empty needs a registered case study in every spec.
  void (*defaults)(StudySpec&) = nullptr;
  ResultTable (*run)(const StudySpec&) = nullptr;
  /// The summary of a complete table, computed from its raw rows: one
  /// spec-less table per block, named by its heading, in print order.
  std::vector<ResultTable> (*summarize)(const ResultTable&) = nullptr;
};

/// Every kind's row, in enumerator order.
[[nodiscard]] std::span<const StudyKindDef> study_kinds();

/// The row of `kind`; throws std::invalid_argument for a value that is not
/// an enumerator.
[[nodiscard]] const StudyKindDef& kind_def(StudyKind kind);

}  // namespace varbench::study
