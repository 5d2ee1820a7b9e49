// The runner and the summarizer of every study kind, one pair per kind,
// grouped by source file under src/study/figures/. The kind table
// (src/study/study_kinds.cpp) binds each pair to its kind; everything
// else goes through it. Every runner produces a canonical raw-measure
// ResultTable through the shard/merge contract (docs/study_api.md).
#pragma once

#include <cstdio>

#include "src/study/result_table.h"
#include "src/study/study_spec.h"

namespace varbench::study::figures {

// base_kinds.cpp: the original five kinds
[[nodiscard]] ResultTable run_variance(const StudySpec&);
void summarize_variance(const ResultTable&, std::FILE*);
[[nodiscard]] ResultTable run_compare(const StudySpec&);
void summarize_compare(const ResultTable&, std::FILE*);
[[nodiscard]] ResultTable run_hpo(const StudySpec&);
void summarize_hpo(const ResultTable&, std::FILE*);
[[nodiscard]] ResultTable run_estimator(const StudySpec&);
void summarize_estimator(const ResultTable&, std::FILE*);
[[nodiscard]] ResultTable run_detection(const StudySpec&);
void summarize_detection(const ResultTable&, std::FILE*);

// fig_variance.cpp
[[nodiscard]] ResultTable run_fig01(const StudySpec&);
void summarize_fig01(const ResultTable&, std::FILE*);
[[nodiscard]] ResultTable run_figG3(const StudySpec&);
void summarize_figG3(const ResultTable&, std::FILE*);

// fig_binomial.cpp
[[nodiscard]] ResultTable run_fig02(const StudySpec&);
void summarize_fig02(const ResultTable&, std::FILE*);

// fig_analytic.cpp
[[nodiscard]] ResultTable run_fig03(const StudySpec&);
void summarize_fig03(const ResultTable&, std::FILE*);
[[nodiscard]] ResultTable run_fig04(const StudySpec&);
void summarize_fig04(const ResultTable&, std::FILE*);
[[nodiscard]] ResultTable run_figC1(const StudySpec&);
void summarize_figC1(const ResultTable&, std::FILE*);
[[nodiscard]] ResultTable run_tableD(const StudySpec&);
void summarize_tableD(const ResultTable&, std::FILE*);

// fig_model.cpp
[[nodiscard]] ResultTable run_fig05(const StudySpec&);
void summarize_fig05(const ResultTable&, std::FILE*);
[[nodiscard]] ResultTable run_figH5(const StudySpec&);
void summarize_figH5(const ResultTable&, std::FILE*);

// fig_detection.cpp
[[nodiscard]] ResultTable run_fig06(const StudySpec&);
void summarize_fig06(const ResultTable&, std::FILE*);
[[nodiscard]] ResultTable run_figI6(const StudySpec&);
void summarize_figI6(const ResultTable&, std::FILE*);
[[nodiscard]] ResultTable run_ablation_pairing(const StudySpec&);
void summarize_ablation_pairing(const ResultTable&, std::FILE*);

// fig_hpo_curves.cpp
[[nodiscard]] ResultTable run_figF2(const StudySpec&);
void summarize_figF2(const ResultTable&, std::FILE*);

// fig_cohort.cpp
[[nodiscard]] ResultTable run_multi_contestants(const StudySpec&);
void summarize_multi_contestants(const ResultTable&, std::FILE*);
[[nodiscard]] ResultTable run_multi_dataset(const StudySpec&);
void summarize_multi_dataset(const ResultTable&, std::FILE*);
[[nodiscard]] ResultTable run_table8(const StudySpec&);
void summarize_table8(const ResultTable&, std::FILE*);
[[nodiscard]] ResultTable run_ablation_splitters(const StudySpec&);
void summarize_ablation_splitters(const ResultTable&, std::FILE*);

}  // namespace varbench::study::figures
