// The runner and the summarizer of every study kind, one pair per kind,
// grouped by source file under src/study/figures/. The kind table
// (src/study/study_kinds.cpp) binds each pair to its kind; everything
// else goes through it. Every runner produces a canonical raw-measure
// ResultTable through the shard/merge contract, and every summarizer
// computes its summary blocks — spec-less tables, each named by its
// heading — from a complete table's raw rows (docs/study_api.md).
#pragma once

#include <vector>

#include "src/study/result_table.h"
#include "src/study/study_spec.h"

namespace varbench::study::figures {

// base_kinds.cpp: four of the original five kinds
[[nodiscard]] ResultTable run_variance(const StudySpec&);
[[nodiscard]] std::vector<ResultTable> summarize_variance(const ResultTable&);
[[nodiscard]] ResultTable run_compare(const StudySpec&);
[[nodiscard]] std::vector<ResultTable> summarize_compare(const ResultTable&);
[[nodiscard]] ResultTable run_hpo(const StudySpec&);
[[nodiscard]] std::vector<ResultTable> summarize_hpo(const ResultTable&);
[[nodiscard]] ResultTable run_estimator(const StudySpec&);
[[nodiscard]] std::vector<ResultTable> summarize_estimator(const ResultTable&);

// fig_variance.cpp
[[nodiscard]] ResultTable run_fig01(const StudySpec&);
[[nodiscard]] std::vector<ResultTable> summarize_fig01(const ResultTable&);
[[nodiscard]] ResultTable run_figG3(const StudySpec&);
[[nodiscard]] std::vector<ResultTable> summarize_figG3(const ResultTable&);

// fig_binomial.cpp
[[nodiscard]] ResultTable run_fig02(const StudySpec&);
[[nodiscard]] std::vector<ResultTable> summarize_fig02(const ResultTable&);

// fig_analytic.cpp
[[nodiscard]] ResultTable run_fig03(const StudySpec&);
[[nodiscard]] std::vector<ResultTable> summarize_fig03(const ResultTable&);
[[nodiscard]] ResultTable run_fig04(const StudySpec&);
[[nodiscard]] std::vector<ResultTable> summarize_fig04(const ResultTable&);
[[nodiscard]] ResultTable run_figC1(const StudySpec&);
[[nodiscard]] std::vector<ResultTable> summarize_figC1(const ResultTable&);
[[nodiscard]] ResultTable run_tableD(const StudySpec&);
[[nodiscard]] std::vector<ResultTable> summarize_tableD(const ResultTable&);

// fig_model.cpp
[[nodiscard]] ResultTable run_fig05(const StudySpec&);
[[nodiscard]] std::vector<ResultTable> summarize_fig05(const ResultTable&);
[[nodiscard]] ResultTable run_figH5(const StudySpec&);
[[nodiscard]] std::vector<ResultTable> summarize_figH5(const ResultTable&);

// fig_detection.cpp (with the fifth original kind, detection)
[[nodiscard]] ResultTable run_detection(const StudySpec&);
[[nodiscard]] std::vector<ResultTable> summarize_detection(const ResultTable&);
[[nodiscard]] ResultTable run_fig06(const StudySpec&);
[[nodiscard]] std::vector<ResultTable> summarize_fig06(const ResultTable&);
[[nodiscard]] ResultTable run_figI6(const StudySpec&);
[[nodiscard]] std::vector<ResultTable> summarize_figI6(const ResultTable&);
[[nodiscard]] ResultTable run_ablation_pairing(const StudySpec&);
[[nodiscard]] std::vector<ResultTable> summarize_ablation_pairing(
    const ResultTable&);

// fig_hpo_curves.cpp
[[nodiscard]] ResultTable run_figF2(const StudySpec&);
[[nodiscard]] std::vector<ResultTable> summarize_figF2(const ResultTable&);

// fig_cohort.cpp
[[nodiscard]] ResultTable run_multi_contestants(const StudySpec&);
[[nodiscard]] std::vector<ResultTable> summarize_multi_contestants(
    const ResultTable&);
[[nodiscard]] ResultTable run_multi_dataset(const StudySpec&);
[[nodiscard]] std::vector<ResultTable> summarize_multi_dataset(
    const ResultTable&);
[[nodiscard]] ResultTable run_table8(const StudySpec&);
[[nodiscard]] std::vector<ResultTable> summarize_table8(const ResultTable&);
[[nodiscard]] ResultTable run_ablation_splitters(const StudySpec&);
[[nodiscard]] std::vector<ResultTable> summarize_ablation_splitters(
    const ResultTable&);

}  // namespace varbench::study::figures
