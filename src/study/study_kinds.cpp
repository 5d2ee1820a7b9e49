// The kind table: per-kind defaults and the one row per StudyKind that
// binds each kind's name, title, claim, shard rules, params, defaults,
// runner and summarizer (src/study/study_kinds.h).
#include "src/study/study_kinds.h"

#include <iterator>
#include <stdexcept>
#include <string>

#include "src/study/figures/figures.h"

namespace varbench::study {

namespace {

using namespace figures;

// ------------------------------------------------------- kind defaults

void defaults_hpo(StudySpec& s) { s.repetitions = 1; }

void defaults_fig01(StudySpec& s) {
  s.case_study = "all";
  s.repetitions = 30;
  s.figure.hpo_algorithms = {"noisy_grid_search", "random_search",
                             "bayes_opt"};
  s.figure.hpo_repetitions = 5;
  s.figure.hpo_budget = 12;
}

void defaults_fig02(StudySpec& s) {
  s.case_study = "all";
  s.repetitions = 25;
  s.figure.tasks = {"glue_rte_bert", "glue_sst2_bert", "cifar10_vgg11"};
}

void defaults_fig03(StudySpec& s) {
  s.case_study = "all";
  s.repetitions = 1;
}

void defaults_fig04(StudySpec& s) {
  s.case_study = "all";
  s.repetitions = 1;
  s.figure.k_grid = {10, 50, 100};
  s.figure.t_grid = {50, 100, 200};
}

void defaults_fig05(StudySpec& s) {
  s.case_study = "all";
  s.repetitions = 60;
  s.figure.k_grid = {1, 2, 5, 10, 20, 50, 100};
}

void defaults_fig06(StudySpec& s) {
  s.case_study = "all";
  s.repetitions = 100;
  s.figure.k = 50;
  s.figure.gamma = 0.75;
  s.figure.resamples = 100;
}

void defaults_figC1(StudySpec& s) {
  s.case_study = "all";
  s.repetitions = 1;
  s.figure.gamma_grid = {0.55, 0.60, 0.65, 0.70, 0.75,
                         0.80, 0.85, 0.90, 0.95, 0.99};
  s.figure.beta_grid = {0.05, 0.10, 0.20};
}

void defaults_figF2(StudySpec& s) {
  s.case_study = "all";
  s.repetitions = 5;
  s.figure.tasks = {"glue_rte_bert", "cifar10_vgg11"};
  s.figure.hpo_algorithms = {"bayes_opt", "noisy_grid_search",
                             "random_search"};
  s.figure.budget = 24;
}

void defaults_figG3(StudySpec& s) {
  s.case_study = "all";
  s.repetitions = 24;
}

void defaults_figH5(StudySpec& s) {
  s.case_study = "all";
  s.repetitions = 300;
  s.figure.k = 100;
}

void defaults_figI6(StudySpec& s) {
  s.case_study = "cifar10_vgg11";
  s.repetitions = 120;
  s.figure.k = 50;
  s.figure.gamma = 0.75;
  s.figure.resamples = 100;
  s.figure.k_grid = {10, 29, 50, 100};
  s.figure.gamma_grid = {0.6, 0.7, 0.75, 0.8, 0.9};
  s.figure.p_grid = {0.5, 0.6, 0.7, 0.8};
}

void defaults_ablation_pairing(StudySpec& s) {
  s.case_study = "synthetic";
  s.repetitions = 150;
  s.figure.edges = {0.0, 0.005, 0.01, 0.02, 0.04};
  s.figure.k = 29;
  s.figure.gamma = 0.75;
  s.figure.resamples = 200;
}

void defaults_ablation_splitters(StudySpec& s) {
  s.case_study = "synthetic";
  s.repetitions = 12;
}

void defaults_multi_contestants(StudySpec& s) {
  s.case_study = "cifar10_vgg11";
  s.repetitions = 16;
  s.figure.gamma = 0.75;
  s.figure.resamples = 500;
}

void defaults_multi_dataset(StudySpec& s) {
  s.case_study = "all";
  s.repetitions = 10;
}

void defaults_table8(StudySpec& s) {
  s.case_study = "mhc_mlp";
  s.scale = 0.5;
  s.repetitions = 5;
}

void defaults_tableD(StudySpec& s) {
  s.case_study = "all";
  s.repetitions = 1;
}

// --------------------------------------------------------------- table

constexpr StudyKindDef kKinds[] = {
    {StudyKind::kVariance, "variance",
     "§2.2 variance-source decomposition of one case study", "", true, false,
     kParamHpoAlgorithms | kParamHpoRepetitions | kParamHpoBudget |
         kParamIncludeNumericalNoise,
     nullptr, run_variance, summarize_variance},
    {StudyKind::kCompare, "compare",
     "§4/App. C paired comparison with the P(A>B) test", "", true, false,
     kParamLrMult | kParamGamma | kParamNumResamples, nullptr, run_compare,
     summarize_compare},
    {StudyKind::kHpo, "hpo", "one HOpt run (inherently sequential)", "", false,
     false, kParamAlgo | kParamBudget, defaults_hpo, run_hpo, summarize_hpo},
    {StudyKind::kEstimator, "estimator",
     "§3.2 IdealEst / FixHOptEst sweep on one case study", "", true, false,
     kParamEstimators | kParamHpoAlgo | kParamHpoBudget, nullptr,
     run_estimator, summarize_estimator},
    {StudyKind::kDetection, "detection",
     "§4.2 detection-rate simulation for one calibration", "", true, false,
     kParamEstimator | kParamK | kParamGamma | kParamResamples | kParamPGrid,
     nullptr, run_detection, summarize_detection},
    {StudyKind::kFig01VarianceSources, "fig01_variance_sources",
     "Fig. 1: variance decomposition per source, across case studies",
     "data bootstrap dominates; HPO variance is on par with weight init; "
     "numerical noise is negligible except for the VOC pipeline",
     true, false,
     kParamTasks | kParamHpoAlgorithms | kParamHpoRepetitions |
         kParamHpoBudget,
     defaults_fig01, run_fig01, summarize_fig01},
    {StudyKind::kFig02Binomial, "fig02_binomial_model",
     "Fig. 2: binomial model of test-set sampling noise",
     "std of accuracy from bootstrap replicates matches sqrt(p(1-p)/n') — "
     "the test-set size limits the measurable precision",
     true, false, kParamTasks, defaults_fig02, run_fig02, summarize_fig02},
    {StudyKind::kFig03Sota, "fig03_published_improvements",
     "Fig. 3: published SOTA increments vs benchmark variance",
     "many year-over-year 'SOTA' improvements fall inside the benchmark's "
     "noise band and are not statistically significant",
     true, true, 0, defaults_fig03, run_fig03, summarize_fig03},
    {StudyKind::kFig04EstimatorCost, "fig04_estimator_cost",
     "Fig. 4 / §3.3: estimator compute cost (counted fits)",
     "IdealEst(k=100) costs ~51x more than FixHOptEst(k=100) at T=200", true,
     true, kParamKGrid | kParamTGrid, defaults_fig04, run_fig04,
     summarize_fig04},
    {StudyKind::kFig05EstimatorStderr, "fig05_estimator_stderr",
     "Fig. 5 / H.4: standard error of estimators vs number of samples k",
     "FixHOptEst(k,All) approaches IdealEst(k) at no extra cost; "
     "FixHOptEst(k,Init) plateaus around the equivalent of IdealEst(k=2)",
     true, false, kParamTasks | kParamKGrid, defaults_fig05, run_fig05,
     summarize_fig05},
    {StudyKind::kFig06DetectionRates, "fig06_detection_rates",
     "Fig. 6: detection rates of comparison criteria vs true P(A>B)",
     "single-point: ~10% FP and ~75% FN; average: <5% FP but ~90% FN; "
     "P(A>B) test: ~5% FP and ~30% FN, close to the oracle",
     true, false,
     kParamTasks | kParamK | kParamGamma | kParamResamples | kParamPGrid,
     defaults_fig06, run_fig06, summarize_fig06},
    {StudyKind::kFigC1SampleSize, "figC1_sample_size",
     "Fig. C.1: Noether minimum sample size vs threshold gamma",
     "N=29 at the recommended gamma=0.75 (alpha=beta=0.05); detection "
     "below gamma=0.6 requires impractically many runs",
     true, true, kParamGammaGrid | kParamBetaGrid, defaults_figC1, run_figC1,
     summarize_figC1},
    {StudyKind::kFigF2HpoCurves, "figF2_hpo_curves",
     "Fig. F.2: HPO optimization curves (best-so-far risk over xi_H seeds)",
     "typical search spaces are well optimized by all three algorithms "
     "and the across-seed std stabilizes early",
     true, false, kParamTasks | kParamHpoAlgorithms | kParamBudget,
     defaults_figF2, run_figF2, summarize_figF2},
    {StudyKind::kFigG3Normality, "figG3_normality",
     "Fig. G.3: Shapiro-Wilk normality of per-source distributions",
     "performance distributions are close to normal for most "
     "tasks/sources (tiny test sets discretize accuracies)",
     true, false, kParamTasks, defaults_figG3, run_figG3, summarize_figG3},
    {StudyKind::kFigH5MseDecomposition, "figH5_mse_decomposition",
     "Fig. H.5: MSE decomposition of the estimators (bias, Var, rho, MSE)",
     "biased estimators share a similar bias; their MSE differences come "
     "from variance, which drops as more sources are randomized",
     true, false, kParamTasks | kParamK, defaults_figH5, run_figH5,
     summarize_figH5},
    {StudyKind::kFigI6Robustness, "figI6_robustness",
     "Fig. I.6: robustness of comparison methods vs sample size and gamma",
     "the P(A>B) test's detection rate converges with sample size and "
     "degrades gracefully as gamma moves; averages stay conservative",
     true, false,
     kParamK | kParamGamma | kParamResamples | kParamKGrid | kParamGammaGrid |
         kParamPGrid,
     defaults_figI6, run_figI6, summarize_figI6},
    {StudyKind::kAblationPairing, "ablation_pairing",
     "Ablation (App. C.2): paired vs unpaired comparisons",
     "pairing marginalizes shared variance, so smaller differences become "
     "detectable at the same N",
     true, false, kParamK | kParamGamma | kParamResamples | kParamEdges,
     defaults_ablation_pairing, run_ablation_pairing,
     summarize_ablation_pairing},
    {StudyKind::kAblationSplitters, "ablation_splitters",
     "Ablation (App. B): out-of-bootstrap vs cross-validation vs fixed "
     "split",
     "bootstrap-based splitting gives flexible sample sizes and avoids "
     "the correlation-driven variance underestimation of cross-validation",
     true, false, 0, defaults_ablation_splitters, run_ablation_splitters,
     summarize_ablation_splitters},
    {StudyKind::kMultiContestants, "multi_contestants",
     "§6: competitions with many contestants",
     "several methods are statistically indistinguishable and rankings "
     "flip under test-set resampling",
     true, false, kParamGamma | kParamResamples, defaults_multi_contestants,
     run_multi_contestants, summarize_multi_contestants},
    {StudyKind::kMultiDataset, "multi_dataset",
     "§6: comparing algorithms across multiple datasets",
     "Friedman/Nemenyi have little power on 3-5 datasets; Dror et al.'s "
     "per-dataset counting works at small N",
     true, false, kParamTasks, defaults_multi_dataset, run_multi_dataset,
     summarize_multi_dataset},
    {StudyKind::kTable8MhcModels, "table8_mhc_models",
     "Tables 8/9: model-design comparison on the MHC binding task",
     "the three designs perform comparably; ensembling helps modestly", true,
     false, 0, defaults_table8, run_table8, summarize_table8},
    {StudyKind::kTableDSearchSpaces, "tableD_search_spaces",
     "Tables 2/3/5/6: hyperparameter search spaces and defaults",
     "search spaces cover the optimal values reported by the original "
     "studies while remaining wide enough to include suboptimal ones",
     true, true, kParamTasks, defaults_tableD, run_tableD, summarize_tableD},
};

constexpr bool one_row_per_enumerator() {
  for (std::size_t i = 0; i < std::size(kKinds); ++i) {
    if (static_cast<std::size_t>(kKinds[i].kind) != i) return false;
  }
  return std::size(kKinds) ==
         static_cast<std::size_t>(StudyKind::kTableDSearchSpaces) + 1;
}
static_assert(one_row_per_enumerator(),
              "row i of kKinds must be StudyKind enumerator i, and every "
              "enumerator needs a row");

}  // namespace

std::span<const StudyKindDef> study_kinds() { return kKinds; }

const StudyKindDef& kind_def(StudyKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  if (i >= std::size(kKinds)) {
    throw std::invalid_argument("study kind " + std::to_string(i) +
                                " has no row in the kind table");
  }
  return kKinds[i];
}

StudySpec default_spec(StudyKind kind) {
  const StudyKindDef& def = kind_def(kind);
  StudySpec spec;
  spec.kind = kind;
  if (def.defaults != nullptr) def.defaults(spec);
  return spec;
}

}  // namespace varbench::study
