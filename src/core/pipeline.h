// The learning pipeline abstraction of §2.1 and the complete-pipeline runner
// P(S_tv) = Opt(S_tv, HOpt(S_tv)): split → tune → retrain → measure.
#pragma once

#include <atomic>
#include <memory>
#include <string_view>

#include "src/core/splitter.h"
#include "src/exec/exec_context.h"
#include "src/hpo/hpo.h"
#include "src/ml/dataset.h"
#include "src/ml/metrics.h"
#include "src/rngx/variation.h"

namespace varbench::core {

/// A trainable, hyperparameter-configurable learning procedure Opt(S_t, λ; ξO)
/// together with its evaluation metric (oriented so higher is better).
class LearningPipeline {
 public:
  virtual ~LearningPipeline() = default;
  LearningPipeline() = default;
  LearningPipeline(const LearningPipeline&) = delete;
  LearningPipeline& operator=(const LearningPipeline&) = delete;

  /// Train on `train` with hyperparameters λ under seeds ξO, evaluate on
  /// `test`. Returns the performance measure R̂e (higher is better).
  [[nodiscard]] virtual double train_and_evaluate(
      const ml::Dataset& train, const ml::Dataset& test,
      const hpo::ParamPoint& lambda,
      const rngx::VariationSeeds& seeds) const = 0;

  [[nodiscard]] virtual const hpo::SearchSpace& search_space() const = 0;

  /// Pre-selected reasonable defaults (Appendix D's "default" columns).
  [[nodiscard]] virtual hpo::ParamPoint default_params() const = 0;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual ml::Metric metric() const = 0;

  /// Whether a measurement under λ (measure_with_params: split, train,
  /// evaluate) depends on `source`'s seed. false promises that every seed
  /// of that source gives the same bits, so a caller may measure once and
  /// reuse the value for every draw of it (add_variance_study does). For
  /// kNumerical, true means the pipeline adds noise that no seed controls:
  /// two measurements under equal seeds may differ, and nothing measured
  /// under it is reused. The default, true for every source, is always
  /// safe.
  [[nodiscard]] virtual bool reads(rngx::VariationSource /*source*/,
                                   const hpo::ParamPoint& /*lambda*/) const {
    return true;
  }
};

/// Counts Opt() invocations — the unit of the paper's O(k·T) vs O(k+T)
/// compute comparison (Fig. 4). Every HPO trial and every final retraining
/// is one fit. Atomic because HPO trials may now evaluate concurrently.
struct FitCounter {
  std::atomic<std::size_t> fits{0};
};

struct HpoRunConfig {
  const hpo::HpoAlgorithm* algorithm = nullptr;  // nullptr → defaults, no HPO
  std::size_t budget = 50;        // T: number of HPO trials
  exec::ExecContext exec;         // fan-out for independent trial evaluations
};

/// HOpt's inner S_t / S_v split of `trainvalid`: its rows shuffled by the
/// ξH stream `hpo_rng`, the first max(1, ⌊0.25·n⌋) held out for
/// validation. Throws std::invalid_argument for a split that leaves no
/// train data.
struct InnerSplit {
  ml::Dataset train;
  ml::Dataset valid;
};
[[nodiscard]] InnerSplit inner_split(const ml::Dataset& trainvalid,
                                     rngx::Rng& hpo_rng);

/// HOpt(S_tv; ξO, ξH): tune hyperparameters on the inner_split of
/// `trainvalid`. The inner split and all algorithm stochasticity come from
/// the ξH stream. Returns λ̂*.
[[nodiscard]] hpo::ParamPoint run_hpo(const LearningPipeline& pipeline,
                                      const ml::Dataset& trainvalid,
                                      const HpoRunConfig& config,
                                      const rngx::VariationSeeds& seeds,
                                      FitCounter* counter = nullptr);

/// One complete benchmark measurement (Eq. 5): split the pool with the ξO
/// data-split stream, run HOpt (or take defaults), retrain on the full
/// S_tv, and return R̂e(h*, S_o).
[[nodiscard]] double run_pipeline_once(const LearningPipeline& pipeline,
                                       const ml::Dataset& pool,
                                       const Splitter& splitter,
                                       const HpoRunConfig& config,
                                       const rngx::VariationSeeds& seeds,
                                       FitCounter* counter = nullptr);

/// As run_pipeline_once but with externally supplied hyperparameters (the
/// biased-estimator path where HOpt ran once beforehand).
[[nodiscard]] double measure_with_params(const LearningPipeline& pipeline,
                                         const ml::Dataset& pool,
                                         const Splitter& splitter,
                                         const hpo::ParamPoint& lambda,
                                         const rngx::VariationSeeds& seeds,
                                         FitCounter* counter = nullptr);

}  // namespace varbench::core
