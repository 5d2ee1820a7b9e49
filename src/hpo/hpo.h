// Hyperparameter-optimization algorithms HOpt(S_tv; ξH): the paper studies
// grid search, a noisy grid search (Appendix E.2) that models the arbitrary
// choice of grid bounds, random search, and Bayesian optimization.
// All minimize a validation objective r(λ).
#pragma once

#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "src/exec/exec_context.h"
#include "src/hpo/space.h"
#include "src/rngx/rng.h"

namespace varbench::hpo {

/// Validation objective r(λ): lower is better (a risk / error rate).
using Objective = std::function<double(const ParamPoint&)>;

struct Trial {
  ParamPoint params;
  double objective = 0.0;
};

struct HpoResult {
  std::vector<Trial> trials;  // in evaluation order
  ParamPoint best;
  double best_objective = 0.0;
};

class HpoAlgorithm {
 public:
  virtual ~HpoAlgorithm() = default;
  HpoAlgorithm() = default;
  HpoAlgorithm(const HpoAlgorithm&) = delete;
  HpoAlgorithm& operator=(const HpoAlgorithm&) = delete;

  /// Run up to `budget` objective evaluations. `rng` carries ξH — all of the
  /// algorithm's stochasticity must come from it. Trial *parameters* are
  /// always drawn from `rng` in serial order; objective evaluations may fan
  /// out over `ctx` (requires a thread-safe objective), and the result
  /// (trials, best) is bit-identical for every thread count. Algorithms that
  /// are inherently sequential (Bayesian optimization conditions each trial
  /// on the previous posterior) ignore `ctx` and run serially.
  [[nodiscard]] virtual HpoResult optimize(const exec::ExecContext& ctx,
                                           const SearchSpace& space,
                                           const Objective& objective,
                                           std::size_t budget,
                                           rngx::Rng& rng) const = 0;

  /// Serial convenience — the same computation with no fan-out.
  [[nodiscard]] HpoResult optimize(const SearchSpace& space,
                                   const Objective& objective,
                                   std::size_t budget, rngx::Rng& rng) const {
    return optimize(exec::ExecContext::serial(), space, objective, budget,
                    rng);
  }

  [[nodiscard]] virtual std::string_view name() const = 0;
};

/// Uniform (log-uniform on log dims) random sampling, over the slightly
/// enlarged space of Appendix E.3 (±Δ/2 beyond each bound) so it covers the
/// same volume as the noisy grid.
class RandomSearch final : public HpoAlgorithm {
 public:
  explicit RandomSearch(bool enlarge_bounds = true)
      : enlarge_bounds_{enlarge_bounds} {}
  using HpoAlgorithm::optimize;
  [[nodiscard]] HpoResult optimize(const exec::ExecContext& ctx,
                                   const SearchSpace& space,
                                   const Objective& objective,
                                   std::size_t budget,
                                   rngx::Rng& rng) const override;
  [[nodiscard]] std::string_view name() const override {
    return "random_search";
  }

 private:
  bool enlarge_bounds_;
};

/// Deterministic full-factorial grid with n = floor(budget^(1/d)) values per
/// dimension (Appendix E.1). Ignores ξH entirely.
class GridSearch final : public HpoAlgorithm {
 public:
  using HpoAlgorithm::optimize;
  [[nodiscard]] HpoResult optimize(const exec::ExecContext& ctx,
                                   const SearchSpace& space,
                                   const Objective& objective,
                                   std::size_t budget,
                                   rngx::Rng& rng) const override;
  [[nodiscard]] std::string_view name() const override { return "grid_search"; }
};

/// Grid search whose per-dimension bounds are jittered by U(±Δ/2)
/// (Appendix E.2): models the arbitrary choice of grid placement, giving
/// grid search a variance to compare against stochastic HPO algorithms.
/// E[noisy grid] = plain grid.
class NoisyGridSearch final : public HpoAlgorithm {
 public:
  using HpoAlgorithm::optimize;
  [[nodiscard]] HpoResult optimize(const exec::ExecContext& ctx,
                                   const SearchSpace& space,
                                   const Objective& objective,
                                   std::size_t budget,
                                   rngx::Rng& rng) const override;
  [[nodiscard]] std::string_view name() const override {
    return "noisy_grid_search";
  }
};

/// Factory by name ("random_search" | "grid_search" | "noisy_grid_search" |
/// "bayes_opt"); throws std::invalid_argument on unknown names.
[[nodiscard]] std::unique_ptr<HpoAlgorithm> make_hpo_algorithm(
    std::string_view name);

/// The grid coordinates used by GridSearch: n evenly spaced values over
/// [lo, hi] (log-spaced for log dims). Exposed for tests and for the noisy
/// variant.
[[nodiscard]] std::vector<double> grid_values(const Dimension& d,
                                              std::size_t n);

}  // namespace varbench::hpo
