#include "src/hpo/hpo.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "src/exec/parallel_for.h"
#include "src/hpo/bayesopt.h"

namespace varbench::hpo {

namespace {

void record(HpoResult& result, ParamPoint params, double obj) {
  if (result.trials.empty() || obj < result.best_objective) {
    result.best = params;
    result.best_objective = obj;
  }
  result.trials.push_back({std::move(params), obj});
}

/// Evaluate a pre-sampled trial list — possibly in parallel — and record the
/// trials in list order, so the result is identical for every thread count.
HpoResult evaluate_trials(const exec::ExecContext& ctx,
                          const Objective& objective,
                          std::vector<ParamPoint> points) {
  std::vector<double> objectives(points.size(), 0.0);
  exec::parallel_for(
      ctx, 0, points.size(),
      [&](std::size_t i) { objectives[i] = objective(points[i]); },
      /*grain=*/1);
  HpoResult result;
  result.trials.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    record(result, std::move(points[i]), objectives[i]);
  }
  return result;
}

/// Per-dimension grid step Δ in the dimension's working scale
/// (log space for log dims).
double grid_step(const Dimension& d, std::size_t n) {
  const double lo = d.scale == ScaleKind::kLog ? std::log(d.lo) : d.lo;
  const double hi = d.scale == ScaleKind::kLog ? std::log(d.hi) : d.hi;
  return n > 1 ? (hi - lo) / static_cast<double>(n - 1) : hi - lo;
}

std::vector<double> grid_values_shifted(const Dimension& d, std::size_t n,
                                        double lo_shift, double hi_shift) {
  const bool log_scale = d.scale == ScaleKind::kLog;
  const double lo = (log_scale ? std::log(d.lo) : d.lo) + lo_shift;
  const double hi = (log_scale ? std::log(d.hi) : d.hi) + hi_shift;
  std::vector<double> vals(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    const double t =
        n > 1 ? static_cast<double>(j) / static_cast<double>(n - 1) : 0.5;
    const double v = lo + t * (hi - lo);
    double out = log_scale ? std::exp(v) : v;
    // Integer dimensions (layer widths, counts) must stay physically valid
    // even when bounds are jittered below the nominal range.
    if (d.integer) out = std::max(std::round(out), 1.0);
    vals[j] = out;
  }
  return vals;
}

/// Full-factorial enumeration of `per_dim` values, capped at `budget` trials.
/// When `shuffle_rng` is non-null the enumeration order is randomized, so a
/// budget smaller than the full grid still samples every dimension.
HpoResult run_grid(const exec::ExecContext& ctx, const SearchSpace& space,
                   const Objective& objective, std::size_t budget,
                   const std::vector<std::vector<double>>& per_dim,
                   rngx::Rng* shuffle_rng = nullptr) {
  const std::size_t d = space.size();
  std::size_t total = 1;
  for (const auto& vals : per_dim) total *= vals.size();
  std::vector<std::size_t> order(total);
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (shuffle_rng != nullptr) shuffle_rng->shuffle(order);
  if (order.size() > budget) order.resize(budget);

  std::vector<ParamPoint> points;
  points.reserve(order.size());
  for (const std::size_t flat : order) {
    ParamPoint p;
    std::size_t rem = flat;
    for (std::size_t i = 0; i < d; ++i) {
      p[space.dim(i).name] = per_dim[i][rem % per_dim[i].size()];
      rem /= per_dim[i].size();
    }
    points.push_back(std::move(p));
  }
  return evaluate_trials(ctx, objective, std::move(points));
}

std::size_t grid_resolution(std::size_t budget, std::size_t num_dims) {
  return static_cast<std::size_t>(std::max(
      2.0, std::floor(std::pow(static_cast<double>(budget),
                               1.0 / static_cast<double>(num_dims)))));
}

}  // namespace

std::vector<double> grid_values(const Dimension& d, std::size_t n) {
  return grid_values_shifted(d, n, 0.0, 0.0);
}

HpoResult RandomSearch::optimize(const exec::ExecContext& ctx,
                                 const SearchSpace& space,
                                 const Objective& objective,
                                 std::size_t budget, rngx::Rng& rng) const {
  if (space.empty() || budget == 0) {
    throw std::invalid_argument("RandomSearch: empty space or zero budget");
  }
  // Enlarged bounds (Appendix E.3): ±Δ/2 where Δ is the step of the grid an
  // equal budget would use, so random search covers the noisy grid's support.
  // All candidates are sampled from `rng` up front — the draw sequence is
  // exactly the serial one — and only the evaluations fan out.
  const std::size_t n_per_dim = grid_resolution(budget, space.size());
  std::vector<ParamPoint> points;
  points.reserve(budget);
  for (std::size_t t = 0; t < budget; ++t) {
    ParamPoint p;
    for (const auto& d : space.dims()) {
      const bool log_scale = d.scale == ScaleKind::kLog;
      double lo = log_scale ? std::log(d.lo) : d.lo;
      double hi = log_scale ? std::log(d.hi) : d.hi;
      if (enlarge_bounds_) {
        const double half = grid_step(d, n_per_dim) / 2.0;
        lo -= half;
        hi += half;
      }
      double v = rng.uniform(lo, hi);
      if (log_scale) v = std::exp(v);
      if (d.integer) v = std::max(std::round(v), 1.0);
      p[d.name] = v;
    }
    points.push_back(std::move(p));
  }
  return evaluate_trials(ctx, objective, std::move(points));
}

HpoResult GridSearch::optimize(const exec::ExecContext& ctx,
                               const SearchSpace& space,
                               const Objective& objective, std::size_t budget,
                               rngx::Rng& rng) const {
  (void)rng;  // fully deterministic
  if (space.empty() || budget == 0) {
    throw std::invalid_argument("GridSearch: empty space or zero budget");
  }
  const std::size_t n = grid_resolution(budget, space.size());
  std::vector<std::vector<double>> per_dim;
  per_dim.reserve(space.size());
  for (const auto& d : space.dims()) per_dim.push_back(grid_values(d, n));
  return run_grid(ctx, space, objective, budget, per_dim);
}

HpoResult NoisyGridSearch::optimize(const exec::ExecContext& ctx,
                                    const SearchSpace& space,
                                    const Objective& objective,
                                    std::size_t budget, rngx::Rng& rng) const {
  if (space.empty() || budget == 0) {
    throw std::invalid_argument("NoisyGridSearch: empty space or zero budget");
  }
  // At least 3 values per dimension: with a 2-point grid the bound jitter
  // would span half the search range, which no sane experimenter's grid
  // does. Budgets smaller than the full grid visit a shuffled subset.
  const std::size_t n =
      std::max<std::size_t>(3, grid_resolution(budget, space.size()));
  std::vector<std::vector<double>> per_dim;
  per_dim.reserve(space.size());
  for (const auto& d : space.dims()) {
    // ãᵢ ~ U(aᵢ ± Δᵢ/2), b̃ᵢ ~ U(bᵢ ± Δᵢ/2) in the working scale (E.2).
    const double half = grid_step(d, n) / 2.0;
    const double lo_shift = rng.uniform(-half, half);
    const double hi_shift = rng.uniform(-half, half);
    per_dim.push_back(grid_values_shifted(d, n, lo_shift, hi_shift));
  }
  return run_grid(ctx, space, objective, budget, per_dim, &rng);
}

std::unique_ptr<HpoAlgorithm> make_hpo_algorithm(std::string_view name) {
  if (name == "random_search") return std::make_unique<RandomSearch>();
  if (name == "grid_search") return std::make_unique<GridSearch>();
  if (name == "noisy_grid_search") return std::make_unique<NoisyGridSearch>();
  if (name == "bayes_opt") return std::make_unique<BayesianOptimization>();
  throw std::invalid_argument("make_hpo_algorithm: unknown algorithm " +
                              std::string(name));
}

}  // namespace varbench::hpo
