#include "src/compare/multiple.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>

#include "src/exec/parallel_replicate.h"
#include "src/stats/descriptive.h"
#include "src/stats/tests.h"

namespace varbench::compare {

namespace {

void check_scores(const ContestantScores& scores) {
  if (scores.size() < 2) {
    throw std::invalid_argument("multiple: need >= 2 contestants");
  }
  const std::size_t k = scores.front().size();
  if (k == 0) throw std::invalid_argument("multiple: empty measurements");
  for (const auto& s : scores) {
    if (s.size() != k) {
      throw std::invalid_argument("multiple: unequal measurement counts");
    }
  }
}

}  // namespace

math::Matrix pairwise_pab_matrix(const ContestantScores& scores) {
  check_scores(scores);
  const std::size_t n = scores.size();
  math::Matrix m{n, n, 0.5};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double pij =
          stats::probability_of_outperforming(scores[i], scores[j]);
      m(i, j) = pij;
      m(j, i) = 1.0 - pij;
    }
  }
  return m;
}

TopGroupResult significance_top_group(const exec::ExecContext& ctx,
                                      const ContestantScores& scores,
                                      rngx::Rng& rng, double gamma,
                                      double alpha,
                                      std::size_t num_resamples) {
  check_scores(scores);
  TopGroupResult result;
  const std::size_t n = scores.size();
  // Best by mean performance.
  double best_mean = stats::mean(scores[0]);
  for (std::size_t a = 1; a < n; ++a) {
    const double m = stats::mean(scores[a]);
    if (m > best_mean) {
      best_mean = m;
      result.best = a;
    }
  }
  result.adjusted_alpha = stats::bonferroni_alpha(alpha, n - 1);
  // best vs a, one independent comparison per contestant: if NOT
  // (significant and meaningful), a stays in the group.
  const auto in_group = exec::parallel_replicate_range<std::uint8_t>(
      ctx, exec::IndexRange{0, n}, rng.next_u64(), "top_group",
      [&](std::size_t a, rngx::Rng& comparison_rng) -> std::uint8_t {
        if (a == result.best) return 1;
        const auto r = stats::test_probability_of_outperforming(
            exec::ExecContext{}, scores[result.best], scores[a],
            comparison_rng, gamma, num_resamples, result.adjusted_alpha);
        return r.conclusion !=
                       stats::ComparisonConclusion::kSignificantAndMeaningful
                   ? 1
                   : 0;
      });
  for (std::size_t a = 0; a < n; ++a) {
    if (in_group[a] != 0) result.group.push_back(a);
  }
  return result;
}

RankingStability ranking_stability(const exec::ExecContext& ctx,
                                   const ContestantScores& scores,
                                   rngx::Rng& rng, std::size_t num_resamples) {
  check_scores(scores);
  const std::size_t n = scores.size();
  const std::size_t k = scores.front().size();
  RankingStability result;
  result.rank_probability = math::Matrix{n, n};
  result.prob_first.assign(n, 0.0);

  // Each resample reports its ranking; counts accumulate serially in
  // resample order afterwards.
  const auto orders = exec::parallel_replicate_range<std::vector<std::size_t>>(
      ctx, exec::IndexRange{0, num_resamples}, rng.next_u64(),
      "ranking_stability",
      [&](std::size_t, rngx::Rng& resample_rng) {
        std::vector<std::size_t> idx(k, 0);
        for (auto& v : idx) {
          v = resample_rng.uniform_index(k);  // resample splits, paired
        }
        std::vector<double> means(n, 0.0);
        for (std::size_t a = 0; a < n; ++a) {
          double s = 0.0;
          for (const std::size_t i : idx) s += scores[a][i];
          means[a] = s / static_cast<double>(k);
        }
        std::vector<std::size_t> order(n);
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::sort(order.begin(), order.end(),
                  [&](std::size_t x, std::size_t y) {
                    return means[x] > means[y];
                  });
        return order;
      });
  for (const auto& order : orders) {
    for (std::size_t r = 0; r < n; ++r) {
      result.rank_probability(order[r], r) += 1.0;
    }
  }
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t r = 0; r < n; ++r) {
      result.rank_probability(a, r) /= static_cast<double>(num_resamples);
    }
    result.prob_first[a] = result.rank_probability(a, 0);
  }
  return result;
}

}  // namespace varbench::compare
