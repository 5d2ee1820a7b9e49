#include "src/stats/tests.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "src/exec/parallel_replicate.h"
#include "src/exec/scratch.h"
#include "src/metrics/metrics.h"
#include "src/stats/descriptive.h"
#include "src/stats/distributions.h"
#include "src/stats/resample_kernels.h"
#include "src/stats/signflip.h"

namespace varbench::stats {

TestResult welch_t_test(std::span<const double> a, std::span<const double> b) {
  if (a.size() < 2 || b.size() < 2) {
    throw std::invalid_argument("welch_t_test: n < 2");
  }
  const double va = variance(a) / static_cast<double>(a.size());
  const double vb = variance(b) / static_cast<double>(b.size());
  const double denom = std::sqrt(va + vb);
  if (denom == 0.0) {
    const bool equal = mean(a) == mean(b);
    return {equal ? 0.0 : std::numeric_limits<double>::infinity(),
            equal ? 1.0 : 0.0};
  }
  const double t = (mean(a) - mean(b)) / denom;
  // Welch–Satterthwaite degrees of freedom.
  const double nu =
      (va + vb) * (va + vb) /
      (va * va / static_cast<double>(a.size() - 1) +
       vb * vb / static_cast<double>(b.size() - 1));
  return {t, student_t_two_sided_p(t, nu)};
}

MannWhitneyResult mann_whitney_u(std::span<const double> a,
                                 std::span<const double> b) {
  const std::size_t na = a.size();
  const std::size_t nb = b.size();
  if (na == 0 || nb == 0) {
    throw std::invalid_argument("mann_whitney_u: empty sample");
  }
  std::vector<double> pooled;
  pooled.reserve(na + nb);
  pooled.insert(pooled.end(), a.begin(), a.end());
  pooled.insert(pooled.end(), b.begin(), b.end());
  const auto r = ranks(pooled);
  double rank_sum_a = 0.0;
  for (std::size_t i = 0; i < na; ++i) rank_sum_a += r[i];
  const double nad = static_cast<double>(na);
  const double nbd = static_cast<double>(nb);
  const double u_a = rank_sum_a - nad * (nad + 1.0) / 2.0;

  // Tie correction for the variance of U.
  const double n = nad + nbd;
  std::vector<double> sorted(pooled);
  std::sort(sorted.begin(), sorted.end());
  double tie_term = 0.0;
  std::size_t i = 0;
  while (i < sorted.size()) {
    std::size_t j = i;
    while (j + 1 < sorted.size() && sorted[j + 1] == sorted[i]) ++j;
    const auto t = static_cast<double>(j - i + 1);
    tie_term += t * t * t - t;
    i = j + 1;
  }
  const double mu_u = nad * nbd / 2.0;
  const double var_u =
      nad * nbd / 12.0 * ((n + 1.0) - tie_term / (n * (n - 1.0)));
  double p = 1.0;
  if (var_u > 0.0) {
    // Continuity correction.
    const double z = (std::abs(u_a - mu_u) - 0.5) / std::sqrt(var_u);
    p = 2.0 * normal_cdf(-std::max(z, 0.0));
  }
  return {u_a, std::min(p, 1.0), u_a / (nad * nbd)};
}

TestResult wilcoxon_signed_rank(std::span<const double> a,
                                std::span<const double> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("wilcoxon_signed_rank: size mismatch");
  }
  std::vector<double> abs_d;
  std::vector<int> sign_d;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    if (d == 0.0) continue;  // standard practice: drop zeros
    abs_d.push_back(std::abs(d));
    sign_d.push_back(d > 0.0 ? 1 : -1);
  }
  const std::size_t n = abs_d.size();
  if (n == 0) return {0.0, 1.0};
  const auto r = ranks(abs_d);
  double w_plus = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (sign_d[i] > 0) w_plus += r[i];
  }
  const double nd = static_cast<double>(n);
  const double mu = nd * (nd + 1.0) / 4.0;
  // Tie correction.
  std::vector<double> sorted(abs_d);
  std::sort(sorted.begin(), sorted.end());
  double tie_term = 0.0;
  std::size_t i = 0;
  while (i < sorted.size()) {
    std::size_t j = i;
    while (j + 1 < sorted.size() && sorted[j + 1] == sorted[i]) ++j;
    const auto t = static_cast<double>(j - i + 1);
    tie_term += t * t * t - t;
    i = j + 1;
  }
  const double var =
      nd * (nd + 1.0) * (2.0 * nd + 1.0) / 24.0 - tie_term / 48.0;
  if (var <= 0.0) return {w_plus, 1.0};
  const double z = (std::abs(w_plus - mu) - 0.5) / std::sqrt(var);
  return {w_plus, std::min(1.0, 2.0 * normal_cdf(-std::max(z, 0.0)))};
}

double bonferroni_alpha(double alpha, std::size_t m) {
  if (m == 0) throw std::invalid_argument("bonferroni_alpha: m == 0");
  return alpha / static_cast<double>(m);
}

namespace {

/// Add-one Monte-Carlo p-value from per-permutation "at least as extreme"
/// flags — guarantees p > 0 and unbiased coverage (Phipson & Smyth 2010).
double add_one_p(const std::vector<std::uint8_t>& extreme) {
  std::size_t hits = 0;
  for (const std::uint8_t e : extreme) hits += e;
  return static_cast<double>(1 + hits) /
         static_cast<double>(1 + extreme.size());
}

}  // namespace

TestResult permutation_test_mean_diff(const exec::ExecContext& ctx,
                                      std::span<const double> a,
                                      std::span<const double> b,
                                      rngx::Rng& rng,
                                      std::size_t num_permutations) {
  if (a.empty() || b.empty()) {
    throw std::invalid_argument("permutation_test_mean_diff: empty sample");
  }
  if (num_permutations == 0) {
    throw std::invalid_argument(
        "permutation_test_mean_diff: num_permutations == 0");
  }
  const double observed = mean(a) - mean(b);
  const double threshold = std::abs(observed);
  std::vector<double> pooled;
  pooled.reserve(a.size() + b.size());
  pooled.insert(pooled.end(), a.begin(), a.end());
  pooled.insert(pooled.end(), b.begin(), b.end());
  const std::size_t na = a.size();
  metrics::Sink& sink = ctx.sink();
  const auto extreme = exec::parallel_replicate_range<std::uint8_t>(
      ctx, exec::IndexRange{0, num_permutations}, rng.next_u64(),
      "permutation",
      [&](std::size_t, rngx::Rng& perm_rng) -> std::uint8_t {
        sink.add(metrics::kStatsResamples);
        // Per-thread leased copy of the pool: same shuffle draws and the
        // same two fused segment sums as ever, no per-permutation vector.
        exec::ScratchBuffer<double> shuffled{pooled.size()};
        std::copy(pooled.begin(), pooled.end(), shuffled.span().begin());
        kernels::span_shuffle(shuffled.span(), perm_rng);
        const double diff = kernels::segment_mean_diff(shuffled.span(), na);
        return std::abs(diff) >= threshold ? 1 : 0;
      });
  return {observed, add_one_p(extreme)};
}

TestResult paired_permutation_test(const exec::ExecContext& ctx,
                                   std::span<const double> a,
                                   std::span<const double> b, rngx::Rng& rng,
                                   std::size_t num_permutations) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("paired_permutation_test: size mismatch");
  }
  if (a.empty()) {
    throw std::invalid_argument("paired_permutation_test: empty sample");
  }
  if (num_permutations == 0) {
    throw std::invalid_argument(
        "paired_permutation_test: num_permutations == 0");
  }
  std::vector<double> d(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) d[i] = a[i] - b[i];
  const double observed = mean(d);
  const double threshold = std::abs(observed);
  const auto n = static_cast<double>(d.size());
  metrics::Sink& sink = ctx.sink();
  // Permutation i draws from the stream parallel_replicate_range would give
  // index i, one SIMD lane per permutation (src/stats/signflip.h): same draws,
  // same sums. Only the extreme flags leave a block.
  const detail::SignflipKernel& kernel = detail::active_signflip_kernel();
  std::vector<std::uint8_t> extreme(num_permutations);
  exec::parallel_replicate_blocks(
      ctx, exec::IndexRange{0, num_permutations}, kernel.block,
      rng.next_u64(), "paired_permutation",
      [&](exec::IndexRange block, std::span<const std::uint64_t> seeds) {
        // kernel.run writes sums[0, seeds.size()); the rest stays unread.
        std::array<double, exec::kMaxReplicateBlock> sums;
        kernel.run({d, seeds, std::span<double>{sums.data(), seeds.size()}});
        for (std::size_t j = 0; j < seeds.size(); ++j) {
          sink.add(metrics::kStatsResamples);
          rngx::count_stream_draws(d.size());
          extreme[block.begin + j] = std::abs(sums[j] / n) >= threshold ? 1 : 0;
        }
      });
  return {observed, add_one_p(extreme)};
}

}  // namespace varbench::stats
