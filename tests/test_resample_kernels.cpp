// The fused resampling-kernel contract (src/stats/resample_kernels.h,
// src/stats/signflip.h) and the streaming VBT writer
// (src/io/columnar/stream_writer.h):
//   - the mean and win-rate kernels, and the CIs built on them, are
//     bit-identical to textbook resampling loops written here;
//   - every rewired statistic is bit-identical at any thread count;
//   - the kernels are allocation-free in steady state (scratch reuse) and
//     account every replicate to stats.resamples, and every stream and
//     draw to the rngx counters;
//   - every compiled sign-flip variant returns the scalar loop's sums, and
//     the comparison numbers a report prints are pinned by digest;
//   - stream_merge_vbt (load + merge + encode) writes the exact bytes of
//     encode_vbt over merge_result_tables, for sorted and unsorted shards
//     and every cell encoding.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/exec/parallel_replicate.h"
#include "src/exec/scratch.h"
#include "src/io/columnar/stream_writer.h"
#include "src/io/columnar/vbt.h"
#include "src/io/json.h"
#include "src/metrics/metrics.h"
#include "src/report/artifact.h"
#include "src/report/render.h"
#include "src/report/summary.h"
#include "src/stats/bootstrap.h"
#include "src/stats/descriptive.h"
#include "src/stats/distributions.h"
#include "src/stats/prob_outperform.h"
#include "src/stats/resample_kernels.h"
#include "src/stats/signflip.h"
#include "src/stats/tests.h"
#include "src/study/result_table.h"

namespace varbench {
namespace {

namespace fs = std::filesystem;

std::vector<double> normal_data(std::size_t n, std::uint64_t seed,
                                double mu = 1.0, double sigma = 0.5) {
  rngx::Rng rng{seed};
  std::vector<double> x(n);
  for (double& v : x) v = rng.normal(mu, sigma);
  return x;
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ------------------------------------------------ kernels == reference

// The reference loops below are the textbook resampling each kernel
// replaced: per-resample streams from exec::parallel_replicate_range, one
// Rng::uniform_index draw per element, a materialized resample, then the
// statistic itself. The kernels draw through fill_bootstrap_indices and
// for_each_bootstrap_index instead, so these loops check those too.

std::vector<double> reference_means(const exec::ExecContext& ctx,
                                    std::span<const double> x, rngx::Rng& rng,
                                    std::size_t count) {
  return exec::parallel_replicate_range<double>(
      ctx, exec::IndexRange{0, count}, rng.next_u64(), "bootstrap",
      [&](std::size_t, rngx::Rng& r) {
        std::vector<double> resample(x.size());
        for (double& v : resample) v = x[r.uniform_index(x.size())];
        return stats::mean(resample);
      });
}

std::vector<double> reference_win_rates(const exec::ExecContext& ctx,
                                        std::span<const double> a,
                                        std::span<const double> b,
                                        rngx::Rng& rng, std::size_t count) {
  return exec::parallel_replicate_range<double>(
      ctx, exec::IndexRange{0, count}, rng.next_u64(), "paired_bootstrap",
      [&](std::size_t, rngx::Rng& r) {
        std::vector<double> ra(a.size());
        std::vector<double> rb(b.size());
        for (std::size_t j = 0; j < a.size(); ++j) {
          const auto i = static_cast<std::size_t>(r.uniform_index(a.size()));
          ra[j] = a[i];
          rb[j] = b[i];
        }
        return stats::probability_of_outperforming(ra, rb);
      });
}

stats::ConfidenceInterval percentile_of(const std::vector<double>& values,
                                        double alpha) {
  return {stats::quantile(values, alpha / 2.0),
          stats::quantile(values, 1.0 - alpha / 2.0), 1.0 - alpha};
}

TEST(ResampleKernels, MeanKernelMatchesReferenceLoop) {
  const auto x = normal_data(200, 11);
  const exec::ExecContext ctx{4};
  rngx::Rng rng_kernel{42};
  rngx::Rng rng_ref{42};
  const auto want = reference_means(ctx, x, rng_ref, 500);
  EXPECT_EQ(stats::kernels::resample_mean_statistics(ctx, x, rng_kernel, 500),
            want);  // exact double equality, element by element
  // Both consumed exactly one master draw, so the streams stay in step.
  EXPECT_EQ(rng_kernel.next_u64(), rng_ref.next_u64());

  rngx::Rng rng_ci{42};
  EXPECT_EQ(stats::percentile_bootstrap_ci(ctx, x, rng_ci, 500),
            percentile_of(want, 0.05));
}

TEST(ResampleKernels, BcaMatchesReferenceLoop) {
  // n far below kJackknifeLinearThreshold: the exact jackknife regime,
  // where the leave-one-out means match materialized copies bit for bit.
  const auto x = normal_data(150, 12);
  const exec::ExecContext ctx{4};
  const double alpha = 0.05;
  rngx::Rng rng_ref{43};
  const auto means = reference_means(ctx, x, rng_ref, 400);
  std::vector<double> loo;
  for (std::size_t i = 0; i < x.size(); ++i) {
    std::vector<double> rest(x.begin(), x.end());
    rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(i));
    loo.push_back(stats::mean(rest));
  }
  // Efron's BCa levels: bias correction z0 from the share of resampled
  // means below the observed one (ties half, clamped half a resample from
  // 0 and 1), acceleration from the jackknife skewness.
  const double observed = stats::mean(x);
  double below = 0.0;
  for (const double m : means) {
    if (m < observed) below += 1.0;
    if (m == observed) below += 0.5;
  }
  const double total = static_cast<double>(means.size());
  const double z0 = stats::normal_quantile(
      std::clamp(below / total, 0.5 / total, 1.0 - 0.5 / total));
  const double loo_mean = stats::mean(loo);
  double num = 0.0;
  double den = 0.0;
  for (const double v : loo) {
    const double d = loo_mean - v;
    num += d * d * d;
    den += d * d;
  }
  const double accel = num / (6.0 * std::pow(den, 1.5));
  const auto level = [&](double p) {
    const double zsum = z0 + stats::normal_quantile(p);
    return stats::normal_cdf(z0 + zsum / (1.0 - accel * zsum));
  };
  const double lo = level(alpha / 2.0);
  const double hi = level(1.0 - alpha / 2.0);
  ASSERT_LT(lo, hi);

  rngx::Rng rng_kernel{43};
  const auto got = stats::bca_bootstrap_ci(ctx, x, rng_kernel, 400, alpha);
  EXPECT_EQ(got, (stats::ConfidenceInterval{stats::quantile(means, lo),
                                            stats::quantile(means, hi),
                                            1.0 - alpha}));
  EXPECT_EQ(rng_kernel.next_u64(), rng_ref.next_u64());
}

TEST(ResampleKernels, WinRateKernelMatchesReferenceLoop) {
  auto a = normal_data(120, 13, 1.1);
  auto b = normal_data(120, 14, 1.0);
  // Ties, signed zeros and a NaN pair: half-wins, and the pair that is
  // neither a win nor a tie.
  for (std::size_t i = 0; i < a.size(); i += 7) b[i] = a[i];
  a[3] = 0.0;
  b[3] = -0.0;
  b[5] = kNaN;
  const exec::ExecContext ctx{4};
  rngx::Rng rng_kernel{44};
  rngx::Rng rng_ref{44};
  const auto want = reference_win_rates(ctx, a, b, rng_ref, 300);
  EXPECT_EQ(
      stats::kernels::resample_win_rate_statistics(ctx, a, b, rng_kernel, 300),
      want);
  EXPECT_EQ(rng_kernel.next_u64(), rng_ref.next_u64());

  rngx::Rng rng_ci{44};
  EXPECT_EQ(stats::paired_percentile_bootstrap_ci(ctx, a, b, rng_ci, 300),
            percentile_of(want, 0.05));
}

TEST(ResampleKernels, FillBootstrapIndicesMatchesUniformIndex) {
  rngx::Rng rng_kernel{99};
  rngx::Rng rng_manual{99};
  std::vector<std::uint32_t> idx(1000);
  stats::kernels::fill_bootstrap_indices(
      rng_kernel, 10, std::span<std::uint32_t>{idx});
  for (const std::uint32_t i : idx) {
    EXPECT_EQ(i, rng_manual.uniform_index(10));
    EXPECT_LT(i, 10u);
  }
}

// ------------------------------------------------------ thread invariance

TEST(ResampleKernels, EveryRewiredStatisticIsThreadCountInvariant) {
  const auto a = normal_data(180, 21, 1.2);
  const auto b = normal_data(180, 22, 1.0);
  const exec::ExecContext serial{1};
  const exec::ExecContext parallel{4};

  {
    rngx::Rng r1{1}, r2{1};
    EXPECT_EQ(stats::percentile_bootstrap_ci(serial, a, r1, 400),
              stats::percentile_bootstrap_ci(parallel, a, r2, 400));
  }
  {
    rngx::Rng r1{2}, r2{2};
    EXPECT_EQ(stats::bca_bootstrap_ci(serial, a, r1, 400),
              stats::bca_bootstrap_ci(parallel, a, r2, 400));
  }
  {
    rngx::Rng r1{3}, r2{3};
    EXPECT_EQ(stats::paired_percentile_bootstrap_ci(serial, a, b, r1, 400),
              stats::paired_percentile_bootstrap_ci(parallel, a, b, r2, 400));
  }
  {
    rngx::Rng r1{4}, r2{4};
    EXPECT_EQ(stats::permutation_test_mean_diff(serial, a, b, r1, 500),
              stats::permutation_test_mean_diff(parallel, a, b, r2, 500));
  }
  {
    rngx::Rng r1{5}, r2{5};
    EXPECT_EQ(stats::paired_permutation_test(serial, a, b, r1, 500),
              stats::paired_permutation_test(parallel, a, b, r2, 500));
  }
  {
    rngx::Rng r1{6}, r2{6};
    const auto s = stats::test_probability_of_outperforming(serial, a, b, r1);
    const auto p =
        stats::test_probability_of_outperforming(parallel, a, b, r2);
    EXPECT_EQ(s.p_a_greater_b, p.p_a_greater_b);
    EXPECT_EQ(s.ci, p.ci);
    EXPECT_EQ(s.conclusion, p.conclusion);
  }
}

// ---------------------------------------------------- jackknife regimes

TEST(ResampleKernels, JackknifeExactRegimeMatchesNaiveLeaveOneOut) {
  const auto x = normal_data(33, 31);
  ASSERT_LT(x.size(), stats::kernels::kJackknifeLinearThreshold);
  std::vector<double> loo(x.size(), 0.0);
  stats::kernels::jackknife_mean_loo(exec::ExecContext{3}, x, loo);
  for (std::size_t i = 0; i < x.size(); ++i) {
    double sum = 0.0;  // the fold-left order mean(rest) uses
    for (std::size_t j = 0; j < x.size(); ++j) {
      if (j != i) sum += x[j];
    }
    EXPECT_EQ(loo[i], sum / static_cast<double>(x.size() - 1)) << i;
  }
}

TEST(ResampleKernels, JackknifeLinearRegimeIsDeterministicAndAccurate) {
  const std::size_t n = stats::kernels::kJackknifeLinearThreshold;
  const auto x = normal_data(n, 32);
  std::vector<double> serial(n, 0.0);
  std::vector<double> parallel(n, 0.0);
  stats::kernels::jackknife_mean_loo(exec::ExecContext{1}, x, serial);
  stats::kernels::jackknife_mean_loo(exec::ExecContext{4}, x, parallel);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << i;  // thread-invariant bits
    double sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) sum += x[j];
    }
    // The prefix/suffix decomposition may differ from the fold in the
    // last ulps — that regime trades exact fold order for O(n).
    EXPECT_NEAR(serial[i], sum / static_cast<double>(n - 1), 1e-9) << i;
  }
}

// ------------------------------------------- scratch + metric accounting

TEST(ResampleKernels, ScratchReuseReachesSteadyState) {
  const auto x = normal_data(256, 41);
  const exec::ExecContext serial{1};  // inline: leases land on this thread
  rngx::Rng warm{50};
  (void)stats::percentile_bootstrap_ci(serial, x, warm, 200);
  const std::size_t idx_before = exec::scratch_allocations<std::uint32_t>();
  const std::size_t dbl_before = exec::scratch_allocations<double>();
  for (int round = 0; round < 3; ++round) {
    rngx::Rng rng{51};
    (void)stats::percentile_bootstrap_ci(serial, x, rng, 200);
  }
  EXPECT_EQ(exec::scratch_allocations<std::uint32_t>(), idx_before);
  EXPECT_EQ(exec::scratch_allocations<double>(), dbl_before);
}

TEST(ResampleKernels, StatsResamplesCountsEveryReplicate) {
  metrics::Sink sink;
  sink.enable(metrics::kStatsResamples);
  exec::ExecContext ctx{2};
  ctx.metrics = &sink;
  const auto a = normal_data(64, 42);
  const auto b = normal_data(64, 43);

  rngx::Rng rng{60};
  (void)stats::percentile_bootstrap_ci(ctx, a, rng, 257);
  auto snap = sink.snapshot();
  ASSERT_NE(snap.find(metrics::kStatsResamples), nullptr);
  EXPECT_EQ(snap.find(metrics::kStatsResamples)->count, 257u);

  sink.reset();
  (void)stats::permutation_test_mean_diff(ctx, a, b, rng, 123);
  snap = sink.snapshot();
  EXPECT_EQ(snap.find(metrics::kStatsResamples)->count, 123u);

  sink.reset();
  (void)stats::paired_permutation_test(ctx, a, b, rng, 77);
  snap = sink.snapshot();
  EXPECT_EQ(snap.find(metrics::kStatsResamples)->count, 77u);

  sink.reset();
  (void)stats::paired_percentile_bootstrap_ci(ctx, a, b, rng, 59);
  snap = sink.snapshot();
  EXPECT_EQ(snap.find(metrics::kStatsResamples)->count, 59u);

  // The rngx counters live in the global sink. The sign-flip lanes step
  // their streams outside an Rng and count them in bulk; the totals stay
  // those of one Rng per permutation making n draws, plus the one master
  // draw. The win-rate bootstrap still draws through one Rng per resample.
  metrics::Sink& global = metrics::global_sink();
  const auto totals = [&global](const auto& run) {
    global.disable_all();
    global.reset();
    global.enable(metrics::kRngxStreamsDerived);
    global.enable(metrics::kRngxDraws);
    run();
    const metrics::Snapshot counted = global.snapshot();
    const metrics::MetricSnapshot* streams =
        counted.find(metrics::kRngxStreamsDerived);
    const metrics::MetricSnapshot* draws = counted.find(metrics::kRngxDraws);
    global.disable_all();
    global.reset();
    return std::pair<std::uint64_t, std::uint64_t>{
        streams != nullptr ? streams->sum : 0,
        draws != nullptr ? draws->sum : 0};
  };
  // 77 permutations: two full AVX-512 blocks and a partial one, whose spare
  // lanes must not count.
  EXPECT_EQ(totals([&] {
              (void)stats::paired_permutation_test(ctx, a, b, rng, 77);
            }),
            (std::pair<std::uint64_t, std::uint64_t>{77, 1 + 77 * 64}));
  EXPECT_EQ(totals([&] {
              (void)stats::paired_percentile_bootstrap_ci(ctx, a, b, rng, 59);
            }),
            (std::pair<std::uint64_t, std::uint64_t>{59, 1 + 59 * 64}));
}

// ------------------------------------------------- sign-flip lane kernels

/// The scalar loop the lane kernels replaced: one bernoulli(0.5) draw per
/// difference from the permutation's own stream, in index order.
double scalar_signflip_sum(std::span<const double> d, std::uint64_t seed) {
  rngx::Rng rng{seed};
  double sum = 0.0;
  for (const double di : d) sum += rng.bernoulli(0.5) ? di : -di;
  return sum;
}

/// n differences: normal draws with zeros, ±0.0, subnormals and large
/// magnitudes mixed in; `nonfinite` adds ±inf and NaN.
std::vector<double> signflip_data(std::size_t n, bool nonfinite) {
  rngx::Rng rng{0x51F1ULL + n};
  std::vector<double> d(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (i % 9) {
      case 1: d[i] = 0.0; break;
      case 3: d[i] = -0.0; break;
      case 4:  // subnormal, either sign
        d[i] = (i % 2 == 0 ? 4.9e-324 : -4.9e-324) * static_cast<double>(i);
        break;
      case 5: d[i] = rng.normal(0.0, 1e12); break;
      case 7: d[i] = nonfinite ? (i % 4 == 3 ? -kInf : kInf) : 1e-300; break;
      case 8:
        d[i] = nonfinite && i % 3 == 2 ? kNaN : rng.normal(0.0, 0.1);
        break;
      default: d[i] = rng.normal(0.01, 0.1);
    }
  }
  return d;
}

/// `kernel` over `seeds` in blocks of kernel.block, the last one short.
std::vector<double> kernel_sums(const stats::detail::SignflipKernel& kernel,
                                std::span<const double> d,
                                std::span<const std::uint64_t> seeds) {
  std::vector<double> sums(seeds.size(), -1.0);
  for (std::size_t j = 0; j < seeds.size(); j += kernel.block) {
    const std::size_t live = std::min(kernel.block, seeds.size() - j);
    kernel.run({d, seeds.subspan(j, live),
                std::span<double>{sums}.subspan(j, live)});
  }
  return sums;
}

TEST(SignflipKernels, BaselineComesFirstAndIsAlwaysSupported) {
  const auto kernels = stats::detail::signflip_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(std::string{kernels.front().name}, "baseline");
  EXPECT_TRUE(kernels.front().supported());
  for (const auto& kernel : kernels) {
    EXPECT_LE(kernel.block, exec::kMaxReplicateBlock) << kernel.name;
    EXPECT_EQ(kernel.block % kernel.lanes, 0u) << kernel.name;
  }
}

TEST(SignflipKernels, DispatcherPicksTheHighestSupportedKernel) {
  const stats::detail::SignflipKernel* best = nullptr;
  for (const auto& kernel : stats::detail::signflip_kernels()) {
    if (kernel.supported()) best = &kernel;
  }
  EXPECT_EQ(&stats::detail::active_signflip_kernel(), best);
}

TEST(SignflipKernels, EveryKernelMatchesTheScalarLoop) {
  // Every sum bit-exact, NaN exactly where the loop's is: permutation
  // counts on both sides of one vector and one block, n from 1 to 17 and
  // one long column, with and without non-finite differences.
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 17; ++n) sizes.push_back(n);
  sizes.push_back(4099);
  for (const auto& kernel : stats::detail::signflip_kernels()) {
    if (!kernel.supported()) continue;
    const std::size_t l = kernel.lanes;
    const std::size_t block = kernel.block;
    for (const std::size_t count :
         {std::size_t{1}, l - 1, l, l + 1, block - 1, block, block + 1}) {
      if (count == 0) continue;
      std::vector<std::uint64_t> seeds(count);
      for (std::size_t j = 0; j < count; ++j) {
        seeds[j] = exec::replicate_seed(0xF11Bu + count, j);
      }
      for (const std::size_t n : sizes) {
        for (const bool nonfinite : {false, true}) {
          const std::vector<double> d = signflip_data(n, nonfinite);
          const std::vector<double> got = kernel_sums(kernel, d, seeds);
          for (std::size_t j = 0; j < count; ++j) {
            const double want = scalar_signflip_sum(d, seeds[j]);
            if (std::isnan(want)) {
              EXPECT_TRUE(std::isnan(got[j]))
                  << kernel.name << " count=" << count << " n=" << n
                  << " j=" << j;
            } else {
              EXPECT_EQ(std::bit_cast<std::uint64_t>(got[j]),
                        std::bit_cast<std::uint64_t>(want))
                  << kernel.name << " count=" << count << " n=" << n
                  << " j=" << j << ": " << got[j] << " vs " << want;
            }
          }
        }
      }
    }
  }
}

TEST(SignflipKernels, PairedPermutationTestMatchesTheScalarLoop) {
  // The public test against the per-permutation loop it replaced, kept
  // here: same streams, same flags, same p-value and the same one master
  // draw, for counts around the active kernel's block at 1 and 3 threads.
  const auto a = normal_data(300, 71, 1.0);
  const auto b = normal_data(300, 72, 1.0);
  std::vector<double> d(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) d[i] = a[i] - b[i];
  const double threshold = std::abs(stats::mean(d));
  const std::size_t block = stats::detail::active_signflip_kernel().block;
  for (const std::size_t threads : {1u, 3u}) {
    const exec::ExecContext ctx{threads};
    for (const std::size_t count :
         {std::size_t{1}, block - 1, block, block + 1, 3 * block + 5}) {
      rngx::Rng want_rng{900 + count};
      const auto extreme = exec::parallel_replicate_range<std::uint8_t>(
          ctx, exec::IndexRange{0, count}, want_rng.next_u64(),
          "paired_permutation",
          [&](std::size_t, rngx::Rng& r) -> std::uint8_t {
            double sum = 0.0;
            for (const double di : d) sum += r.bernoulli(0.5) ? di : -di;
            return std::abs(sum / static_cast<double>(d.size())) >= threshold;
          });
      std::size_t hits = 0;
      for (const std::uint8_t e : extreme) hits += e;
      const double want_p = static_cast<double>(1 + hits) /
                            static_cast<double>(1 + count);
      rngx::Rng got_rng{900 + count};
      const auto got =
          stats::paired_permutation_test(ctx, a, b, got_rng, count);
      EXPECT_EQ(got.p_value, want_p) << "threads=" << threads
                                     << " count=" << count;
      EXPECT_EQ(got_rng.next_u64(), want_rng.next_u64());
    }
  }
}

// ------------------------------------------ pinned comparison numbers

/// FNV-1a-64, fed value by value. A NaN is mixed as one canonical pattern:
/// the kernels pin where a NaN appears, not its payload.
class Fnv64 {
 public:
  void mix_bytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001B3ULL;
    }
  }
  void mix(double v) {
    const std::uint64_t bits = std::isnan(v) ? 0x7FF8000000000000ULL
                                             : std::bit_cast<std::uint64_t>(v);
    mix_bytes(&bits, sizeof bits);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// n pairs drawn with no effect (so p-values fall mid-range), with ties,
/// ±0.0 pairs, subnormal and large differences mixed in by index;
/// `nonfinite` adds ±inf and NaN pairs. The pattern is keyed on i + n, so
/// even n = 1 lands on some.
struct PinnedPairs {
  std::vector<double> a;
  std::vector<double> b;
};

PinnedPairs pinned_pairs(std::size_t n, bool nonfinite) {
  rngx::Rng rng{0x9A1BEDULL + n};
  PinnedPairs p;
  for (std::size_t i = 0; i < n; ++i) {
    double a = rng.normal(0.5, 0.2);
    double b = a - rng.normal(0.0, 0.1);
    switch ((i + n) % 13) {
      case 2: b = a; break;                     // tie
      case 4: a = 0.0; b = -0.0; break;         // +0 vs -0: a tie
      case 6: a = -0.0; b = 0.0; break;
      case 8: a = 4.9e-324; b = -1.5e-320; break;  // subnormal d
      case 10:  // a large d, so the order of a sum shows in its bits
        a = (nonfinite ? 1e308 : 2.5e7) * (i % 3 == 0 ? -1.0 : 1.0);
        b = -a;  // non-finite: d overflows to ±inf
        break;
      case 11:
        if (nonfinite) a = (i % 2 == 0) ? kInf : -kInf;
        break;
      case 12:
        if (nonfinite) b = kNaN;
        break;
      default: break;
    }
    p.a.push_back(a);
    p.b.push_back(b);
  }
  return p;
}

constexpr std::size_t kPinnedSizes[] = {1, 2, 3, 7, 8, 9, 33, 1000, 4099};
constexpr std::size_t kPinnedCounts[] = {1, 7, 8, 9, 31, 33, 200};

// The numbers behind every comparison a report prints — the paired sign-
// flip p-value, the P(A>B) bootstrap win rates and a two-group report —
// digested and pinned. The digests were recorded on the implementation
// before the lane-parallel sign-flip and byte-coded win-rate kernels, so a
// kernel that moves any p-value, win rate or report byte fails here.
TEST(ResampleKernels, ComparisonOutputsArePinned) {
  const exec::ExecContext ctx{3};
  Fnv64 perm_finite;
  Fnv64 perm_nonfinite;
  Fnv64 win_finite;
  Fnv64 win_nonfinite;
  for (const bool nonfinite : {false, true}) {
    Fnv64& perm = nonfinite ? perm_nonfinite : perm_finite;
    Fnv64& win = nonfinite ? win_nonfinite : win_finite;
    for (const std::size_t n : kPinnedSizes) {
      const PinnedPairs p = pinned_pairs(n, nonfinite);
      for (const std::size_t count : kPinnedCounts) {
        rngx::Rng rng{1000 * n + count};
        const stats::TestResult t =
            stats::paired_permutation_test(ctx, p.a, p.b, rng, count);
        perm.mix(t.statistic);
        perm.mix(t.p_value);
        for (const double w : stats::kernels::resample_win_rate_statistics(
                 ctx, p.a, p.b, rng, count)) {
          win.mix(w);
        }
      }
    }
  }

  // A two-group paired table as the analysis workload writes it: rows
  // alternate baseline and candidate, paired by rep.
  study::ResultTable t;
  t.name = "pinned:paired";
  t.seed = 3;
  t.columns = {"seq", "algo", "rep", "accuracy", "loss"};
  rngx::Rng rng{77};
  for (std::size_t rep = 0; rep < 300; ++rep) {
    const double base = rng.normal(0.80, 0.03);
    const double cand = rep % 9 == 0 ? base : base + rng.normal(0.002, 0.02);
    const double loss[2] = {rng.normal(0.4, 0.05), rng.normal(0.4, 0.05)};
    for (std::size_t g = 0; g < 2; ++g) {
      t.add_row({study::Cell{std::uint64_t{2 * rep + g}},
                 study::Cell{std::string{g == 0 ? "baseline" : "candidate"}},
                 study::Cell{std::uint64_t{rep}},
                 study::Cell{g == 0 ? base : cand},
                 study::Cell{loss[g]}});
    }
  }
  report::ReportSpec spec;
  spec.group_by = "algo";
  spec.resamples = 200;
  spec.permutations = 300;
  const std::string json = report::render(
      report::summarize(ctx, report::LoadedArtifact{"<memory>", t}, spec),
      report::Format::kJson);
  Fnv64 rendered;
  rendered.mix_bytes(json.data(), json.size());

  const struct {
    const char* name;
    std::uint64_t got;
    std::uint64_t want;
  } pins[] = {
      {"paired_permutation_test, finite", perm_finite.value(),
       0x46095060a2cfd3ceULL},
      {"paired_permutation_test, non-finite", perm_nonfinite.value(),
       0x388facd744ab1f66ULL},
      {"resample_win_rate_statistics, finite", win_finite.value(),
       0x76e9914621e89ee6ULL},
      {"resample_win_rate_statistics, non-finite", win_nonfinite.value(),
       0x6a2065598bd5bd75ULL},
      {"two-group paired report (JSON)", rendered.value(),
       0xeb371fbc49c82e9eULL},
  };
  for (const auto& pin : pins) {
    EXPECT_EQ(pin.got, pin.want) << pin.name << ": got 0x" << std::hex
                                 << pin.got;
  }
}

// ------------------------------------------------- streaming VBT writer

class TempDir {
 public:
  TempDir() {
    dir_ = fs::temp_directory_path() /
           ("varbench_stream_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + std::to_string(counter_++));
    fs::create_directories(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  static inline int counter_ = 0;
  fs::path dir_;
};

/// Rows covering every encoding the writer elects: f64, i64 (negatives),
/// u64 (above INT64_MAX), string-dict, and mixed (nulls, bools, several
/// number kinds, strings).
study::ResultTable all_types_table(std::size_t rows) {
  study::ResultTable t;
  t.name = "stream:all_types";
  t.seed = 77;
  t.wall_time_ms = 12.5;
  t.columns = {"seq", "measure", "delta", "big", "label", "mixed"};
  for (std::size_t i = 0; i < rows; ++i) {
    study::Cell mixed;
    switch (i % 5) {
      case 0: mixed = study::Cell{}; break;
      case 1: mixed = study::Cell{i % 2 == 0}; break;
      case 2: mixed = study::Cell{0.25 * static_cast<double>(i)}; break;
      case 3: mixed = study::Cell{std::int64_t{-9} - std::int64_t(i)}; break;
      default:
        mixed = study::Cell{std::string{"mix-"} + std::to_string(i % 7)};
    }
    t.add_row({study::Cell{std::uint64_t{i}},
               study::Cell{0.5 + 0.125 * static_cast<double>(i)},
               study::Cell{std::int64_t{-3} * std::int64_t(i)},
               study::Cell{(std::uint64_t{1} << 63) + i},
               study::Cell{std::string{i % 3 == 0 ? "fizz" : "buzz"}},
               std::move(mixed)});
  }
  return t;
}

// ------------------------------------------------------ streaming merge

/// Slice `full` into `count` seq-striped shards (row i goes to shard
/// i % count), each seq-sorted — the shape study runners emit.
std::vector<study::ResultTable> stripe_shards(const study::ResultTable& full,
                                              std::size_t count) {
  std::vector<study::ResultTable> shards(count);
  for (std::size_t s = 0; s < count; ++s) {
    shards[s].name = full.name;
    shards[s].seed = full.seed;
    shards[s].columns = full.columns;
    shards[s].shard = study::ShardSpec{s, count};
    shards[s].wall_time_ms = 1.5 * static_cast<double>(s + 1);
    shards[s].threads = s + 1;
  }
  for (std::size_t i = 0; i < full.rows.size(); ++i) {
    shards[i % count].add_row(full.rows[i].to_row());
  }
  return shards;
}

TEST(StreamMerge, ByteIdenticalToInMemoryMergePlusEncode) {
  const TempDir tmp;
  const auto full = all_types_table(29);
  auto shards = stripe_shards(full, 3);
  std::vector<std::string> paths;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    paths.push_back(tmp.path("shard" + std::to_string(s) + ".vbt"));
    io::columnar::write_vbt(paths.back(), shards[s]);
  }
  const auto merged = study::merge_result_tables(std::move(shards));
  for (const bool provenance : {false, true}) {
    const std::string out =
        tmp.path(provenance ? "merged_p.vbt" : "merged_c.vbt");
    io::columnar::stream_merge_vbt(paths, out, provenance);
    EXPECT_EQ(io::read_file(out), io::columnar::encode_vbt(merged, provenance))
        << "provenance " << provenance;
  }
}

TEST(StreamMerge, UnsortedShardMergesToTheSortedShardsBytes) {
  const TempDir tmp;
  const auto full = all_types_table(12);
  auto shards = stripe_shards(full, 2);
  const std::string sorted = io::columnar::encode_vbt(
      study::merge_result_tables(stripe_shards(full, 2)),
      /*include_provenance=*/false);
  // Reverse one shard's rows: seq now descends within it.
  study::ResultTable reversed;
  reversed.name = full.name;
  reversed.seed = full.seed;
  reversed.columns = full.columns;
  reversed.shard = shards[1].shard;
  reversed.threads = shards[1].threads;
  reversed.wall_time_ms = shards[1].wall_time_ms;
  for (std::size_t r = shards[1].rows.size(); r-- > 0;) {
    reversed.add_row(shards[1].rows[r].to_row());
  }
  shards[1] = std::move(reversed);
  std::vector<std::string> paths;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    paths.push_back(tmp.path("u" + std::to_string(s) + ".vbt"));
    io::columnar::write_vbt(paths.back(), shards[s]);
  }
  const auto merged = study::merge_result_tables(std::move(shards));
  EXPECT_EQ(io::columnar::encode_vbt(merged, /*include_provenance=*/false),
            sorted);
  const std::string out = tmp.path("merged_u.vbt");
  io::columnar::stream_merge_vbt(paths, out, /*include_provenance=*/false);
  EXPECT_EQ(io::read_file(out), sorted);
}

TEST(StreamMerge, RejectsIncompleteShardSets) {
  const TempDir tmp;
  const auto full = all_types_table(8);
  auto shards = stripe_shards(full, 2);
  const std::string p0 = tmp.path("only0.vbt");
  io::columnar::write_vbt(p0, shards[0]);
  try {
    io::columnar::stream_merge_vbt({p0}, tmp.path("nope.vbt"));
    FAIL() << "incomplete shard set must throw";
  } catch (const io::JsonError& e) {
    EXPECT_NE(std::string{e.what()}.find("merge: got 1 tables"),
              std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(fs::exists(tmp.path("nope.vbt")));
}

}  // namespace
}  // namespace varbench
