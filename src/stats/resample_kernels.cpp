#include "src/stats/resample_kernels.h"

#include <limits>

#include "src/exec/parallel_for.h"
#include "src/exec/parallel_replicate.h"
#include "src/exec/scratch.h"
#include "src/metrics/metrics.h"

namespace varbench::stats::kernels {

namespace {

/// Pools fit u32 indices in every realistic table; the u64 fallback keeps
/// the kernels correct for columns beyond 2^32-1 elements.
[[nodiscard]] bool fits_u32(std::size_t pool) {
  return pool <= std::numeric_limits<std::uint32_t>::max();
}

}  // namespace

void jackknife_mean_loo(const exec::ExecContext& ctx,
                        std::span<const double> x, std::span<double> loo) {
  const std::size_t n = x.size();
  if (n < 2) return;  // accel is 0 for degenerate samples; caller's guard
  if (n < kJackknifeLinearThreshold) {
    // Exact regime: fold-left sum skipping element i — the same
    // association as summing the copied leave-one-out sample.
    exec::parallel_for(ctx, 0, n, [&](std::size_t i) {
      double sum = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        if (j != i) sum += x[j];
      }
      loo[i] = sum / static_cast<double>(n - 1);
    });
    return;
  }
  // Linear regime: loo[i] = (prefix[i] + suffix[i+1]) / (n-1). The two
  // passes are serial folds, so the result is independent of thread count.
  exec::ScratchBuffer<double> prefix_buf{n + 1};
  exec::ScratchBuffer<double> suffix_buf{n + 1};
  const std::span<double> prefix = prefix_buf.span();
  const std::span<double> suffix = suffix_buf.span();
  prefix[0] = 0.0;
  for (std::size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + x[i];
  suffix[n] = 0.0;
  for (std::size_t i = n; i > 0; --i) suffix[i - 1] = x[i - 1] + suffix[i];
  exec::parallel_for(ctx, 0, n, [&](std::size_t i) {
    loo[i] = (prefix[i] + suffix[i + 1]) / static_cast<double>(n - 1);
  });
}

std::vector<double> resample_mean_statistics(const exec::ExecContext& ctx,
                                             std::span<const double> x,
                                             rngx::Rng& rng,
                                             std::size_t num_resamples) {
  metrics::Sink& sink = ctx.sink();
  const std::size_t n = x.size();
  if (fits_u32(n)) {
    return exec::parallel_replicate_range<double>(
        ctx, exec::IndexRange{0, num_resamples}, rng.next_u64(), "bootstrap",
        [&](std::size_t, rngx::Rng& resample_rng) {
          sink.add(metrics::kStatsResamples);
          exec::ScratchBuffer<std::uint32_t> idx{n};
          fill_bootstrap_indices(resample_rng, n, idx.span());
          return gather_mean(x, std::span<const std::uint32_t>{idx.span()});
        });
  }
  return exec::parallel_replicate_range<double>(
      ctx, exec::IndexRange{0, num_resamples}, rng.next_u64(), "bootstrap",
      [&](std::size_t, rngx::Rng& resample_rng) {
        sink.add(metrics::kStatsResamples);
        exec::ScratchBuffer<std::uint64_t> idx{n};
        fill_bootstrap_indices(resample_rng, n, idx.span());
        return gather_mean(x, std::span<const std::uint64_t>{idx.span()});
      });
}

std::vector<double> resample_win_rate_statistics(const exec::ExecContext& ctx,
                                                 std::span<const double> a,
                                                 std::span<const double> b,
                                                 rngx::Rng& rng,
                                                 std::size_t num_resamples) {
  metrics::Sink& sink = ctx.sink();
  const std::size_t n = a.size();
  exec::ScratchBuffer<std::uint8_t> half_wins_buf{n};
  const std::span<std::uint8_t> half_wins = half_wins_buf.span();
  for (std::size_t i = 0; i < n; ++i) {
    half_wins[i] = static_cast<std::uint8_t>(2 * static_cast<int>(a[i] > b[i]) +
                                             static_cast<int>(a[i] == b[i]));
  }
  return exec::parallel_replicate_range<double>(
      ctx, exec::IndexRange{0, num_resamples}, rng.next_u64(),
      "paired_bootstrap",
      [&](std::size_t, rngx::Rng& resample_rng) {
        sink.add(metrics::kStatsResamples);
        std::uint64_t count = 0;
        for_each_bootstrap_index(resample_rng, n, n, [&](std::uint64_t i) {
          count += half_wins[i];
        });
        return (static_cast<double>(count) * 0.5) / static_cast<double>(n);
      });
}

}  // namespace varbench::stats::kernels
