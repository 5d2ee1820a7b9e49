// Resampling-kernel headline benchmark: 1000-resample BCa confidence
// interval of the mean over a 10^6-element column — the workload the
// fused index kernels (src/stats/resample_kernels.h) were built for.
//
// Two numbers are produced:
//
//   stats.bca_1e6x1000_kernel       measured end-to-end: the enum-path
//                                   bca_bootstrap_ci (fused gathers, O(n)
//                                   jackknife, reused scratch)
//   stats.bca_1e6x1000_legacy_est   the pre-kernel path, measured where
//                                   feasible and EXTRAPOLATED where not:
//                                   the resample phase (one materialized
//                                   vector + fold per replicate) runs in
//                                   full, but the legacy O(n^2) jackknife
//                                   (one n-1 copy + fold per index — 10^12
//                                   element touches at this n) is measured
//                                   on `VARBENCH_JACK_SAMPLE` indices and
//                                   scaled linearly to n. The printed row
//                                   says "extrapolated" so nobody mistakes
//                                   it for a full measurement.
//
// The acceptance bar for the kernel rewrite is >= 3x on this workload;
// in practice the legacy jackknife alone puts the ratio in the hundreds.
//
// Knobs:
//   VARBENCH_N            column length (default 1000000)
//   VARBENCH_RESAMPLES    bootstrap resamples (default 1000)
//   VARBENCH_REPS         timed repetitions, min reported (default 2 —
//                         each kernel rep is ~1s; raise for quieter mins)
//   VARBENCH_JACK_SAMPLE  legacy jackknife indices actually measured
//                         before extrapolating (default 2048)
//   VARBENCH_THREADS      fan-out width (default 0 = all cores; both
//                         paths parallelize identically)
//
// Prints a human summary plus ready-to-paste trajectory rows for
// bench/BENCH_stats.json (the `varbench bench` gate maintains the
// gate-scale stats.bca_ci_mean_* pair automatically; these 10^6 rows are
// recorded manually, like bench/BENCH_artifact_io.json).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/exec/exec_context.h"
#include "src/exec/parallel_for.h"
#include "src/exec/parallel_replicate.h"
#include "src/metrics/clock.h"
#include "src/rngx/rng.h"
#include "src/stats/bootstrap.h"
#include "src/stats/descriptive.h"
#include "src/version.h"

namespace {

using namespace varbench;

/// Min wall-clock ns over `reps` runs of `fn()`.
template <typename Fn>
std::uint64_t min_ns_of(std::size_t reps, Fn&& fn) {
  std::uint64_t best = 0;
  for (std::size_t i = 0; i < reps; ++i) {
    const metrics::Stopwatch sw;
    fn();
    const std::uint64_t ns = sw.elapsed_ns();
    if (i == 0 || ns < best) best = ns;
  }
  return best;
}

void print_row(const char* bench, const char* unit, std::uint64_t min_ns,
               std::size_t reps) {
  std::printf("    {\n"
              "      \"bench\": \"%s\",\n"
              "      \"unit\": \"%s\",\n"
              "      \"min_ns\": %llu,\n"
              "      \"repeats\": %zu,\n"
              "      \"version\": \"%s\",\n"
              "      \"label\": \"manual\"\n"
              "    }\n",
              bench, unit, static_cast<unsigned long long>(min_ns), reps,
              std::string{kVersion}.c_str());
}

}  // namespace

int main() {
  const std::size_t n = benchutil::env_size("VARBENCH_N", 1'000'000);
  const std::size_t resamples =
      benchutil::env_size("VARBENCH_RESAMPLES", 1'000);
  const std::size_t reps = benchutil::env_size("VARBENCH_REPS", 2);
  const std::size_t jack_sample =
      std::min(n, benchutil::env_size("VARBENCH_JACK_SAMPLE", 2'048));
  const exec::ExecContext ctx{benchutil::env_size("VARBENCH_THREADS", 0)};

  std::printf("stats resample kernels — BCa(mean), n=%zu, resamples=%zu, "
              "threads=%zu (0=all), min of %zu\n",
              n, resamples, ctx.num_threads, reps);

  rngx::Rng data_rng{0xB00757A9};
  std::vector<double> x(n);
  for (double& v : x) v = data_rng.normal(1.0, 0.25);

  // ---- kernel path, measured end-to-end (warmup leases the scratch) ----
  double sink_value = 0.0;
  {
    rngx::Rng rng{1};
    sink_value += stats::bca_bootstrap_ci(ctx, x, stats::ResampleStat::kMean,
                                          rng, resamples)
                      .lower;
  }
  const std::uint64_t kernel_ns = min_ns_of(reps, [&] {
    rngx::Rng rng{1};
    const auto ci = stats::bca_bootstrap_ci(ctx, x,
                                            stats::ResampleStat::kMean, rng,
                                            resamples);
    sink_value += ci.lower + ci.upper;
  });

  // ---- legacy resample phase, measured in full ----
  const std::uint64_t legacy_resample_ns = min_ns_of(reps, [&] {
    rngx::Rng rng{1};
    const auto stats_vec = exec::parallel_replicate<double>(
        ctx, resamples, rng, "bootstrap", [&](std::uint64_t, rngx::Rng& r) {
          std::vector<double> resample(x.size());
          for (double& v : resample) v = x[r.uniform_index(x.size())];
          return stats::mean(resample);
        });
    sink_value += stats_vec.front();
  });

  // ---- legacy jackknife, measured on jack_sample indices ----
  std::vector<double> loo(jack_sample, 0.0);
  const std::uint64_t jack_sample_ns = min_ns_of(reps, [&] {
    exec::parallel_for(ctx, 0, jack_sample, [&](std::size_t i) {
      std::vector<double> rest(n - 1);
      for (std::size_t j = 0; j < i; ++j) rest[j] = x[j];
      for (std::size_t j = i + 1; j < n; ++j) rest[j - 1] = x[j];
      loo[i] = stats::mean(rest);
    });
    sink_value += loo.front();
  });
  const double jack_full_est_ns = static_cast<double>(jack_sample_ns) *
                                  (static_cast<double>(n) /
                                   static_cast<double>(jack_sample));
  const double legacy_est_ns =
      static_cast<double>(legacy_resample_ns) + jack_full_est_ns;

  const double speedup = legacy_est_ns / static_cast<double>(kernel_ns);
  std::printf("\n  kernel BCa (measured):            %12.3f ms\n",
              static_cast<double>(kernel_ns) / 1e6);
  std::printf("  legacy resample phase (measured): %12.3f ms\n",
              static_cast<double>(legacy_resample_ns) / 1e6);
  std::printf("  legacy jackknife (extrapolated):  %12.3f ms  "
              "(measured %zu of %zu indices)\n",
              jack_full_est_ns / 1e6, jack_sample, n);
  std::printf("  legacy total (extrapolated):      %12.3f ms\n",
              legacy_est_ns / 1e6);
  std::printf("  speedup vs pre-kernel path:       %12.1fx  (bar: >= 3x)\n",
              speedup);
  if (sink_value == 0.123456789) std::printf("improbable checksum\n");

  std::printf("\ntrajectory rows (paste into bench/BENCH_stats.json):\n");
  print_row("stats.bca_1e6x1000_kernel", "ns", kernel_ns, reps);
  print_row("stats.bca_1e6x1000_legacy_extrapolated", "ns",
            static_cast<std::uint64_t>(legacy_est_ns), reps);
  return speedup >= 3.0 ? 0 : 1;
}
