// The fused resampling-kernel contract (src/stats/resample_kernels.h) and
// the streaming VBT writer (src/io/columnar/stream_writer.h):
//   - the ResampleStat/PairedResampleStat fast paths are bit-identical to
//     the std::function overloads evaluating the equivalent statistic;
//   - every rewired statistic is bit-identical at any thread count;
//   - the kernels are allocation-free in steady state (scratch reuse) and
//     account every replicate to stats.resamples;
//   - stream_merge_vbt (load + merge + encode) writes the exact bytes of
//     encode_vbt over merge_result_tables, for sorted and unsorted shards
//     and every cell encoding.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "src/exec/scratch.h"
#include "src/io/columnar/stream_writer.h"
#include "src/io/columnar/vbt.h"
#include "src/io/json.h"
#include "src/metrics/metrics.h"
#include "src/stats/bootstrap.h"
#include "src/stats/descriptive.h"
#include "src/stats/prob_outperform.h"
#include "src/stats/resample_kernels.h"
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

// -------------------------------------------- enum path == generic path

TEST(ResampleKernels, PercentileEnumMatchesGenericBitwise) {
  const auto x = normal_data(200, 11);
  rngx::Rng rng_enum{42};
  rngx::Rng rng_gen{42};
  const exec::ExecContext ctx{4};
  const auto via_enum = stats::percentile_bootstrap_ci(
      ctx, x, stats::ResampleStat::kMean, rng_enum, 500);
  const auto via_gen = stats::percentile_bootstrap_ci(
      ctx, x, [](std::span<const double> s) { return stats::mean(s); },
      rng_gen, 500);
  EXPECT_EQ(via_enum, via_gen);  // exact double equality via operator==
  // Both consumed exactly one master draw, so the streams stay in step.
  EXPECT_EQ(rng_enum.next_u64(), rng_gen.next_u64());
}

TEST(ResampleKernels, BcaEnumMatchesGenericBitwise) {
  // n far below kJackknifeLinearThreshold: the exact O(n^2) jackknife
  // regime, where the enum path promises bit-identity.
  const auto x = normal_data(150, 12);
  rngx::Rng rng_enum{43};
  rngx::Rng rng_gen{43};
  const exec::ExecContext ctx{4};
  const auto via_enum = stats::bca_bootstrap_ci(
      ctx, x, stats::ResampleStat::kMean, rng_enum, 400);
  const auto via_gen = stats::bca_bootstrap_ci(
      ctx, x, [](std::span<const double> s) { return stats::mean(s); },
      rng_gen, 400);
  EXPECT_EQ(via_enum, via_gen);
  EXPECT_EQ(rng_enum.next_u64(), rng_gen.next_u64());
}

TEST(ResampleKernels, PairedEnumMatchesGenericBitwise) {
  const auto a = normal_data(120, 13, 1.1);
  const auto b = normal_data(120, 14, 1.0);
  rngx::Rng rng_enum{44};
  rngx::Rng rng_gen{44};
  const exec::ExecContext ctx{4};
  const auto via_enum = stats::paired_percentile_bootstrap_ci(
      ctx, a, b, stats::PairedResampleStat::kWinRate, rng_enum, 300);
  const auto via_gen = stats::paired_percentile_bootstrap_ci(
      ctx, a, b,
      [](std::span<const double> ra, std::span<const double> rb) {
        return stats::probability_of_outperforming(ra, rb);
      },
      rng_gen, 300);
  EXPECT_EQ(via_enum, via_gen);
  EXPECT_EQ(rng_enum.next_u64(), rng_gen.next_u64());
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
    EXPECT_EQ(stats::percentile_bootstrap_ci(serial, a,
                                             stats::ResampleStat::kMean, r1,
                                             400),
              stats::percentile_bootstrap_ci(parallel, a,
                                             stats::ResampleStat::kMean, r2,
                                             400));
  }
  {
    rngx::Rng r1{2}, r2{2};
    EXPECT_EQ(
        stats::bca_bootstrap_ci(serial, a, stats::ResampleStat::kMean, r1,
                                400),
        stats::bca_bootstrap_ci(parallel, a, stats::ResampleStat::kMean, r2,
                                400));
  }
  {
    rngx::Rng r1{3}, r2{3};
    EXPECT_EQ(stats::paired_percentile_bootstrap_ci(
                  serial, a, b, stats::PairedResampleStat::kWinRate, r1, 400),
              stats::paired_percentile_bootstrap_ci(
                  parallel, a, b, stats::PairedResampleStat::kWinRate, r2,
                  400));
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
  (void)stats::percentile_bootstrap_ci(serial, x, stats::ResampleStat::kMean,
                                       warm, 200);
  const std::size_t idx_before = exec::scratch_allocations<std::uint32_t>();
  const std::size_t dbl_before = exec::scratch_allocations<double>();
  for (int round = 0; round < 3; ++round) {
    rngx::Rng rng{51};
    (void)stats::percentile_bootstrap_ci(serial, x,
                                         stats::ResampleStat::kMean, rng, 200);
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
  (void)stats::percentile_bootstrap_ci(ctx, a, stats::ResampleStat::kMean,
                                       rng, 257);
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
