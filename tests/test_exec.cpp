#include "src/exec/exec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <latch>
#include <stdexcept>
#include <vector>

#include "src/stats/bootstrap.h"

namespace varbench::exec {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool{3};
  EXPECT_EQ(pool.num_workers(), 3u);
  std::atomic<int> count{0};
  std::latch done{8};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&] {
      count.fetch_add(1);
      done.count_down();
    });
  }
  done.wait();
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, EnsureWorkersGrowsButNeverShrinks) {
  ThreadPool pool{1};
  pool.ensure_workers(4);
  EXPECT_EQ(pool.num_workers(), 4u);
  pool.ensure_workers(2);
  EXPECT_EQ(pool.num_workers(), 4u);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    std::vector<std::atomic<int>> visits(257);
    for (auto& v : visits) v.store(0);
    parallel_for(ExecContext{threads}, 0, visits.size(),
                 [&](std::size_t i) { visits[i].fetch_add(1); });
    for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
  }
}

TEST(ParallelFor, EmptyAndReversedRangesAreNoOps) {
  int calls = 0;
  parallel_for(ExecContext{4}, 5, 5, [&](std::size_t) { ++calls; });
  parallel_for(ExecContext{4}, 7, 3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, HonorsExplicitGrain) {
  std::atomic<int> count{0};
  parallel_for(
      ExecContext{4}, 0, 100, [&](std::size_t) { count.fetch_add(1); },
      /*grain=*/7);
  EXPECT_EQ(count.load(), 100);
}

TEST(ParallelFor, NestedRegionsRunInlineWithoutDeadlock) {
  // A nested non-serial region must not wait on pool workers that are all
  // busy with the outer region — it runs inline on the current thread.
  std::atomic<int> inner_total{0};
  parallel_for(ExecContext{4}, 0, 8, [&](std::size_t) {
    parallel_for(ExecContext{4}, 0, 16,
                 [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 8 * 16);
  // After the outer region, top-level calls parallelize again (flag reset).
  std::atomic<int> top_level{0};
  parallel_for(ExecContext{4}, 0, 32,
               [&](std::size_t) { top_level.fetch_add(1); });
  EXPECT_EQ(top_level.load(), 32);
}

TEST(ParallelFor, PropagatesFirstException) {
  for (const std::size_t threads : {1u, 4u}) {
    EXPECT_THROW(
        parallel_for(ExecContext{threads}, 0, 64,
                     [&](std::size_t i) {
                       if (i == 13) throw std::runtime_error("boom");
                     }),
        std::runtime_error);
  }
}

TEST(ExecContext, SerialAndResolution) {
  EXPECT_TRUE(ExecContext::serial().is_serial());
  EXPECT_EQ(ExecContext{5}.resolved_threads(), 5u);
  // 0 = hardware concurrency, which is always at least one thread.
  EXPECT_GE(ExecContext{0}.resolved_threads(), 1u);
}

TEST(ReplicateSeed, DeterministicAndDistinctPerIndex) {
  EXPECT_EQ(replicate_seed(42, 7), replicate_seed(42, 7));
  std::vector<std::uint64_t> seeds(1000);
  for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i] = replicate_seed(9, i);
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

TEST(ParallelReplicate, BitIdenticalAcrossThreadCounts) {
  auto run = [](std::size_t threads) {
    return parallel_replicate_range<double>(
        ExecContext{threads}, IndexRange{0, 100}, /*master_seed=*/123,
        "replicate_test",
        [](std::size_t i, rngx::Rng& rng) {
          return rng.normal() + static_cast<double>(i) * rng.uniform();
        });
  };
  const auto serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

// A library caller with a parent Rng draws its master seed once, whatever
// the replicate count and the thread count.
TEST(ParallelReplicate, MasterAdvancesOneDrawRegardlessOfThreads) {
  const std::vector<double> x{1.0, 4.0, 2.0, 8.0, 5.0};
  rngx::Rng m1{77};
  rngx::Rng m2{77};
  (void)stats::percentile_bootstrap_ci(ExecContext{1}, x, m1, 10);
  (void)stats::percentile_bootstrap_ci(ExecContext{8}, x, m2, 1000);
  rngx::Rng one_draw{77};
  (void)one_draw.next_u64();
  const std::uint64_t next = one_draw.next_u64();
  EXPECT_EQ(m1.next_u64(), next);
  EXPECT_EQ(m2.next_u64(), next);
}

TEST(ParallelReplicate, DistinctTagsGiveDistinctStreams) {
  const auto a = parallel_replicate_range<double>(
      ExecContext{2}, IndexRange{0, 50}, /*master_seed=*/5, "stream_a",
      [](std::size_t, rngx::Rng& r) { return r.uniform(); });
  const auto b = parallel_replicate_range<double>(
      ExecContext{2}, IndexRange{0, 50}, /*master_seed=*/5, "stream_b",
      [](std::size_t, rngx::Rng& r) { return r.uniform(); });
  EXPECT_NE(a, b);
}

// The Rng::split contract the whole engine rests on: same tag → identical
// stream, distinct tags → statistically independent streams.
TEST(RngSplit, SameTagSameStream) {
  rngx::Rng p1{11};
  rngx::Rng p2{11};
  auto c1 = p1.split("worker");
  auto c2 = p2.split("worker");
  for (int i = 0; i < 32; ++i) EXPECT_EQ(c1.next_u64(), c2.next_u64());
}

TEST(RngSplit, DistinctTagsIndependentStreams) {
  rngx::Rng parent{12};
  auto a = parent.split("alpha");
  auto b = parent.split("beta");
  // Empirical correlation of 4096 paired uniforms should be ~N(0, 1/64).
  const int n = 4096;
  double sum_ab = 0.0;
  double sum_a = 0.0;
  double sum_b = 0.0;
  for (int i = 0; i < n; ++i) {
    const double ua = a.uniform();
    const double ub = b.uniform();
    sum_ab += ua * ub;
    sum_a += ua;
    sum_b += ub;
  }
  const double corr =
      (sum_ab / n - (sum_a / n) * (sum_b / n)) / (1.0 / 12.0);
  EXPECT_LT(std::abs(corr), 0.1);
}

// ------------------------------------------------------------ ReplicatePlan

/// Two uniforms and the index: a result whose bits name its stream.
struct Pair {
  double a = 0.0;
  double b = 0.0;
  std::size_t index = 0;
  friend bool operator==(const Pair&, const Pair&) = default;
};

TEST(ReplicatePlan, MatchesSeparateRanges) {
  const auto uniform = [](std::size_t i, rngx::Rng& r) {
    return r.uniform() + static_cast<double>(i);
  };
  const auto pair = [](std::size_t i, rngx::Rng& r) {
    return Pair{r.uniform(), r.normal(), i};
  };
  const auto draws = [](std::size_t, rngx::Rng& r) {
    return std::vector<std::uint64_t>{r.next_u64(), r.next_u64()};
  };
  const IndexRange slice = shard_subrange(30, 1, 3);  // {10, 20}
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const ExecContext ctx{threads};
    const auto s0 = parallel_replicate_range<double>(ctx, IndexRange{0, 0},
                                                     41, "empty", uniform);
    const auto s1 = parallel_replicate_range<Pair>(ctx, IndexRange{0, 1}, 42,
                                                   "one", pair);
    const auto s2 = parallel_replicate_range<std::vector<std::uint64_t>>(
        ctx, IndexRange{0, 5}, 43, "five", draws);
    const auto s3 = parallel_replicate_range<double>(ctx, IndexRange{0, 30},
                                                     91, "thirty", uniform);
    const auto s4 =
        parallel_replicate_range<Pair>(ctx, slice, 44, "slice", pair);

    ReplicatePlan plan;
    const auto& p0 = plan.add<double>(IndexRange{0, 0}, 41, "empty", uniform);
    const auto& p1 = plan.add<Pair>(IndexRange{0, 1}, 42, "one", pair);
    const auto& p2 = plan.add<std::vector<std::uint64_t>>(IndexRange{0, 5}, 43,
                                                          "five", draws);
    const auto& p3 = plan.add<double>(IndexRange{0, 30}, 91, "thirty", uniform);
    const auto& p4 = plan.add<Pair>(slice, 44, "slice", pair);
    plan.run(ctx);

    EXPECT_EQ(p0, s0) << threads;
    EXPECT_EQ(p1, s1) << threads;
    EXPECT_EQ(p2, s2) << threads;
    EXPECT_EQ(p3, s3) << threads;
    EXPECT_EQ(p4, s4) << threads;
    ASSERT_EQ(p4.size(), slice.size());
    EXPECT_EQ(p4.front().index, slice.begin);
  }
}

/// The exec.chunks / exec.chunk_size / exec.parallel_regions cells that
/// `work` records on a fresh sink.
template <typename Work>
std::vector<metrics::MetricSnapshot> chunk_cells(Work&& work) {
  metrics::Sink sink;
  sink.enable(metrics::kExecRegions);
  sink.enable(metrics::kExecChunks);
  sink.enable(metrics::kExecChunkSize);
  work(sink);
  return sink.snapshot().metrics;
}

bool same_cells(const std::vector<metrics::MetricSnapshot>& a,
                const std::vector<metrics::MetricSnapshot>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].count != b[i].count ||
        a[i].sum != b[i].sum || a[i].bins != b[i].bins) {
      return false;
    }
  }
  return true;
}

TEST(ReplicatePlan, CutsEachRangeLikeParallelFor) {
  const auto value = [](std::size_t i, rngx::Rng&) {
    return static_cast<double>(i);
  };
  for (const std::size_t threads : {1u, 2u, 4u}) {
    for (const std::size_t n : {1u, 3u, 37u, 100u, 1000u}) {
      const auto by_plan = chunk_cells([&](metrics::Sink& sink) {
        ExecContext ctx{threads};
        ctx.metrics = &sink;
        (void)parallel_replicate_range<double>(ctx, IndexRange{0, n}, 7, "t",
                                               value);
      });
      const auto by_loop = chunk_cells([&](metrics::Sink& sink) {
        ExecContext ctx{threads};
        ctx.metrics = &sink;
        parallel_for(ctx, 0, n, [](std::size_t) {});
      });
      EXPECT_TRUE(same_cells(by_plan, by_loop)) << threads << " " << n;
    }
  }
  // Two ranges in one region are cut as each is cut alone: 100 indices at
  // grain 6 and 37 at grain 2 on 2 threads, never a chunk across the seam
  // (cutting the 137 concatenated indices would give 18 chunks of 8 and 1).
  const auto two_ranges = chunk_cells([&](metrics::Sink& sink) {
    ExecContext ctx{2};
    ctx.metrics = &sink;
    ReplicatePlan plan;
    (void)plan.add<double>(IndexRange{0, 100}, 1, "a", value);
    (void)plan.add<double>(IndexRange{0, 37}, 2, "b", value);
    plan.run(ctx);
  });
  const auto separate = chunk_cells([&](metrics::Sink& sink) {
    ExecContext ctx{2};
    ctx.metrics = &sink;
    parallel_for(ctx, 0, 100, [](std::size_t) {});
    parallel_for(ctx, 0, 37, [](std::size_t) {});
  });
  ASSERT_EQ(two_ranges.size(), 3u);
  EXPECT_EQ(two_ranges[0].sum, 1u);  // one region
  EXPECT_EQ(separate[0].sum, 2u);
  for (const std::size_t cell : {1u, 2u}) {  // chunks, chunk sizes
    EXPECT_EQ(two_ranges[cell].count, separate[cell].count);
    EXPECT_EQ(two_ranges[cell].sum, separate[cell].sum);
    EXPECT_EQ(two_ranges[cell].bins, separate[cell].bins);
  }
  EXPECT_EQ(two_ranges[1].sum, 17u + 19u);
}

TEST(ReplicatePlan, PropagatesAnExceptionFromOneRange) {
  for (const std::size_t threads : {1u, 4u}) {
    ReplicatePlan plan;
    (void)plan.add<int>(IndexRange{0, 20}, 1, "fine",
                        [](std::size_t, rngx::Rng&) { return 1; });
    (void)plan.add<int>(IndexRange{0, 20}, 2, "boom",
                        [](std::size_t i, rngx::Rng&) {
                          if (i == 13) throw std::runtime_error("boom");
                          return 1;
                        });
    EXPECT_THROW(plan.run(ExecContext{threads}), std::runtime_error)
        << threads;
  }
}

TEST(ReplicatePlan, RunsInlineInsideAParallelBody) {
  const auto draw = [](std::size_t, rngx::Rng& r) { return r.uniform(); };
  ReplicatePlan serial_plan;
  const auto& expected = serial_plan.add<double>(IndexRange{0, 16}, 5, "x",
                                                 draw);
  serial_plan.run(ExecContext{1});

  metrics::Sink inner_sink;
  inner_sink.enable(metrics::kExecRegionThreads);
  ExecContext inner{4};
  inner.metrics = &inner_sink;
  std::vector<std::vector<double>> got(8);
  parallel_for(ExecContext{4}, 0, got.size(), [&](std::size_t k) {
    ReplicatePlan plan;
    const auto& out = plan.add<double>(IndexRange{0, 16}, 5, "x", draw);
    plan.run(inner);
    got[k] = out;
  });
  for (const auto& g : got) EXPECT_EQ(g, expected);
  const metrics::Snapshot snap = inner_sink.snapshot();
  const auto* threads = snap.find(metrics::kExecRegionThreads);
  ASSERT_NE(threads, nullptr);
  EXPECT_EQ(threads->count, got.size());
  EXPECT_EQ(threads->bins[metrics::bin_index(1)], got.size());  // all inline
}

TEST(ExecIdle, CountsOnlyRegionsThatFanOut) {
  metrics::Sink sink;
  sink.enable(metrics::kExecIdleNs);
  ExecContext four{4};
  four.metrics = &sink;
  ExecContext one{1};
  one.metrics = &sink;
  parallel_for(one, 0, 64, [](std::size_t) {});
  parallel_for(four, 0, 3, [](std::size_t) {});
  ReplicatePlan plan;
  (void)plan.add<double>(IndexRange{0, 64}, 1, "t",
                         [](std::size_t, rngx::Rng& r) { return r.uniform(); });
  plan.run(four);
  const metrics::Snapshot snap = sink.snapshot();
  const auto* idle = snap.find(metrics::kExecIdleNs);
  ASSERT_NE(idle, nullptr);
  EXPECT_EQ(idle->count, 2u);  // the 3-index loop and the plan
}

}  // namespace
}  // namespace varbench::exec
