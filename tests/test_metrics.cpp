// The metrics-layer contract (docs/metrics.md): dense stable ids, a
// disabled path that allocates nothing and calls nothing, integer log2
// histogram goldens, slot merges that are bit-identical at any thread
// count, metrics-as-provenance
// (enabling metrics never changes study artifact bytes), the snapshot →
// ResultTable → report bridge, and the perf-trajectory gate's regression
// arithmetic.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/gate.h"
#include "bench/trajectory.h"
#include "src/exec/exec_context.h"
#include "src/exec/parallel_for.h"
#include "src/io/json.h"
#include "src/metrics/clock.h"
#include "src/metrics/metrics.h"
#include "src/metrics/table.h"
#include "src/report/render.h"
#include "src/report/summary.h"
#include "src/rngx/rng.h"
#include "src/study/result_table.h"
#include "src/study/study_runner.h"
#include "src/study/study_spec.h"

namespace varbench::metrics {
namespace {

namespace fs = std::filesystem;
using benchutil::gate_checks;
using benchutil::Trajectory;
using benchutil::TrajectoryRow;

fs::path temp_dir(const std::string& leaf) {
  const fs::path dir = fs::temp_directory_path() / leaf;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ----------------------------------------------------------- registry

TEST(MetricsRegistry, BuiltinIdsAreIndices) {
  const auto& defs = kMetricDefs;
  EXPECT_EQ(metric_id("exec.parallel_regions"), kExecRegions);
  EXPECT_EQ(metric_id("exec.queue_wait_ns"), kExecQueueWaitNs);
  EXPECT_EQ(metric_id("campaign.claim_to_start_ns"), kCampaignClaimToStartNs);
  // Every def's name resolves back to its index — the id contract.
  for (std::size_t i = 0; i < defs.size(); ++i) {
    EXPECT_EQ(metric_id(defs[i].name), static_cast<MetricId>(i));
  }
  EXPECT_THROW((void)metric_id("exec.no_such_metric"), std::invalid_argument);
}

// ---------------------------------------------------- histogram geometry

TEST(MetricsBins, Log2BinGoldens) {
  // Bin 0 holds value 0; bin i>=1 holds [2^(i-1), 2^i).
  EXPECT_EQ(bin_index(0), 0u);
  EXPECT_EQ(bin_index(1), 1u);
  EXPECT_EQ(bin_index(2), 2u);
  EXPECT_EQ(bin_index(3), 2u);
  EXPECT_EQ(bin_index(4), 3u);
  EXPECT_EQ(bin_index(1023), 10u);
  EXPECT_EQ(bin_index(1024), 11u);
  EXPECT_EQ(bin_index(std::uint64_t{1} << 40), 41u);
  EXPECT_EQ(bin_index(~std::uint64_t{0}), kNumBins - 1);

  EXPECT_EQ(bin_upper(0), 0u);
  EXPECT_EQ(bin_upper(1), 1u);
  EXPECT_EQ(bin_upper(2), 3u);
  EXPECT_EQ(bin_upper(10), 1023u);
  EXPECT_EQ(bin_upper(kNumBins - 1), ~std::uint64_t{0});
}

TEST(MetricsBins, PercentileUpperGoldens) {
  Sink sink;
  sink.enable(kExecChunkSize);
  for (const std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1},
                                std::uint64_t{2}, std::uint64_t{3},
                                std::uint64_t{4}, std::uint64_t{1023},
                                std::uint64_t{1024}, std::uint64_t{1} << 40}) {
    sink.observe(kExecChunkSize, v);
  }
  const Snapshot snap = sink.snapshot();
  const MetricSnapshot* m = snap.find(kExecChunkSize);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->count, 8u);
  EXPECT_EQ(m->sum, 2057u + (std::uint64_t{1} << 40));
  // Rank ceil(p * 8) walks the cumulative bins: 1,2,4,5,6,7,8.
  EXPECT_EQ(m->percentile_upper(0.0), 0u);
  EXPECT_EQ(m->percentile_upper(0.5), 3u);    // rank 4 → bin 2
  EXPECT_EQ(m->percentile_upper(0.75), 1023u);  // rank 6 → bin 10
  EXPECT_EQ(m->percentile_upper(0.9),
            (std::uint64_t{1} << 41) - 1);  // rank 8 → bin 41
}

// ------------------------------------------------------- disabled path

TEST(MetricsSink, DisabledPathAllocatesNothingAndDefersWork) {
  Sink sink;  // all metrics disabled
  bool lazy_called = false;
  for (int i = 0; i < 1000; ++i) {
    sink.add(kExecChunks);
    sink.observe(kExecChunkSize, 17);
    sink.observe_lazy(kExecQueueWaitNs, [&] {
      lazy_called = true;
      return std::uint64_t{1};
    });
    const ScopedSpan timer{sink, kExecChunk, 0, kExecChunkRunNs};
  }
  EXPECT_FALSE(lazy_called);
  EXPECT_EQ(sink.allocated_slots(), 0u);  // no slot was ever touched
  EXPECT_TRUE(sink.snapshot().empty());
}

TEST(MetricsSink, EnableSelectionBySubsystemNameAndAll) {
  Sink sink;
  // A metrics selection never turns on spans, even of the same subsystem.
  enable_selection(sink, "exec,rngx");
  for (MetricId id = 0; id < kNumMetrics; ++id) {
    const MetricDef& def = kMetricDefs[id];
    EXPECT_EQ(sink.is_enabled(id),
              (def.subsystem == "exec" || def.subsystem == "rngx") &&
                  !is_event(def.kind))
        << def.name;
  }
  enable_selection(sink, "none");
  for (MetricId id = 0; id < kNumMetrics; ++id) {
    EXPECT_FALSE(sink.is_enabled(id));
  }
  enable_selection(sink, "io.vbt_bytes_mapped,campaign");
  EXPECT_TRUE(sink.is_enabled(kIoBytesMapped));
  EXPECT_FALSE(sink.is_enabled(kIoTablesMapped));
  EXPECT_TRUE(sink.is_enabled(kCampaignTaskRetries));
  enable_selection(sink, "all");
  EXPECT_TRUE(sink.is_enabled(kExecChunks));
  EXPECT_FALSE(sink.is_enabled(kExecChunk));
  EXPECT_THROW(enable_selection(sink, "nonesuch"), std::invalid_argument);
  EXPECT_THROW(enable_selection(sink, "exec.chunk"), std::invalid_argument);
}

TEST(MetricsSink, CounterTotalsAndZeroCountEnabledMetrics) {
  Sink sink;
  sink.enable(kExecRegions);
  sink.enable(kExecTasksSubmitted);  // enabled, never recorded
  sink.add(kExecRegions);
  sink.add(kExecRegions, 4);
  const Snapshot snap = sink.snapshot();
  ASSERT_EQ(snap.metrics.size(), 2u);
  // Fixed id order, zero-count entries included.
  EXPECT_EQ(snap.metrics[0].id, static_cast<MetricId>(kExecRegions));
  EXPECT_EQ(snap.metrics[0].count, 2u);
  EXPECT_EQ(snap.metrics[0].sum, 5u);
  EXPECT_EQ(snap.metrics[1].id, static_cast<MetricId>(kExecTasksSubmitted));
  EXPECT_EQ(snap.metrics[1].count, 0u);

  sink.reset();
  const Snapshot after = sink.snapshot();
  const MetricSnapshot* cleared = after.find(kExecRegions);
  ASSERT_NE(cleared, nullptr);
  EXPECT_EQ(cleared->count, 0u);
}

TEST(MetricsSink, ScopedSpanFeedsAnEnabledTimerAlone) {
  Sink sink;
  sink.enable(kExecChunkRunNs);  // the timer only, not the exec.chunk span
  {
    const ScopedSpan timer{sink, kExecChunk, 0, kExecChunkRunNs};
    volatile double acc = 0.0;
    for (int i = 0; i < 10000; ++i) acc = acc + 1.0;
  }
  const Snapshot snap = sink.snapshot();
  const MetricSnapshot* m = snap.find(kExecChunkRunNs);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->count, 1u);
  EXPECT_GT(m->sum, 0u);
  EXPECT_TRUE(sink.drain("proc").spans.empty());
}

// ------------------------------------------------- deterministic merge

TEST(MetricsSink, ShardMergeIsThreadCountInvariant) {
  // Record a fixed multiset of observations from a parallel_for region at
  // 1 / 2 / 8 threads. The merged snapshot must be bitwise identical:
  // integer accumulators commute, so interleaving cannot matter. The
  // recorded metric is one parallel_for does not itself touch, so only
  // the test's own observations land in it.
  constexpr std::size_t kN = 20'000;
  std::array<MetricSnapshot, 3> merged;
  const std::array<std::size_t, 3> thread_counts{1, 2, 8};
  for (std::size_t t = 0; t < thread_counts.size(); ++t) {
    Sink sink;
    sink.enable(kCampaignClaimToStartNs);
    exec::ExecContext ctx{thread_counts[t]};
    ctx.metrics = &sink;
    exec::parallel_for(ctx, 0, kN, [&](std::size_t i) {
      sink.observe(kCampaignClaimToStartNs, (i * i) % 4099);
    });
    const Snapshot snap = sink.snapshot();
    const MetricSnapshot* m = snap.find(kCampaignClaimToStartNs);
    ASSERT_NE(m, nullptr);
    merged[t] = *m;
  }
  for (std::size_t t = 1; t < merged.size(); ++t) {
    EXPECT_EQ(merged[t].count, merged[0].count);
    EXPECT_EQ(merged[t].sum, merged[0].sum);
    EXPECT_EQ(merged[t].bins, merged[0].bins);
  }
}

TEST(MetricsSink, ParallelForInstrumentationCoversAllIndices) {
  Sink sink;
  enable_selection(sink, "exec");
  exec::ExecContext ctx{4};
  ctx.metrics = &sink;
  constexpr std::size_t kN = 10'000;
  std::vector<std::uint8_t> hit(kN, 0);
  exec::parallel_for(ctx, 0, kN, [&](std::size_t i) { hit[i] = 1; });
  const Snapshot snap = sink.snapshot();
  const MetricSnapshot* chunks = snap.find(kExecChunks);
  const MetricSnapshot* sizes = snap.find(kExecChunkSize);
  ASSERT_NE(chunks, nullptr);
  ASSERT_NE(sizes, nullptr);
  EXPECT_GT(chunks->count, 0u);
  // Chunk sizes partition the index range exactly.
  EXPECT_EQ(sizes->sum, kN);
  for (const std::uint8_t h : hit) EXPECT_EQ(h, 1);
}

// -------------------------------------- metrics are provenance, not identity

TEST(MetricsDeterminism, EnablingMetricsNeverChangesArtifactBytes) {
  study::StudySpec spec;
  spec.kind = study::StudyKind::kVariance;
  spec.case_study = "cifar10_vgg11";
  spec.scale = 0.08;
  spec.seed = 20260808;
  spec.repetitions = 3;
  spec.figure.hpo_algorithms = {"random_search"};
  spec.figure.hpo_repetitions = 2;
  spec.figure.hpo_budget = 2;

  for (const std::size_t threads : {1, 4}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    spec.threads = threads;
    global_sink().disable_all();
    global_sink().reset();
    const std::string off = run_study(spec).canonical_text();

    global_sink().enable_all();
    const std::string on = run_study(spec).canonical_text();
    const Snapshot snap = global_sink().snapshot();
    const MetricSnapshot* regions = snap.find(kExecRegions);
    const bool recorded = regions != nullptr && regions->count > 0;
    global_sink().disable_all();
    global_sink().reset();

    EXPECT_TRUE(recorded);  // the instrumented hot paths actually fired
    EXPECT_EQ(off, on);     // ...and perturbed zero identity bytes
  }
}

// ------------------------------------------- snapshot → ResultTable → report

TEST(MetricsTable, SnapshotRendersAsCanonicalResultTable) {
  Sink sink;
  sink.enable(kExecRegions);
  sink.enable(kExecChunkSize);
  sink.add(kExecRegions, 2);
  for (std::uint64_t v = 1; v <= 64; ++v) sink.observe(kExecChunkSize, v);

  const study::ResultTable table = to_result_table(sink.snapshot(), "metrics:test");
  const std::vector<std::string> want_columns{
      "seq",   "metric", "subsystem", "kind", "unit", "count",
      "sum",   "mean",   "p50",       "p90",  "p99"};
  EXPECT_EQ(table.columns, want_columns);
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_TRUE(table.is_complete());

  const fs::path dir = temp_dir("varbench-test-metrics-table");
  const std::string path = (dir / "metrics.json").string();
  table.save(path);
  const study::ResultTable loaded = study::ResultTable::load(path);
  EXPECT_EQ(loaded.canonical_text(), table.canonical_text());

  // The stock report pipeline summarizes and renders it like any artifact.
  const report::LoadedArtifact artifact = report::load_artifact(path);
  report::ReportSpec rspec;
  const report::Report rep =
      report::summarize(exec::ExecContext{1}, artifact, rspec);
  EXPECT_FALSE(rep.columns.empty());
  const std::string text = report::render(rep, report::Format::kText);
  EXPECT_NE(text.find("count"), std::string::npos);
  fs::remove_all(dir);
}

// ------------------------------------------------------ trajectory + gate

TEST(MetricsTrajectory, LoadAppendSaveRoundtrip) {
  const fs::path dir = temp_dir("varbench-test-metrics-traj");
  const std::string path = (dir / "BENCH_test.json").string();

  Trajectory t = Trajectory::load(path);  // missing file = first run
  EXPECT_TRUE(t.rows().empty());
  EXPECT_EQ(t.best_ns("exec.parallel_for"), 0u);

  TrajectoryRow row;
  row.bench = "exec.parallel_for";
  row.unit = "ns";
  row.min_ns = 120'000;
  row.repeats = 5;
  row.version = "0.8.0";
  row.label = "test";
  t.append(row);
  row.min_ns = 90'000;
  t.append(row);
  t.save(path);

  const Trajectory back = Trajectory::load(path);
  ASSERT_EQ(back.rows().size(), 2u);
  EXPECT_EQ(back.rows()[0].min_ns, 120'000u);
  EXPECT_EQ(back.rows()[1].label, "test");
  EXPECT_EQ(back.best_ns("exec.parallel_for"), 90'000u);
  fs::remove_all(dir);
}

TEST(MetricsTrajectory, SaveReplacesTheFileInsteadOfRewritingIt) {
  // A reader of the old file (an interrupted save's victim) keeps the old
  // bytes: save writes a new file and renames it over the path, so no
  // moment exists where the path holds an empty or truncated trajectory.
  const fs::path dir = temp_dir("varbench-test-metrics-traj-atomic");
  const std::string path = (dir / "BENCH_test.json").string();
  Trajectory t;
  TrajectoryRow row;
  row.bench = "exec.parallel_for";
  row.unit = "ns";
  row.min_ns = 100'000;
  row.repeats = 5;
  t.append(row);
  t.save(path);
  const std::string old_text = io::read_file(path);

  std::FILE* held = std::fopen(path.c_str(), "rb");
  ASSERT_NE(held, nullptr);
  row.min_ns = 90'000;
  t.append(row);
  t.save(path);
  std::string seen;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, held)) > 0;) {
    seen.append(buf, n);
  }
  std::fclose(held);

  EXPECT_EQ(seen, old_text);
  EXPECT_EQ(Trajectory::load(path).rows().size(), 2u);
  fs::remove_all(dir);
}

TEST(MetricsTrajectory, GateRejectsOutOfRangeOptionsBeforeRunning) {
  // A NaN threshold made every `ratio > threshold` false, so the gate
  // passed everything. Each bad value is refused, naming its flag, before
  // a single suite runs (the bench dir is never created).
  const fs::path dir = fs::temp_directory_path() / "varbench-test-gate-opts";
  fs::remove_all(dir);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    double benchutil::GateOptions::*field;
    double value;
    const char* message;
  };
  const Case cases[] = {
      {&benchutil::GateOptions::threshold, nan,
       "--threshold expects a finite number >= 1, got nan"},
      {&benchutil::GateOptions::threshold, 0.5,
       "--threshold expects a finite number >= 1, got 0.5"},
      {&benchutil::GateOptions::threshold, inf,
       "--threshold expects a finite number >= 1, got inf"},
      {&benchutil::GateOptions::scale, nan,
       "--scale expects a finite number > 0, got nan"},
      {&benchutil::GateOptions::scale, 0.0,
       "--scale expects a finite number > 0, got 0"},
      {&benchutil::GateOptions::inject_slowdown, nan,
       "--inject-slowdown expects a finite number > 0, got nan"},
      {&benchutil::GateOptions::inject_slowdown, -2.0,
       "--inject-slowdown expects a finite number > 0, got -2"},
  };
  for (const Case& c : cases) {
    benchutil::GateOptions opts;
    opts.bench_dir = dir.string();
    opts.*c.field = c.value;
    std::string what;
    try {
      (void)benchutil::run_bench_gate(opts, stdout);
    } catch (const std::invalid_argument& e) {
      what = e.what();
    }
    EXPECT_EQ(what, c.message);
    EXPECT_FALSE(fs::exists(dir));
  }
}

TEST(MetricsTrajectory, GateFlagsOnlyRealRegressions) {
  Trajectory prior;
  TrajectoryRow base;
  base.bench = "exec.parallel_for";
  base.unit = "ns";
  base.min_ns = 100'000;
  base.repeats = 5;
  prior.append(base);

  const auto check_one = [&](std::uint64_t fresh_ns) {
    TrajectoryRow fresh = base;
    fresh.min_ns = fresh_ns;
    const auto checks = gate_checks(prior, {fresh});
    EXPECT_EQ(checks.size(), 1u);
    return checks.at(0);
  };

  EXPECT_FALSE(check_one(100'000).regressed);  // flat
  EXPECT_FALSE(check_one(140'000).regressed);  // inside the 1.5x band
  EXPECT_TRUE(check_one(200'000).regressed);   // the injected-2x case
  EXPECT_DOUBLE_EQ(check_one(200'000).ratio, 2.0);

  // Over threshold but under the absolute-noise floor: jitter, not a
  // regression.
  Trajectory tiny_prior;
  TrajectoryRow tiny = base;
  tiny.bench = "campaign.heartbeat";
  tiny.min_ns = 2'000;
  tiny_prior.append(tiny);
  tiny.min_ns = 5'000;  // 2.5x, but only +3us
  EXPECT_FALSE(gate_checks(tiny_prior, {tiny}).at(0).regressed);

  // A brand-new bench has no history: recorded, never gated.
  TrajectoryRow fresh_bench = base;
  fresh_bench.bench = "exec.new_bench";
  const auto novel = gate_checks(prior, {fresh_bench});
  EXPECT_EQ(novel.at(0).best_ns, 0u);
  EXPECT_FALSE(novel.at(0).regressed);
}

TEST(MetricsTrajectory, EmptyHistoryFileIsAFirstRunNotACrash) {
  // A trajectory file that exists but is empty (interrupted first write,
  // `touch`ed by CI cache priming) must behave exactly like a missing one:
  // load empty, gate nothing, accept a fresh baseline.
  const fs::path dir = temp_dir("varbench-test-metrics-traj-empty");
  const std::string path = (dir / "BENCH_empty.json").string();

  io::write_file(path, "");
  EXPECT_TRUE(Trajectory::load(path).rows().empty());
  io::write_file(path, " \t\n\n");
  Trajectory t = Trajectory::load(path);
  EXPECT_TRUE(t.rows().empty());

  TrajectoryRow row;
  row.bench = "exec.parallel_for";
  row.unit = "ns";
  row.min_ns = 100'000;
  row.repeats = 3;
  const auto checks = gate_checks(t, {row});
  ASSERT_EQ(checks.size(), 1u);
  EXPECT_FALSE(checks.at(0).regressed);  // no history → recorded, not gated
  EXPECT_EQ(checks.at(0).best_ns, 0u);

  // First run records the baseline; the next load sees it.
  t.append(row);
  t.save(path);
  const Trajectory back = Trajectory::load(path);
  ASSERT_EQ(back.rows().size(), 1u);
  EXPECT_EQ(back.best_ns("exec.parallel_for"), 100'000u);
  fs::remove_all(dir);
}

// -------------------------------------------------------- rngx counters

TEST(MetricsRngx, StreamCountersAreThreadCountInvariant) {
  // rngx.streams_derived / rngx.draws count a multiset fixed by the
  // determinism contract — per-repetition streams keyed by identity, not
  // by scheduling — so the totals cannot vary with the thread count.
  constexpr std::size_t kReps = 64;
  constexpr int kDrawsPerRep = 5;
  const auto totals = [](std::size_t threads) {
    Sink& sink = global_sink();
    sink.disable_all();
    sink.reset();
    sink.enable(kRngxStreamsDerived);
    sink.enable(kRngxDraws);
    exec::ExecContext ctx{threads};
    std::vector<double> acc(kReps, 0.0);
    exec::parallel_for(ctx, 0, kReps, [&](std::size_t i) {
      rngx::Rng rng{rngx::derive_seed(20260809, "rep") + i};
      for (int d = 0; d < kDrawsPerRep; ++d) acc[i] += rng.uniform();
    });
    const Snapshot snap = sink.snapshot();
    const MetricSnapshot* derived = snap.find(kRngxStreamsDerived);
    const MetricSnapshot* draws = snap.find(kRngxDraws);
    sink.disable_all();
    sink.reset();
    EXPECT_NE(derived, nullptr);
    EXPECT_NE(draws, nullptr);
    const std::uint64_t derived_sum = derived != nullptr ? derived->sum : 0;
    const std::uint64_t draw_sum = draws != nullptr ? draws->sum : 0;
    EXPECT_GT(acc[kReps - 1], 0.0);  // the work actually ran
    return std::pair<std::uint64_t, std::uint64_t>{derived_sum, draw_sum};
  };

  const auto at1 = totals(1);
  const auto at4 = totals(4);
  const auto at8 = totals(8);
  EXPECT_EQ(at1.first, kReps);  // one reseed per repetition stream
  EXPECT_GE(at1.second, static_cast<std::uint64_t>(kReps) * kDrawsPerRep);
  EXPECT_EQ(at1, at4);
  EXPECT_EQ(at1, at8);
}

}  // namespace
}  // namespace varbench::metrics
