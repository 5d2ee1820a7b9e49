// Span contract of the instrumentation layer (docs/metrics.md): zero
// overhead while disabled (no allocation, no clock reads beyond one
// branch), identity-derived span idents so the same campaign traced at any
// worker split yields the same timestamp-free shape, deterministic
// serialization/stitching, and — the hard invariant — traces are
// provenance, never identity: enabling tracing changes no artifact bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/campaign/campaign.h"
#include "src/campaign/subprocess.h"
#include "src/campaign/work_queue.h"
#include "src/exec/exec_context.h"
#include "src/exec/parallel_for.h"
#include "src/io/json.h"
#include "src/report/render.h"
#include "src/study/result_table.h"
#include "src/study/study_runner.h"
#include "src/study/study_spec.h"
#include "src/metrics/clock.h"
#include "src/metrics/metrics.h"
#include "src/metrics/trace_file.h"

namespace varbench::metrics {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_{fs::temp_directory_path() /
              ("varbench_trace_" + tag + "_" +
               std::to_string(campaign::current_process_id()))} {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

// ------------------------------------------------------------- registry

TEST(SpanRegistry, SpansFollowTheMetricsWithUniqueNames) {
  std::set<std::string_view> names;
  for (MetricId id = 0; id < kNumMetrics; ++id) {
    const MetricDef& def = kMetricDefs[id];
    EXPECT_TRUE(names.insert(def.name).second) << def.name;
    EXPECT_FALSE(def.subsystem.empty());
    EXPECT_FALSE(def.help.empty());
    // Spans were appended after the first metrics, so no metric id moved;
    // entries appended since (exec.idle_ns) follow the spans.
    EXPECT_EQ(is_event(def.kind),
              id >= kStudyRun && id <= kCampaignStudyMerged)
        << def.name;
  }
  EXPECT_EQ(metric_id("exec.chunk"), static_cast<MetricId>(kExecChunk));
  EXPECT_EQ(kMetricDefs[kCampaignTaskQueued].kind, MetricKind::kInstant);
  EXPECT_EQ(kMetricDefs[kExecRegion].kind, MetricKind::kSpan);
}

// ---------------------------------------------------------------- sink

TEST(SinkSpans, DisabledSpansRecordAndAllocateNothing) {
  Sink t;
  { const ScopedSpan s{t, kExecRegion, 7, kExecChunkRunNs}; }
  instant(t, kCampaignTaskQueued, 9);
  span_end(t, kCampaignTaskRunning, 1, span_begin(t, kCampaignTaskRunning));
  t.emit(kStudyRun, 1, 2, 3);
  // The disabled path must not even allocate a slot — that is the
  // "zero-overhead when off" half of the contract.
  EXPECT_EQ(t.allocated_slots(), 0u);
  const TraceFile drained = t.drain("proc");
  EXPECT_TRUE(drained.spans.empty());
  EXPECT_EQ(drained.dropped, 0u);
}

TEST(SinkSpans, EnableSelectionBySubsystemNameAndAll) {
  Sink t;
  enable_selection(t, "exec", Entries::kSpans);
  EXPECT_TRUE(t.is_enabled(kExecRegion));
  EXPECT_TRUE(t.is_enabled(kExecChunk));
  EXPECT_FALSE(t.is_enabled(kExecChunks));  // a metric, not a span
  EXPECT_FALSE(t.is_enabled(kStudyRun));
  enable_selection(t, "study.run, campaign.task_running", Entries::kSpans);
  EXPECT_TRUE(t.is_enabled(kStudyRun));
  EXPECT_TRUE(t.is_enabled(kCampaignTaskRunning));
  EXPECT_FALSE(t.is_enabled(kCampaignTaskQueued));
  t.enable(kExecChunks);
  enable_selection(t, "none", Entries::kSpans);
  for (MetricId id = 0; id < kNumMetrics; ++id) {
    EXPECT_EQ(t.is_enabled(id), id == kExecChunks) << id;
  }
  enable_selection(t, "all", Entries::kSpans);
  for (MetricId id = 0; id < kNumMetrics; ++id) {
    EXPECT_EQ(t.is_enabled(id), is_event(kMetricDefs[id].kind) ||
                                    id == kExecChunks);
  }
  EXPECT_THROW(enable_selection(t, "exec.bogus", Entries::kSpans),
               std::invalid_argument);
  EXPECT_THROW(enable_selection(t, "tracing", Entries::kSpans),
               std::invalid_argument);
  EXPECT_THROW(enable_selection(t, "exec.chunks", Entries::kSpans),
               std::invalid_argument);
}

TEST(SinkSpans, DrainSortsDeterministicallyAndResetsSequence) {
  Sink t;
  t.enable(kExecRegion);
  t.emit(kExecRegion, 5, /*start_ns=*/200, /*dur_ns=*/10);
  t.emit(kExecRegion, 4, /*start_ns=*/100, /*dur_ns=*/10);
  t.emit(kExecRegion, 3, /*start_ns=*/100, /*dur_ns=*/5);
  EXPECT_EQ(t.next_sequence(), 0u);
  EXPECT_EQ(t.next_sequence(), 1u);
  const auto events = t.drain("proc").spans;
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].ident, 3u);  // (100, region, 3) < (100, region, 4)
  EXPECT_EQ(events[1].ident, 4u);
  EXPECT_EQ(events[2].ident, 5u);
  // drain resets the sequence so every flushed trace numbers from 0.
  EXPECT_EQ(t.next_sequence(), 0u);
}

TEST(SinkSpans, OneGuardFeedsTimerAndSpanFromOneClockRead) {
  Sink t;
  t.enable(kExecChunk);
  t.enable(kExecChunkRunNs);
  {
    const ScopedSpan s{t, kExecChunk, 42, kExecChunkRunNs};
    volatile double acc = 0.0;
    for (int i = 0; i < 10000; ++i) acc = acc + 1.0;
  }
  const TraceFile drained = t.drain("proc");
  ASSERT_EQ(drained.spans.size(), 1u);
  EXPECT_EQ(drained.spans[0].ident, 42u);
  EXPECT_GT(drained.spans[0].dur_ns, 0u);
  const Snapshot snap = t.snapshot();
  const MetricSnapshot* timer = snap.find(kExecChunkRunNs);
  ASSERT_NE(timer, nullptr);
  EXPECT_EQ(timer->count, 1u);
  EXPECT_EQ(timer->sum, drained.spans[0].dur_ns);  // the same duration
  // Spans never appear in a metrics snapshot.
  EXPECT_EQ(snap.find(kExecChunk), nullptr);
}

TEST(SinkSpans, ParallelForEmitsRegionAndChunkSpans) {
  Sink t;
  enable_selection(t, "exec", Entries::kSpans);
  exec::ExecContext ctx{2};
  ctx.metrics = &t;
  std::vector<double> out(64, 0.0);
  exec::parallel_for(ctx, 0, out.size(), [&](std::size_t i) {
    out[i] = static_cast<double>(i);
  });
  const auto events = t.drain("proc").spans;
  std::size_t regions = 0;
  std::size_t chunks = 0;
  std::uint64_t region_ident = 0;
  for (const SpanEvent& e : events) {
    if (e.span == kExecRegion) {
      ++regions;
      region_ident = e.ident;
      EXPECT_GT(e.dur_ns, 0u);
    }
    if (e.span == kExecChunk) ++chunks;
  }
  EXPECT_EQ(regions, 1u);
  EXPECT_GE(chunks, 1u);
  // Chunk idents pack (region sequence << 32) | chunk index.
  for (const SpanEvent& e : events) {
    if (e.span == kExecChunk) {
      EXPECT_EQ(e.ident >> 32, region_ident);
    }
  }
  EXPECT_EQ(out[63], 63.0);
}

// ------------------------------------------------------------ trace file

TraceFile sample_file() {
  TraceFile f;
  f.process = "worker-s0-0of2";
  f.dropped = 2;
  // {start_ns, span, ident, tid, dur_ns}
  f.spans = {SpanEvent{100, kExecRegion, 0, 0, 50},
             SpanEvent{110, kExecChunk, 0, 1, 20},
             SpanEvent{90, kCampaignTaskQueued, 77, 0, 0}};
  std::sort(f.spans.begin(), f.spans.end());
  f.labels = {{77, "s0-0of2"}};
  return f;
}

TEST(TraceFileTest, JsonRoundTripIsLossless) {
  const TraceFile f = sample_file();
  const std::string text = to_json_text(f);
  EXPECT_NE(text.find("varbench.trace.v1"), std::string::npos);
  EXPECT_NE(text.find("campaign.task_queued"), std::string::npos);
  const TraceFile back = parse_trace_file(text, "mem");
  EXPECT_EQ(back, f);
}

TEST(TraceFileTest, ParseErrorsAreActionableAndNamePath) {
  const auto expect_error = [](const std::string& text,
                               const std::string& needle) {
    try {
      (void)parse_trace_file(text, "traces/x.trace.json");
      FAIL() << "expected io::JsonError";
    } catch (const io::JsonError& e) {
      EXPECT_NE(std::string{e.what()}.find("traces/x.trace.json"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string{e.what()}.find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_error("{", "x.trace.json");
  expect_error(R"({"schema": "other.v9"})", "schema");
  const std::string text = to_json_text(sample_file());
  const std::string from = "exec.region";
  // An unknown name, and a metric name where a span belongs.
  for (const std::string to : {"exec.nopes", "exec.chunks"}) {
    std::string bad = text;
    bad.replace(bad.find(from), from.size(), to);
    expect_error(bad, to);
  }
}

TEST(TraceFileTest, DrainEmptiesTheSinkButKeepsItsMetrics) {
  Sink t;
  t.enable(kStudyRun);
  t.enable(kExecChunks);
  t.emit(kStudyRun, 1, 10, 5);
  t.add(kExecChunks, 3);
  t.set_label(1, "variance:cifar10_vgg11");
  const TraceFile f = t.drain("proc");
  EXPECT_EQ(f.process, "proc");
  ASSERT_EQ(f.spans.size(), 1u);
  ASSERT_EQ(f.labels.size(), 1u);
  EXPECT_EQ(f.labels[0].second, "variance:cifar10_vgg11");
  const TraceFile again = t.drain("proc");
  EXPECT_TRUE(again.spans.empty());
  EXPECT_TRUE(again.labels.empty());
  ASSERT_NE(t.snapshot().find(kExecChunks), nullptr);
  EXPECT_EQ(t.snapshot().find(kExecChunks)->sum, 3u);
}

TEST(TraceFileTest, AppendMergesSortsAndDedupsLabels) {
  TraceFile a = sample_file();
  TraceFile b;
  b.process = a.process;
  b.dropped = 1;
  b.spans = {SpanEvent{10, kExecRegion, 9, 0, 1}};
  b.labels = {{77, "s0-0of2"}, {5, "other"}};
  append(a, std::move(b));
  EXPECT_EQ(a.dropped, 3u);
  ASSERT_EQ(a.spans.size(), 4u);
  EXPECT_EQ(a.spans.front().ident, 9u);  // earliest start first
  ASSERT_EQ(a.labels.size(), 2u);
  EXPECT_EQ(a.labels[0].first, 5u);  // sorted, duplicate 77 dropped
  EXPECT_EQ(a.labels[1].first, 77u);
}

// --------------------------------------------------------------- stitch

TEST(StitchTest, MissingTracesAreActionable) {
  const TempDir dir{"nodir"};
  try {
    (void)stitch_state_dir(dir.str() + "/nope");
    FAIL() << "expected io::JsonError";
  } catch (const io::JsonError& e) {
    EXPECT_NE(std::string{e.what()}.find("--trace"), std::string::npos);
  }
  // traces/ exists but is empty: same actionable hint.
  fs::create_directories(fs::path{dir.str()} / "traces");
  EXPECT_THROW((void)stitch_state_dir(dir.str()), io::JsonError);
}

TEST(StitchTest, StitchesLexicographicallyAndExportsChrome) {
  const TempDir dir{"stitch"};
  fs::create_directories(fs::path{dir.str()} / "traces");
  TraceFile worker = sample_file();
  TraceFile coord;
  coord.process = "coordinator";
  coord.spans = {SpanEvent{1'000, kCampaignStudyMerged, 0, 0, 300}};
  write_trace_file(dir.str() + "/traces/worker-s0-0of2.trace.json", worker);
  write_trace_file(dir.str() + "/traces/coordinator.trace.json", coord);

  const StitchedTrace stitched = stitch_state_dir(dir.str());
  ASSERT_EQ(stitched.processes.size(), 2u);
  // Lexicographic by file name: coordinator.trace.json sorts first.
  EXPECT_EQ(stitched.processes[0].process, "coordinator");
  EXPECT_EQ(stitched.processes[1].process, "worker-s0-0of2");
  EXPECT_EQ(stitched.total_spans(), 4u);

  const io::Json doc = chrome_trace_json(stitched);
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const auto& events = doc.at("traceEvents").as_array();
  // 2 process_name metadata rows + 4 span events.
  ASSERT_EQ(events.size(), 6u);
  std::size_t metas = 0;
  std::size_t durations = 0;
  std::size_t instants = 0;
  double min_ts = 1e300;
  for (const io::Json& e : events) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "M") {
      ++metas;
      EXPECT_EQ(e.at("name").as_string(), "process_name");
      continue;
    }
    EXPECT_GE(e.at("pid").as_uint64(), 1u);  // pid 0 is reserved
    min_ts = std::min(min_ts, e.at("ts").as_double());
    if (ph == "X") {
      ++durations;
      EXPECT_GE(e.at("dur").as_double(), 0.0);
    } else if (ph == "i") {
      ++instants;
      EXPECT_EQ(e.at("s").as_string(), "t");
    }
  }
  EXPECT_EQ(metas, 2u);
  EXPECT_EQ(durations, 3u);
  EXPECT_EQ(instants, 1u);
  // Each process timeline is normalized to its own earliest event.
  EXPECT_EQ(min_ts, 0.0);
  // The labeled ident surfaces as args.label on its events.
  bool labeled = false;
  for (const io::Json& e : events) {
    const io::Json* args = e.find("args");
    if (args == nullptr) continue;
    const io::Json* label = args->find("label");
    labeled = labeled || (label != nullptr && label->as_string() == "s0-0of2");
  }
  EXPECT_TRUE(labeled);
}

TEST(StitchTest, SingleRunTraceFileIsOneProcess) {
  // `varbench run --trace-out v.trace.json` writes one file, no state dir.
  const TempDir dir{"single"};
  const std::string path = dir.str() + "/v.trace.json";
  write_trace_file(path, sample_file());

  const StitchedTrace stitched = stitch_state_dir(path);
  ASSERT_EQ(stitched.processes.size(), 1u);
  EXPECT_EQ(stitched.processes[0], sample_file());
  EXPECT_EQ(chrome_trace_json(stitched).at("traceEvents").as_array().size(),
            4u);  // 1 process_name row + 3 events
  EXPECT_EQ(summary_table(stitched).rows.size(), 3u);
}

TEST(StitchTest, SummaryTableAggregatesPerSpan) {
  StitchedTrace stitched;
  stitched.processes.push_back(sample_file());
  const study::ResultTable table = summary_table(stitched);
  EXPECT_EQ(table.name, "trace:summary");
  const std::vector<std::string> want{"seq",   "span",     "subsystem",
                                      "kind",  "count",    "total_ms",
                                      "mean_ms", "max_ms"};
  EXPECT_EQ(table.columns, want);
  ASSERT_EQ(table.rows.size(), 3u);  // region, chunk, queued — id order
  EXPECT_EQ(table.rows[0][1].as_string(), "exec.region");
  EXPECT_EQ(table.rows[0][4].as_uint64(), 1u);
  EXPECT_DOUBLE_EQ(table.rows[0][5].as_double(), 50.0 / 1e6);  // 50 ns in ms
  EXPECT_EQ(table.rows[2][1].as_string(), "campaign.task_queued");
  EXPECT_EQ(table.rows[2][3].as_string(), "instant");
}

TEST(StitchTest, SummaryRendersOneRowPerSpan) {
  // What `varbench trace --summary` prints: the per-span table itself, not
  // a report of n = 1 statistics under a bootstrap settings line.
  StitchedTrace stitched;
  stitched.processes.push_back(sample_file());
  const study::ResultTable table = summary_table(stitched);
  const auto lines = [](const std::string& text) {
    return std::count(text.begin(), text.end(), '\n');
  };
  const std::string text = report::render_table(table, report::Format::kText);
  EXPECT_EQ(lines(text), 4) << text;  // header + one row per span
  EXPECT_EQ(text.find("ci ="), std::string::npos) << text;
  for (const char* span :
       {"exec.region", "exec.chunk", "campaign.task_queued"}) {
    EXPECT_NE(text.find(span), std::string::npos) << span << "\n" << text;
  }
  // Markdown adds its alignment row.
  EXPECT_EQ(lines(report::render_table(table, report::Format::kMarkdown)), 5);
  EXPECT_EQ(lines(report::render_table(table, report::Format::kCsv)), 4);
  EXPECT_EQ(report::render_table(table, report::Format::kJson),
            table.to_json_text());
}

// ----------------------------------------------- campaign determinism

study::StudySpec tiny_compare_spec() {
  study::StudySpec spec;
  spec.kind = study::StudyKind::kCompare;
  spec.case_study = "cifar10_vgg11";
  spec.scale = 0.08;
  spec.seed = 20260809;
  spec.repetitions = 5;
  spec.figure.num_resamples = 50;
  return spec;
}

campaign::CampaignConfig traced_config(const std::string& dir,
                                       std::size_t workers) {
  campaign::CampaignConfig cfg;
  cfg.dir = dir;
  cfg.shards = 2;
  cfg.workers = workers;
  cfg.stale_after = std::chrono::minutes{10};
  cfg.trace = true;
  return cfg;
}

TEST(CampaignTrace, ShapeIsWorkerCountInvariantAndArtifactsUnchanged) {
  const auto spec = tiny_compare_spec();

  // Baseline: the same campaign with tracing off.
  const TempDir plain_dir{"plain"};
  std::string plain_merged;
  {
    auto cfg = traced_config(plain_dir.str(), 1);
    cfg.trace = false;
    const auto report = campaign::run_campaign(
        cfg, {spec}, campaign::in_process_launcher());
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report.merged_outputs.size(), 1u);
    plain_merged = io::read_file(report.merged_outputs[0]);
  }
  ASSERT_FALSE(plain_merged.empty());

  const TempDir one_dir{"w1"};
  const TempDir four_dir{"w4"};
  std::vector<std::string> merged_texts;
  for (const auto& [dir, workers] :
       {std::pair<const TempDir*, std::size_t>{&one_dir, 1},
        std::pair<const TempDir*, std::size_t>{&four_dir, 4}}) {
    const auto report = campaign::run_campaign(
        traced_config(dir->str(), workers), {spec},
        campaign::in_process_launcher());
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report.merged_outputs.size(), 1u);
    merged_texts.push_back(io::read_file(report.merged_outputs[0]));
    // Every worker left its trace, and the coordinator left its own.
    EXPECT_TRUE(fs::exists(fs::path{dir->str()} / "traces" /
                           "worker-s0-0of2.trace.json"));
    EXPECT_TRUE(fs::exists(fs::path{dir->str()} / "traces" /
                           "coordinator.trace.json"));
  }
  // The traced launches enabled the process-global sink's spans; put
  // it back so later tests in this binary see the all-disabled default.
  global_sink().disable_all();
  global_sink().reset();

  // Traces are provenance, never identity: tracing on (at any worker
  // count) changes no artifact bytes.
  EXPECT_EQ(merged_texts[0], plain_merged);
  EXPECT_EQ(merged_texts[1], plain_merged);

  const StitchedTrace one = stitch_state_dir(one_dir.str());
  const StitchedTrace four = stitch_state_dir(four_dir.str());
  // Identity-derived idents: after stripping timestamps, the 1-worker and
  // 4-worker runs recorded the same (span, ident) multiset.
  EXPECT_EQ(span_shape(one), span_shape(four));

  // The trace covers all three instrumented layers of this campaign:
  // campaign lifecycle, study runs, exec regions.
  std::set<std::string_view> subsystems;
  for (const TraceFile& file : one.processes) {
    for (const SpanEvent& e : file.spans) {
      subsystems.insert(kMetricDefs[e.span].subsystem);
    }
  }
  EXPECT_TRUE(subsystems.count("campaign"));
  EXPECT_TRUE(subsystems.count("study"));
  EXPECT_TRUE(subsystems.count("exec"));
  // Lifecycle completeness: each task was queued, claimed, run, promoted.
  const auto count = [&](MetricId id) {
    std::size_t n = 0;
    for (const TraceFile& f : one.processes) {
      for (const SpanEvent& e : f.spans) n += e.span == id ? 1 : 0;
    }
    return n;
  };
  EXPECT_EQ(count(kCampaignTaskQueued), 2u);
  EXPECT_EQ(count(kCampaignTaskClaimed), 2u);
  EXPECT_EQ(count(kCampaignTaskRunning), 2u);
  EXPECT_EQ(count(kCampaignTaskPromoted), 2u);
  EXPECT_EQ(count(kCampaignTaskRetried), 0u);
  EXPECT_EQ(count(kCampaignStudyMerged), 1u);
  EXPECT_EQ(count(kStudyRun), 2u);  // one per worker task
}

// ------------------------------------------- campaign.json metrics block

TEST(CampaignMetrics, ManifestBlockSurvivesTracingAndStaysOutOfWorkerTraces) {
  // Campaign metrics on the global sink, as `varbench campaign --metrics`
  // records them. The in-process launcher drains that same sink's spans
  // per task; its metric cells must keep accumulating across tasks.
  const auto spec = tiny_compare_spec();
  for (const bool traced : {false, true}) {
    const TempDir dir{traced ? "metrics_traced" : "metrics_plain"};
    Sink& global = global_sink();
    global.disable_all();
    global.reset();
    enable_selection(global, "campaign");
    auto cfg = traced_config(dir.str(), 2);
    cfg.trace = traced;
    const auto report = campaign::run_campaign(
        cfg, {spec}, campaign::in_process_launcher());
    global.disable_all();
    global.reset();
    ASSERT_TRUE(report.ok());

    const io::Json manifest =
        io::Json::parse(io::read_file(dir.str() + "/campaign.json"));
    const io::Json* block = manifest.find("metrics");
    ASSERT_NE(block, nullptr) << "traced=" << traced;
    for (const char* name :
         {"campaign.claim_to_start_ns", "campaign.task_retries",
          "campaign.heartbeat_jitter_ns", "campaign.tasks_launched"}) {
      EXPECT_NE(block->find(name), nullptr) << name;
    }
    EXPECT_EQ(block->at("campaign.tasks_launched").at("sum").as_uint64(),
              report.tasks);
    EXPECT_EQ(block->at("campaign.task_retries").at("sum").as_uint64(), 0u);
    if (!traced) continue;

    // Coordinator lifecycle spans land in coordinator.trace.json only.
    const StitchedTrace stitched = stitch_state_dir(dir.str());
    ASSERT_EQ(stitched.processes.size(), 1 + report.tasks);
    for (const TraceFile& file : stitched.processes) {
      std::size_t campaign_spans = 0;
      for (const SpanEvent& e : file.spans) {
        campaign_spans += kMetricDefs[e.span].subsystem == "campaign" ? 1 : 0;
      }
      if (file.process == "coordinator") {
        EXPECT_GT(campaign_spans, 0u);
      } else {
        EXPECT_EQ(campaign_spans, 0u) << file.process;
      }
    }
  }
}

}  // namespace
}  // namespace varbench::metrics
