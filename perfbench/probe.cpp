// perfbench_probe — the in-process half of the traced benchmark run.
//
// Times the benchmark's own calls into each module's public functions and
// reads the counters the program already records, so every layer of the
// paper pipeline gets a number without instrumentation inside src/:
//
//   study        run_study per paper kind, merge_result_tables
//   casestudies  make_case_study over every registered id
//   ml / core    a fig01 replay through core::run_variance_study with a
//                timing LearningPipeline decorator; train_mlp per case study
//   math         matmul / matmul_nt / matmul_tn at two training shapes
//   hpo          a figF2 replay through a timing HpoAlgorithm decorator
//   exec / rngx  the global metrics sink during the study pass
//   io           VBT/JSON save, load, open, streamed merge
//   stats/report load_artifact, summarize, render of a two-group table
//
// Usage: perfbench_probe <specs.json> <workdir> <seed> <threads>
//                        <report-spec.json> <shard.vbt>...
// where <specs.json> is a JSON array of study specs (the paper workloads'
// list); seed and threads override each spec's own. The report spec and the
// shards are the artifact_analysis workload's inputs, written by run.py.
// Prints one JSON object: {"metrics": {name: {"value", "unit"}},
// "attempted": n, "failed": n, "errors": [...]}. Output checks (the fig01
// replay reproduces run_study's rows; streamed and in-memory merges encode
// the same bytes) count as attempted operations.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/casestudies/registry.h"
#include "src/core/pipeline.h"
#include "src/core/variance_study.h"
#include "src/exec/parallel_replicate.h"
#include "src/hpo/hpo.h"
#include "src/io/columnar/stream_writer.h"
#include "src/io/columnar/vbt.h"
#include "src/io/json.h"
#include "src/math/matrix.h"
#include "src/metrics/metrics.h"
#include "src/ml/dataset.h"
#include "src/ml/train.h"
#include "src/report/artifact.h"
#include "src/report/render.h"
#include "src/report/report_spec.h"
#include "src/report/summary.h"
#include "src/rngx/rng.h"
#include "src/rngx/variation.h"
#include "src/study/result_table.h"
#include "src/study/study_runner.h"
#include "src/study/study_spec.h"

namespace {

using namespace varbench;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr const char* kMaskedTask = "pascalvoc_fcn";

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Nearest-rank quantile; `values` must be non-empty.
double quantile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

template <typename Fn>
double median_seconds(int repeats, Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    const auto start = Clock::now();
    fn();
    times.push_back(seconds_since(start));
  }
  return quantile(std::move(times), 0.5);
}

class Output {
 public:
  void put(const std::string& name, double value, const char* unit) {
    io::Json m = io::Json::object();
    m.set("value", io::Json{value});
    m.set("unit", io::Json{unit});
    metrics_.set(name, std::move(m));
  }

  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      errors_.push_back(io::Json{what});
    }
  }

  void print() const {
    io::Json doc = io::Json::object();
    doc.set("metrics", metrics_);
    doc.set("attempted", io::Json{attempted_});
    doc.set("failed", io::Json{failed_});
    doc.set("errors", errors_);
    std::printf("%s\n", doc.dump().c_str());
  }

 private:
  io::Json metrics_ = io::Json::object();
  io::Json errors_ = io::Json::array();
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

std::uint64_t snapshot_sum(const metrics::Snapshot& snap, const char* name) {
  const auto* m = snap.find(metrics::metric_id(name));
  return m == nullptr ? 0 : m->sum;
}

std::uint64_t snapshot_p50(const metrics::Snapshot& snap, const char* name) {
  const auto* m = snap.find(metrics::metric_id(name));
  return m == nullptr ? 0 : m->percentile_upper(0.5);
}

// ------------------------------------------------------------ study pass

/// Runs every paper kind in-process once and keeps fig01's table for the
/// replay cross-check. The exec and rngx counters cover exactly this pass.
study::ResultTable study_pass(const std::vector<study::StudySpec>& specs,
                              std::size_t threads, Output& out) {
  metrics::Sink& sink = metrics::global_sink();
  metrics::enable_selection(sink, "exec,rngx");
  sink.reset();
  study::ResultTable fig01;
  const double cpu_start = process_cpu_seconds();
  const auto start = Clock::now();
  for (const auto& spec : specs) {
    const auto t0 = Clock::now();
    study::ResultTable table = study::run_study(spec);
    const std::string kind{study::to_string(spec.kind)};
    out.put("study.run_s." + kind, seconds_since(t0), "s");
    if (spec.kind == study::StudyKind::kFig01VarianceSources) {
      fig01 = std::move(table);
    }
  }
  const double wall = seconds_since(start);
  const double cpu = process_cpu_seconds() - cpu_start;
  const metrics::Snapshot snap = sink.snapshot();
  sink.disable_all();
  out.put("exec.parallel_regions",
          static_cast<double>(snapshot_sum(snap, "exec.parallel_regions")),
          "count");
  out.put("exec.region_threads.p50",
          static_cast<double>(snapshot_p50(snap, "exec.region_threads")),
          "threads");
  out.put("exec.queue_wait_ns.p50",
          static_cast<double>(snapshot_p50(snap, "exec.queue_wait_ns")),
          "ns");
  out.put("exec.efficiency",
          cpu / (wall * static_cast<double>(threads)), "ratio");
  out.put("rngx.draws", static_cast<double>(snapshot_sum(snap, "rngx.draws")),
          "count");
  return fig01;
}

// ------------------------------------------------------------ casestudies

void casestudies_probe(double scale, Output& out) {
  const double s = median_seconds(3, [&] {
    for (const auto& id : casestudies::case_study_ids()) {
      (void)casestudies::make_case_study(id, scale);
    }
  });
  out.put("casestudies.build_ms", 1e3 * s, "ms");
}

// ------------------------------------------------------------ ml / core

struct FitLog {
  std::mutex mu;
  std::vector<double> ms;
};

/// LearningPipeline decorator: forwards every call and logs the wall time
/// of each fit (train + evaluate), from whichever thread runs it.
class TimedPipeline final : public core::LearningPipeline {
 public:
  TimedPipeline(const core::LearningPipeline& inner, FitLog& log)
      : inner_{inner}, log_{log} {}

  [[nodiscard]] double train_and_evaluate(
      const ml::Dataset& train, const ml::Dataset& test,
      const hpo::ParamPoint& lambda,
      const rngx::VariationSeeds& seeds) const override {
    const auto start = Clock::now();
    const double r = inner_.train_and_evaluate(train, test, lambda, seeds);
    const double ms = 1e3 * seconds_since(start);
    const std::lock_guard<std::mutex> lock{log_.mu};
    log_.ms.push_back(ms);
    return r;
  }
  [[nodiscard]] const hpo::SearchSpace& search_space() const override {
    return inner_.search_space();
  }
  [[nodiscard]] hpo::ParamPoint default_params() const override {
    return inner_.default_params();
  }
  [[nodiscard]] std::string_view name() const override { return inner_.name(); }
  [[nodiscard]] ml::Metric metric() const override { return inner_.metric(); }

 private:
  const core::LearningPipeline& inner_;
  FitLog& log_;
};

/// fig01 as run_fig01 drives it, one task at a time, through the timing
/// decorator. Its measures must reproduce run_study's fig01 rows, except
/// the pascalvoc_fcn rows, which carry unseeded numerical noise by design.
void fig01_replay(const study::StudySpec& spec, const study::ResultTable& fig01,
                  Output& out) {
  FitLog log;
  std::size_t compared = 0;
  bool same = true;
  const std::size_t task_col = fig01.column_index("task");
  const std::size_t source_col = fig01.column_index("source");
  const std::size_t measure_col = fig01.column_index("measure");
  const auto start = Clock::now();
  for (const auto& task : casestudies::case_study_ids()) {
    const auto cs = casestudies::make_case_study(task, spec.scale);
    const TimedPipeline timed{*cs.pipeline, log};
    core::VarianceStudyConfig cfg;
    cfg.repetitions = spec.repetitions;
    cfg.exec = exec::ExecContext{spec.threads};
    cfg.hpo_algorithms = spec.figure.hpo_algorithms;
    cfg.hpo_repetitions = spec.figure.hpo_repetitions != 0
                              ? spec.figure.hpo_repetitions
                              : std::max<std::size_t>(3, spec.repetitions / 4);
    cfg.hpo_budget = spec.figure.hpo_budget;
    cfg.include_numerical_noise = true;
    rngx::Rng master{rngx::derive_seed(spec.seed, task)};
    const auto result =
        core::run_variance_study(timed, *cs.pool, *cs.splitter, cfg, master);
    for (const auto& row : result.rows) {
      std::vector<double> expected;
      for (const auto& r : fig01.rows) {
        if (r[task_col].as_string() == task &&
            r[source_col].as_string() == row.label) {
          expected.push_back(r[measure_col].as_double());
        }
      }
      if (expected.size() != row.measures.size()) {
        same = false;
        continue;
      }
      if (task == kMaskedTask) {
        for (const double m : row.measures) {
          same = same && std::isfinite(m) && m >= 0.0 && m <= 1.0;
        }
        continue;
      }
      same = same && expected == row.measures;
      compared += expected.size();
    }
  }
  const double wall = seconds_since(start);
  out.check(same && compared > 0 && !log.ms.empty(),
            "fig01 replay under the timing decorator differs from run_study");
  double fit_total_ms = 0.0;
  for (const double ms : log.ms) fit_total_ms += ms;
  out.put("ml.fits", static_cast<double>(log.ms.size()), "count");
  out.put("ml.fit_ms.p50", quantile(log.ms, 0.5), "ms");
  out.put("ml.fit_ms.p99", quantile(log.ms, 0.99), "ms");
  out.put("ml.fit_share",
          fit_total_ms / (1e3 * wall * static_cast<double>(spec.threads)),
          "ratio");
}

void train_probe(double scale, Output& out) {
  for (const auto& id : casestudies::case_study_ids()) {
    const auto cs = casestudies::make_case_study(id, scale);
    const auto cfg = cs.pipeline->resolve_config(cs.pipeline->default_params());
    const double s = median_seconds(3, [&] {
      (void)ml::train_mlp(*cs.pool, cfg, rngx::VariationSeeds{});
    });
    out.put("ml.train_ms." + id, 1e3 * s, "ms");
  }
}

// ------------------------------------------------------------ math

struct GemmShape {
  const char* name;
  std::size_t batch;
  std::size_t in;
  std::size_t hidden;
};

math::Matrix random_matrix(std::size_t rows, std::size_t cols, rngx::Rng& rng) {
  math::Matrix m{rows, cols};
  for (double& v : m.data()) v = rng.uniform(-1.0, 1.0);
  return m;
}

/// The three GEMMs of one MLP layer step (forward matmul_nt, weight
/// gradient matmul_tn, input gradient matmul), each 2·batch·in·hidden
/// flops. Reported as the median of five ~20 ms timing windows.
void gemm_probe(Output& out) {
  const GemmShape shapes[] = {{"cifar10", 32, 32, 24}, {"mhc", 64, 24, 150}};
  rngx::Rng rng{rngx::derive_seed(1, "perfbench:gemm")};
  double guard = 0.0;
  for (const GemmShape& s : shapes) {
    const math::Matrix x = random_matrix(s.batch, s.in, rng);       // B×in
    const math::Matrix w = random_matrix(s.hidden, s.in, rng);      // h×in
    const math::Matrix delta = random_matrix(s.batch, s.hidden, rng);  // B×h
    const double flops = 2.0 * static_cast<double>(s.batch * s.in * s.hidden);
    const std::pair<const char*, std::function<math::Matrix()>> kernels[] = {
        {"matmul", [&] { return math::matmul(delta, w); }},
        {"matmul_nt", [&] { return math::matmul_nt(x, w); }},
        {"matmul_tn", [&] { return math::matmul_tn(delta, x); }},
    };
    for (const auto& [fn, kernel] : kernels) {
      std::size_t reps = 1;
      while (median_seconds(1, [&] {
               for (std::size_t i = 0; i < reps; ++i) guard += kernel()(0, 0);
             }) < 0.02) {
        reps *= 2;
      }
      const double s_per_window = median_seconds(5, [&] {
        for (std::size_t i = 0; i < reps; ++i) guard += kernel()(0, 0);
      });
      out.put(std::string{"math.gemm_gflops."} + fn + "." + s.name,
              flops * static_cast<double>(reps) / s_per_window * 1e-9,
              "GFLOP/s");
    }
    // Computed, not measured: flops over the bytes of A, B and C once.
    const double bytes =
        8.0 * static_cast<double>(s.batch * s.in + s.hidden * s.in +
                                  s.batch * s.hidden);
    out.put(std::string{"math.gemm_ops_per_byte."} + s.name, flops / bytes,
            "flop/B-computed");
  }
  if (!std::isfinite(guard)) std::fprintf(stderr, "gemm guard %g\n", guard);
}

// ------------------------------------------------------------ hpo

struct HpoClock {
  std::atomic<std::uint64_t> trials{0};
  std::atomic<std::uint64_t> objective_ns{0};
  std::atomic<std::uint64_t> optimize_ns{0};
};

std::uint64_t ns_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
          .count());
}

/// HpoAlgorithm decorator: times optimize() and every objective call it
/// makes, so the algorithm's own time is optimize minus objective.
class TimedAlgorithm final : public hpo::HpoAlgorithm {
 public:
  TimedAlgorithm(std::unique_ptr<hpo::HpoAlgorithm> inner, HpoClock& clock)
      : inner_{std::move(inner)}, clock_{clock} {}

  using HpoAlgorithm::optimize;
  [[nodiscard]] hpo::HpoResult optimize(const exec::ExecContext& ctx,
                                        const hpo::SearchSpace& space,
                                        const hpo::Objective& objective,
                                        std::size_t budget,
                                        rngx::Rng& rng) const override {
    const hpo::Objective timed = [&](const hpo::ParamPoint& lambda) {
      const auto start = Clock::now();
      const double r = objective(lambda);
      clock_.objective_ns += ns_since(start);
      clock_.trials += 1;
      return r;
    };
    const auto start = Clock::now();
    hpo::HpoResult result = inner_->optimize(ctx, space, timed, budget, rng);
    clock_.optimize_ns += ns_since(start);
    return result;
  }
  [[nodiscard]] std::string_view name() const override { return inner_->name(); }

 private:
  std::unique_ptr<hpo::HpoAlgorithm> inner_;
  HpoClock& clock_;
};

/// figF2's per-seed loop (run_one_seed in src/study/figures/), driven
/// through TimedAlgorithm.
void figF2_replay(const study::StudySpec& spec, Output& out) {
  HpoClock clock;
  const std::vector<std::string> tasks =
      spec.figure.tasks.empty() ? casestudies::case_study_ids()
                                : spec.figure.tasks;
  for (const auto& task : tasks) {
    const auto cs = casestudies::make_case_study(task, spec.scale);
    for (const auto& algo_name : spec.figure.hpo_algorithms) {
      const TimedAlgorithm algo{hpo::make_hpo_algorithm(algo_name), clock};
      (void)exec::parallel_replicate_range<int>(
          exec::ExecContext{spec.threads},
          exec::IndexRange{0, spec.repetitions},
          rngx::derive_seed(spec.seed, task + "/" + algo_name), "figF2_seed",
          [&](std::size_t, rngx::Rng& seed_rng) {
            const rngx::VariationSeeds base;
            const auto seeds =
                base.with_randomized(rngx::VariationSource::kHpo, seed_rng);
            auto split_rng = seeds.rng_for(rngx::VariationSource::kDataSplit);
            const auto split = cs.splitter->split(*cs.pool, split_rng);
            const auto [trainvalid, test] = core::materialize(*cs.pool, split);
            auto hpo_rng = seeds.rng_for(rngx::VariationSource::kHpo);
            std::vector<std::size_t> order(trainvalid.size());
            for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
            hpo_rng.shuffle(order);
            const std::size_t n_valid = order.size() / 4;
            const auto inner_valid = ml::subset(
                trainvalid, std::span<const std::size_t>{order.data(), n_valid});
            const auto inner_train = ml::subset(
                trainvalid, std::span<const std::size_t>{
                                order.data() + n_valid, order.size() - n_valid});
            const hpo::Objective objective = [&](const hpo::ParamPoint& l) {
              return 1.0 - cs.pipeline->train_and_evaluate(
                               inner_train, inner_valid, l, seeds);
            };
            (void)algo.optimize(cs.pipeline->search_space(), objective,
                                spec.figure.budget, hpo_rng);
            return 0;
          });
    }
  }
  const double objective_s = 1e-9 * static_cast<double>(clock.objective_ns);
  out.put("hpo.trials", static_cast<double>(clock.trials.load()), "count");
  out.put("hpo.objective_s", objective_s, "s");
  out.put("hpo.self_s",
          1e-9 * static_cast<double>(clock.optimize_ns) - objective_s, "s");
}

// ------------------------------------------------------------ io / report

/// The io, stats and report layers on the artifact_analysis workload's own
/// inputs: its VBT shards and its pinned report spec.
void io_and_report_probe(const fs::path& dir,
                         const std::vector<std::string>& shard_paths,
                         const std::string& report_spec, std::size_t threads,
                         Output& out) {
  const std::string merged_stream = (dir / "merged_stream.vbt").string();
  out.put("io.stream_merge_s", median_seconds(1, [&] {
            io::columnar::stream_merge_vbt(shard_paths, merged_stream, false);
          }),
          "s");
  std::uintmax_t bytes = fs::file_size(merged_stream);

  study::ResultTable merged;
  std::size_t rows = 0;
  {
    std::vector<study::ResultTable> loaded;
    for (const auto& p : shard_paths) {
      loaded.push_back(study::ResultTable::load(p));
      rows += loaded.back().rows.size();
    }
    const auto start = Clock::now();
    merged = study::merge_result_tables(std::move(loaded));
    out.put("study.merge_s", seconds_since(start), "s");
  }
  const std::string vbt = (dir / "whole.vbt").string();
  const std::string json = (dir / "whole.json").string();
  out.put("io.vbt_save_s", median_seconds(1, [&] {
            merged.save(vbt, study::ArtifactFormat::kBinary, false);
          }),
          "s");
  out.check(io::read_file(vbt) == io::read_file(merged_stream),
            "streamed merge and in-memory merge encode different VBT bytes");
  out.put("io.json_save_s", median_seconds(1, [&] {
            merged.save(json, study::ArtifactFormat::kJson, false);
          }),
          "s");
  bytes += fs::file_size(vbt) + fs::file_size(json);
  out.put("io.bytes_written", static_cast<double>(bytes), "bytes");
  out.put("io.vbt_open_s", median_seconds(3, [&] {
            (void)io::columnar::MappedTable::open(vbt);
          }),
          "s");
  bool loads_agree = true;
  out.put("io.vbt_load_s", median_seconds(1, [&] {
            loads_agree = study::ResultTable::load(vbt).rows == merged.rows;
          }),
          "s");
  out.put("io.json_load_s", median_seconds(1, [&] {
            loads_agree =
                loads_agree && study::ResultTable::load(json).rows == merged.rows;
          }),
          "s");
  out.check(loads_agree && merged.rows.size() == rows,
            "VBT/JSON reload does not reproduce the merged table");
  merged = study::ResultTable{};

  const auto spec =
      report::ReportSpec::from_json_text(io::read_file(report_spec));
  const exec::ExecContext ctx{threads};
  auto start = Clock::now();
  const report::LoadedArtifact artifact = report::load_artifact(merged_stream);
  out.put("report.load_s", seconds_since(start), "s");
  metrics::Sink& sink = metrics::global_sink();
  metrics::enable_selection(sink, "stats");
  sink.reset();
  start = Clock::now();
  const report::Report rep = report::summarize(ctx, artifact, spec);
  const double summarize_s = seconds_since(start);
  const auto resamples = static_cast<double>(
      snapshot_sum(sink.snapshot(), "stats.resamples"));
  sink.disable_all();
  out.put("report.summarize_s", summarize_s, "s");
  out.put("stats.resamples", resamples, "count");
  out.put("stats.resamples_per_s", resamples / summarize_s, "1/s");
  start = Clock::now();
  const std::string rendered =
      report::render(rep, report::format_from_string(spec.format));
  out.put("report.render_s", seconds_since(start), "s");
  out.check(rep.comparisons.size() == 2 && !rendered.empty(),
            "two-group report lacks its two comparisons");
}

std::vector<study::StudySpec> paper_specs(const std::string& path,
                                          std::uint64_t seed,
                                          std::size_t threads) {
  std::vector<study::StudySpec> specs;
  const io::Json list = io::Json::parse(io::read_file(path));
  for (io::Json doc : list.as_array()) {
    study::apply_override(doc, "seed", std::to_string(seed));
    study::apply_override(doc, "threads", std::to_string(threads));
    specs.push_back(study::StudySpec::from_json(doc));
  }
  return specs;
}

const study::StudySpec& find_spec(const std::vector<study::StudySpec>& specs,
                                  study::StudyKind kind) {
  for (const auto& s : specs) {
    if (s.kind == kind) return s;
  }
  throw std::invalid_argument("paper spec list lacks kind " +
                              std::string{study::to_string(kind)});
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 7) {
    std::fprintf(stderr,
                 "usage: perfbench_probe <specs.json> <workdir> <seed> "
                 "<threads> <report-spec.json> <shard.vbt>...\n");
    return 2;
  }
  try {
    const fs::path dir{argv[2]};
    fs::create_directories(dir);
    const std::uint64_t seed = std::stoull(argv[3]);
    const std::size_t threads = std::stoull(argv[4]);
    const std::vector<std::string> shards(argv + 6, argv + argc);
    const auto specs = paper_specs(argv[1], seed, threads);
    Output out;
    const study::ResultTable fig01 = study_pass(specs, threads, out);
    const auto& fig01_spec =
        find_spec(specs, study::StudyKind::kFig01VarianceSources);
    casestudies_probe(fig01_spec.scale, out);
    fig01_replay(fig01_spec, fig01, out);
    train_probe(fig01_spec.scale, out);
    gemm_probe(out);
    figF2_replay(find_spec(specs, study::StudyKind::kFigF2HpoCurves), out);
    io_and_report_probe(dir, shards, argv[5], threads, out);
    out.print();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_probe: %s\n", e.what());
    return 1;
  }
  return 0;
}
