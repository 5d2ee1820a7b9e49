#include "bench/microbench.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "src/campaign/campaign.h"
#include "src/campaign/subprocess.h"
#include "src/campaign/work_queue.h"
#include "src/casestudies/registry.h"
#include "src/exec/parallel_for.h"
#include "src/exec/parallel_replicate.h"
#include "src/exec/thread_pool.h"
#include "src/io/columnar/vbt.h"
#include "src/math/matrix.h"
#include "src/metrics/clock.h"
#include "src/metrics/metrics.h"
#include "src/ml/train.h"
#include "src/rngx/rng.h"
#include "src/stats/bootstrap.h"
#include "src/stats/descriptive.h"
#include "src/stats/resample_kernels.h"
#include "src/stats/tests.h"
#include "src/study/result_table.h"
#include "src/study/study_spec.h"

namespace varbench::benchutil {

namespace fs = std::filesystem;
using metrics::Stopwatch;

namespace {

std::size_t scaled(double scale, std::size_t base) {
  if (scale <= 0.0) {
    throw std::invalid_argument{"microbench: scale must be > 0"};
  }
  const auto n = static_cast<std::size_t>(std::llround(scale * static_cast<double>(base)));
  return n > 0 ? n : 1;
}

/// min-of-N wrapper: run `body()` `repeats` times, keep the fastest.
template <typename Body>
MicrobenchResult min_of(const std::string& bench, const std::string& unit,
                        std::size_t repeats, Body&& body) {
  MicrobenchResult r;
  r.bench = bench;
  r.unit = unit;
  r.repeats = repeats > 0 ? repeats : 1;
  for (std::uint64_t i = 0; i < r.repeats; ++i) {
    const std::uint64_t ns = body();
    if (i == 0 || ns < r.min_ns) r.min_ns = ns;
  }
  return r;
}

/// The parallel_for workload: a cheap but unelidable per-index transform.
/// Writing into `out` keeps the loop honest under -O2 without making the
/// bench memory-bound.
std::uint64_t time_parallel_for(const exec::ExecContext& ctx, std::size_t n,
                                std::vector<double>& out) {
  const Stopwatch sw;
  exec::parallel_for(ctx, 0, n, [&](std::size_t i) {
    const double x = static_cast<double>(i % 1024) * 1e-3;
    out[i] = x * x + 0.5 * x + 1.0;
  });
  return sw.elapsed_ns();
}

constexpr const char* kIoSources[] = {"init", "data_order", "dropout",
                                      "data_split", "numerical"};

/// `rows` rows of the io suite's table, seq from `seq_begin`, measures
/// drawn from a stream keyed by the shard index.
study::ResultTable make_io_table(std::size_t rows, study::ShardSpec shard,
                                 std::size_t seq_begin) {
  study::ResultTable t;
  t.name = "bench:artifact_io";
  t.seed = 42;
  t.shard = shard;
  t.columns = {"seq", "source", "accuracy", "loss", "wall_s", "epochs"};
  rngx::Rng rng{shard.index + 1};
  for (std::size_t seq = seq_begin; seq < seq_begin + rows; ++seq) {
    t.add_row({study::Cell{std::uint64_t{seq}},
               study::Cell{std::string{kIoSources[seq % 5]}},
               study::Cell{rng.normal(0.87, 0.02)},
               study::Cell{rng.normal(0.4, 0.05)},
               study::Cell{rng.normal(120.0, 8.0)},
               study::Cell{std::uint64_t{10 + seq % 3}}});
  }
  return t;
}

void require_rows(const std::string& bench, std::size_t got,
                  std::size_t want) {
  if (got != want) {
    throw std::runtime_error{"microbench: " + bench + " returned " +
                             std::to_string(got) + " rows, want " +
                             std::to_string(want)};
  }
}

}  // namespace

std::vector<MicrobenchResult> run_exec_microbenches(
    const MicrobenchOptions& opts) {
  std::vector<MicrobenchResult> results;
  const std::size_t n = scaled(opts.scale, 200'000);
  const exec::ExecContext plain{opts.threads};
  std::vector<double> out(n, 0.0);

  // Untimed warmup: spin the global pool up and fault `out` in, so the
  // first timed row does not absorb one-time costs the later rows skip.
  (void)time_parallel_for(plain, n, out);

  results.push_back(min_of("exec.parallel_for", "ns", opts.repeats, [&] {
    return time_parallel_for(plain, n, out);
  }));

  // Same workload with every exec metric live on a local sink: the
  // difference against the row above is the measured overhead model.
  metrics::Sink sink;
  metrics::enable_selection(sink, "exec");
  exec::ExecContext instrumented{opts.threads};
  instrumented.metrics = &sink;
  results.push_back(
      min_of("exec.parallel_for_metrics", "ns", opts.repeats, [&] {
        return time_parallel_for(instrumented, n, out);
      }));

  // And with exec spans live on a local sink: the tracing analogue of the
  // row above (region + per-chunk spans, two clock reads per chunk).
  metrics::Sink spans;
  metrics::enable_selection(spans, "exec", metrics::Entries::kSpans);
  exec::ExecContext traced{opts.threads};
  traced.metrics = &spans;
  results.push_back(
      min_of("exec.parallel_for_trace", "ns", opts.repeats, [&] {
        spans.reset();
        return time_parallel_for(traced, n, out);
      }));

  // Pool submit path, one task at a time vs one batched enqueue. A local
  // two-worker pool keeps the global pool's size untouched.
  const std::size_t tasks = scaled(opts.scale, 2'000);
  results.push_back(
      min_of("exec.pool_submit", "ns/task", opts.repeats, [&] {
        exec::ThreadPool pool{2};
        std::atomic<std::size_t> done{0};
        const Stopwatch sw;
        for (std::size_t i = 0; i < tasks; ++i) {
          pool.submit([&done] {
            done.fetch_add(1, std::memory_order_relaxed);
          });
        }
        while (done.load(std::memory_order_relaxed) < tasks) {
          std::this_thread::yield();
        }
        return sw.elapsed_ns() / tasks;
      }));

  results.push_back(
      min_of("exec.pool_submit_batched", "ns/task", opts.repeats, [&] {
        exec::ThreadPool pool{2};
        std::atomic<std::size_t> done{0};
        std::vector<std::function<void()>> batch;
        batch.reserve(tasks);
        for (std::size_t i = 0; i < tasks; ++i) {
          batch.push_back(
              [&done] { done.fetch_add(1, std::memory_order_relaxed); });
        }
        const Stopwatch sw;
        pool.submit_many(std::move(batch));
        while (done.load(std::memory_order_relaxed) < tasks) {
          std::this_thread::yield();
        }
        return sw.elapsed_ns() / tasks;
      }));

  return results;
}

std::vector<MicrobenchResult> run_campaign_microbenches(
    const MicrobenchOptions& opts, const std::string& scratch_dir) {
  std::vector<MicrobenchResult> results;
  const std::size_t tickets = scaled(opts.scale, 64);
  const fs::path dir =
      fs::path{scratch_dir} /
      ("varbench-bench-q" + std::to_string(campaign::current_process_id()));

  results.push_back(
      min_of("campaign.ticket_cycle", "ns/ticket", opts.repeats, [&] {
        fs::remove_all(dir);
        campaign::WorkQueue queue{dir.string()};
        const Stopwatch sw;
        for (std::size_t i = 0; i < tickets; ++i) {
          queue.enqueue(campaign::Ticket{"t" + std::to_string(i), 0, ""});
        }
        for (std::size_t i = 0; i < tickets; ++i) {
          auto ticket = queue.try_claim("bench");
          if (!ticket.has_value()) {
            throw std::runtime_error{"microbench: work queue lost a ticket"};
          }
          queue.complete(*ticket);
        }
        return sw.elapsed_ns() / tickets;
      }));

  results.push_back(
      min_of("campaign.heartbeat", "ns/beat", opts.repeats, [&] {
        fs::remove_all(dir);
        campaign::WorkQueue queue{dir.string()};
        queue.enqueue(campaign::Ticket{"hb", 0, ""});
        auto ticket = queue.try_claim("bench");
        if (!ticket.has_value()) {
          throw std::runtime_error{"microbench: work queue lost a ticket"};
        }
        const std::size_t beats = tickets * 4;  // mtime touches are fast —
                                                // average more of them
        const Stopwatch sw;
        for (std::size_t i = 0; i < beats; ++i) queue.heartbeat(*ticket);
        const std::uint64_t ns = sw.elapsed_ns() / beats;
        queue.complete(*ticket);
        return ns;
      }));

  // Whole task cycles: claim, spawn `varbench run`, reap, validate, promote,
  // merge. The study takes about 2 ms a shard, so the time is process
  // start-up plus how fast the coordinator notices an exit.
  constexpr std::size_t kCycleTasks = 8;
  study::StudySpec cycle_spec =
      study::default_spec(study::StudyKind::kFig04EstimatorCost);
  cycle_spec.threads = 1;
  const campaign::WorkerLauncher launcher = campaign::subprocess_launcher(
      campaign::current_executable("varbench"));
  results.push_back(
      min_of("campaign.worker_cycle", "ns/task", opts.repeats, [&] {
        fs::remove_all(dir);
        campaign::CampaignConfig cfg;
        cfg.dir = dir.string();
        cfg.shards = kCycleTasks;
        cfg.workers = 2;
        const Stopwatch sw;
        const campaign::CampaignReport report =
            campaign::run_campaign(cfg, {cycle_spec}, launcher);
        const std::uint64_t ns = sw.elapsed_ns() / kCycleTasks;
        if (!report.ok() || report.launched != kCycleTasks) {
          throw std::runtime_error{
              "microbench: campaign.worker_cycle did not run its " +
              std::to_string(kCycleTasks) + " tasks cleanly" +
              (report.failures.empty() ? std::string{}
                                       : ": " + report.failures.front())};
        }
        return ns;
      }));

  fs::remove_all(dir);
  return results;
}

std::vector<MicrobenchResult> run_stats_microbenches(
    const MicrobenchOptions& opts) {
  std::vector<MicrobenchResult> results;
  const std::size_t n = scaled(opts.scale, 10'000);
  const std::size_t resamples = scaled(opts.scale, 200);
  const exec::ExecContext ctx{opts.threads};

  rngx::Rng data_rng{0x57A7B3};
  std::vector<double> x(n);
  for (double& v : x) v = data_rng.normal(1.0, 0.25);

  double sink_value = 0.0;  // keeps the interval computations unelidable

  // Untimed warmup: spin the pool up and lease the scratch buffers, so
  // the first timed repeat runs steady-state (zero-allocation) like the
  // rest.
  {
    rngx::Rng rng{1};
    sink_value += stats::bca_bootstrap_ci(ctx, x, rng, resamples).lower;
  }

  results.push_back(
      min_of("stats.bca_ci_mean_kernel", "ns", opts.repeats, [&] {
        rngx::Rng rng{1};
        const Stopwatch sw;
        const auto ci = stats::bca_bootstrap_ci(ctx, x, rng, resamples);
        const std::uint64_t ns = sw.elapsed_ns();
        sink_value += ci.lower + ci.upper;
        return ns;
      }));

  // The pre-kernel BCa hot loops, re-enacted: same streams, same fan-out,
  // same bits out — but every replicate materializes its resample and
  // every jackknife index materializes its leave-one-out copy, the
  // allocation and copy traffic the fused kernels deleted.
  std::vector<double> loo(n, 0.0);
  results.push_back(
      min_of("stats.bca_ci_mean_legacy", "ns", opts.repeats, [&] {
        rngx::Rng rng{1};
        const Stopwatch sw;
        const std::vector<double> statistics =
            exec::parallel_replicate_range<double>(
                ctx, exec::IndexRange{0, resamples}, rng.next_u64(),
                "bootstrap",
                [&](std::uint64_t, rngx::Rng& r) {
                  std::vector<double> resample(x.size());
                  for (double& v : resample) {
                    v = x[r.uniform_index(x.size())];
                  }
                  return stats::mean(resample);
                });
        exec::parallel_for(ctx, 0, n, [&](std::size_t i) {
          std::vector<double> rest(n - 1);
          for (std::size_t j = 0; j < i; ++j) rest[j] = x[j];
          for (std::size_t j = i + 1; j < n; ++j) rest[j - 1] = x[j];
          loo[i] = stats::mean(rest);
        });
        const std::uint64_t ns = sw.elapsed_ns();
        sink_value += statistics.front() + loo.front();
        return ns;
      }));

  // The paired comparison `varbench report` runs per column of two paired
  // groups, at the size and counts of perfbench's artifact_analysis.
  const std::size_t pairs = scaled(opts.scale, 250'000);
  std::vector<double> a(pairs);
  std::vector<double> b(pairs);
  for (std::size_t i = 0; i < pairs; ++i) {
    a[i] = data_rng.normal(0.8, 0.05);
    b[i] = a[i] - data_rng.normal(0.001, 0.05);
  }
  results.push_back(
      min_of("stats.paired_permutation", "ns", opts.repeats, [&] {
        rngx::Rng rng{2};
        const Stopwatch sw;
        const auto t = stats::paired_permutation_test(ctx, a, b, rng, 1000);
        const std::uint64_t ns = sw.elapsed_ns();
        sink_value += t.p_value;
        return ns;
      }));
  results.push_back(min_of("stats.paired_win_rate", "ns", opts.repeats, [&] {
    rngx::Rng rng{3};
    const Stopwatch sw;
    const auto wins =
        stats::kernels::resample_win_rate_statistics(ctx, a, b, rng, 200);
    const std::uint64_t ns = sw.elapsed_ns();
    sink_value += wins.front();
    return ns;
  }));

  if (sink_value == 0.123456789) {  // never true for this data; anchors sink_value
    std::fprintf(stderr, "microbench: improbable checksum\n");
  }
  return results;
}

std::vector<MicrobenchResult> run_ml_microbenches(
    const MicrobenchOptions& opts) {
  std::vector<MicrobenchResult> results;

  // One mhc_mlp step's five products at its default shapes: batch 64, 24
  // inputs, 150 hidden, 1 output. The hidden layer's outputs and deltas
  // are about half zeros, as ReLU and its derivative leave them.
  rngx::Rng data_rng{22};
  const auto draw = [&](std::size_t rows, std::size_t cols, double zeros) {
    math::Matrix m{rows, cols};
    for (double& v : m.data()) {
      const double x = data_rng.normal();
      v = data_rng.uniform() < zeros ? 0.0 : x;
    }
    return m;
  };
  const math::Matrix x = draw(64, 24, 0.0);
  const math::Matrix w0 = draw(150, 24, 0.0);
  const math::Matrix w1 = draw(1, 150, 0.0);
  const math::Matrix h = draw(64, 150, 0.5);
  const math::Matrix d1 = draw(64, 1, 0.0);
  const math::Matrix d0 = draw(64, 150, 0.5);
  math::Matrix pre0, pre1, gw1, gw0, prev;
  const std::size_t steps = scaled(opts.scale, 600);
  double sink_value = 0.0;
  results.push_back(min_of("math.gemm.mhc_step", "ns", opts.repeats, [&] {
    const Stopwatch sw;
    for (std::size_t s = 0; s < steps; ++s) {
      math::matmul_nt(x, w0, pre0);   // forward, hidden layer
      math::matmul_nt(h, w1, pre1);   // forward, output layer
      math::matmul_tn(d1, h, gw1);    // output layer's weight gradient
      math::matmul(d1, w1, prev);     // delta into the hidden layer
      math::matmul_tn(d0, x, gw0);    // hidden layer's weight gradient
    }
    const std::uint64_t ns = sw.elapsed_ns();
    sink_value += pre0(0, 0) + pre1(0, 0) + gw1(0, 0) + prev(0, 0) +
                  gw0(0, 0);
    return ns;
  }));
  if (sink_value == 0.123456789) {  // anchors sink_value, as above
    std::fprintf(stderr, "microbench: improbable checksum\n");
  }

  for (const char* id : {"mhc_mlp", "cifar10_vgg11", "glue_rte_bert"}) {
    const casestudies::CaseStudy cs =
        casestudies::make_case_study(id, std::min(opts.scale, 1.0));
    const ml::TrainConfig config =
        cs.pipeline->resolve_config(cs.pipeline->default_params());
    results.push_back(min_of(std::string{"ml.train_mlp."} + id, "ns",
                             opts.repeats, [&] {
                               const Stopwatch sw;
                               (void)ml::train_mlp(*cs.pool, config,
                                                   rngx::VariationSeeds{});
                               return sw.elapsed_ns();
                             }));
  }
  return results;
}

std::vector<MicrobenchResult> run_io_microbenches(
    const MicrobenchOptions& opts, const std::string& scratch_dir) {
  constexpr std::size_t kShards = 4;
  const std::size_t rows = scaled(opts.scale, 100'000);
  const fs::path dir =
      fs::path{scratch_dir} /
      ("varbench-bench-io" + std::to_string(campaign::current_process_id()));
  fs::remove_all(dir);
  fs::create_directories(dir);

  const study::ResultTable whole = make_io_table(rows, study::ShardSpec{}, 0);
  std::vector<study::ResultTable> shards;
  const std::size_t per = (rows + kShards - 1) / kShards;
  for (std::size_t i = 0; i < kShards; ++i) {
    const std::size_t begin = std::min(i * per, rows);
    shards.push_back(make_io_table(std::min(per, rows - begin),
                                   study::ShardSpec{i, kShards}, begin));
  }

  std::vector<MicrobenchResult> results;
  for (const std::string format : {"json", "vbt"}) {
    const auto encoding = format == "vbt" ? study::ArtifactFormat::kBinary
                                          : study::ArtifactFormat::kJson;
    const std::string path = (dir / ("whole." + format)).string();
    const std::string bench = "io." + format;

    results.push_back(min_of(bench + "_save", "ns", opts.repeats, [&] {
      const Stopwatch sw;
      whole.save(path, encoding);
      return sw.elapsed_ns();
    }));

    results.push_back(min_of(bench + "_load", "ns", opts.repeats, [&] {
      const Stopwatch sw;
      const std::size_t loaded = study::ResultTable::load(path).rows.size();
      const std::uint64_t ns = sw.elapsed_ns();
      require_rows(bench + "_load", loaded, rows);
      return ns;
    }));

    std::vector<std::string> shard_paths;
    for (std::size_t i = 0; i < kShards; ++i) {
      shard_paths.push_back(
          (dir / ("shard" + std::to_string(i) + "." + format)).string());
      shards[i].save(shard_paths.back(), encoding);
    }
    results.push_back(min_of(bench + "_merge", "ns", opts.repeats, [&] {
      const Stopwatch sw;
      std::vector<study::ResultTable> loaded;
      for (const std::string& p : shard_paths) {
        loaded.push_back(study::ResultTable::load(p));
      }
      const std::size_t merged =
          study::merge_result_tables(std::move(loaded)).rows.size();
      const std::uint64_t ns = sw.elapsed_ns();
      require_rows(bench + "_merge", merged, rows);
      return ns;
    }));
  }

  // The analysis path VBT exists for: map the file and read one f64
  // column in place, decoding nothing else.
  const std::string vbt = (dir / "whole.vbt").string();
  results.push_back(min_of("io.vbt_open_scan", "ns", opts.repeats, [&] {
    const Stopwatch sw;
    const auto mapped = io::columnar::MappedTable::open(vbt);
    const unsigned char* accuracy = mapped->column_data(2);
    double sum = 0.0;
    for (std::size_t r = 0; r < mapped->num_rows(); ++r) {
      double v = 0.0;
      std::memcpy(&v, accuracy + 8 * r, 8);
      sum += v;
    }
    const std::uint64_t ns = sw.elapsed_ns();
    if (!(sum > 0.0)) {  // every accuracy is near 0.87
      throw std::runtime_error{"microbench: io.vbt_open_scan read no accuracy"};
    }
    return ns;
  }));

  fs::remove_all(dir);
  return results;
}

}  // namespace varbench::benchutil
