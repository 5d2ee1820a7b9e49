// The instrumented microbench suite behind `varbench bench`: short,
// deterministic workloads over the hot layers (exec fan-out, pool submit,
// campaign work-queue ops, resampling kernels, MLP training, artifact I/O)
// timed min-of-N — the minimum over repeats strips scheduler noise, which
// is what the perf-trajectory gate (bench/trajectory.h) compares across
// runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace varbench::benchutil {

struct MicrobenchOptions {
  std::size_t repeats = 5;  // min-of-N
  double scale = 1.0;       // work multiplier in (0, ...]
  std::size_t threads = 0;  // exec fan-out width; 0 = all hardware threads
};

struct MicrobenchResult {
  std::string bench;  // trajectory row name, e.g. "exec.parallel_for"
  std::string unit;   // what min_ns measures ("ns", "ns/task", ...)
  std::uint64_t min_ns = 0;
  std::uint64_t repeats = 0;
};

/// exec.parallel_for (metrics off), exec.parallel_for_metrics (same
/// workload, exec metrics enabled on a local sink), exec.parallel_for_trace,
/// exec.pool_submit, exec.pool_submit_batched. Each row is gated against
/// its own trajectory (docs/metrics.md).
[[nodiscard]] std::vector<MicrobenchResult> run_exec_microbenches(
    const MicrobenchOptions& opts);

/// campaign.ticket_cycle (enqueue → claim → complete per ticket),
/// campaign.heartbeat, and campaign.worker_cycle (ns per task of
/// run_campaign over the 8 shards of the default fig04_estimator_cost spec,
/// each a `run` of this executable through subprocess_launcher, at 2
/// workers), on a throwaway directory under `scratch_dir` (removed
/// afterwards).
[[nodiscard]] std::vector<MicrobenchResult> run_campaign_microbenches(
    const MicrobenchOptions& opts, const std::string& scratch_dir);

/// stats.bca_ci_mean_kernel (stats::bca_bootstrap_ci, on the fused index
/// kernels) vs stats.bca_ci_mean_legacy (the
/// pre-kernel path re-enacted: one materialized resample vector per
/// replicate plus one materialized leave-one-out vector per jackknife
/// index) over the same column, resample count, and thread fan-out — the
/// pair is the speedup record of the resampling-kernel rewrite
/// (src/stats/resample_kernels.h). Both paths draw identical RNG streams,
/// so they compute bit-identical intervals; only the memory traffic
/// differs. Then the paired comparison a report runs per column, on
/// scaled(scale, 250'000) pairs: stats.paired_permutation (the sign-flip
/// test, 1000 permutations, src/stats/signflip.h) and
/// stats.paired_win_rate (the P(A>B) bootstrap win rates, 200 resamples).
[[nodiscard]] std::vector<MicrobenchResult> run_stats_microbenches(
    const MicrobenchOptions& opts);

/// math.gemm.mhc_step: the five products of one mhc_mlp training step at
/// its default shapes (batch 64, 24 inputs, 150 hidden, 1 output; hidden
/// outputs and deltas about half zeros), through math::matmul, matmul_nt
/// and matmul_tn, scaled(scale, 600) times per sample. Then
/// ml.train_mlp.{mhc_mlp,cifar10_vgg11,glue_rte_bert}: one whole
/// ml::train_mlp at the case study's default hyperparameters on its pool
/// built at min(scale, 1), so the GEMM kernel (src/math/gemm.h) and the
/// rest of the training step are timed as the paper's fits run them.
/// glue_rte_bert covers the paths the other two skip: Adam, dropout and a
/// frozen first layer.
[[nodiscard]] std::vector<MicrobenchResult> run_ml_microbenches(
    const MicrobenchOptions& opts);

/// io.{json,vbt}_{save,load,merge}: ResultTable::save, ResultTable::load,
/// and the load of 4 shards + merge_result_tables, in each artifact
/// format, then io.vbt_open_scan (io::columnar::MappedTable::open plus a
/// scan of one f64 column through the mapping). The table is
/// variance-study-shaped (seq, source, four measure columns) with
/// scaled(scale, 100'000) rows; its files live in a throwaway directory
/// under `scratch_dir` (removed afterwards). Throws when a load or merge
/// returns the wrong row count.
[[nodiscard]] std::vector<MicrobenchResult> run_io_microbenches(
    const MicrobenchOptions& opts, const std::string& scratch_dir);

}  // namespace varbench::benchutil
