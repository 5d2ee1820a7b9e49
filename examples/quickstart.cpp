// Quickstart: compare two learning algorithms the way the paper recommends,
// through the declarative study API (docs/study_api.md).
//
//   1. Describe the experiment as data: a StudySpec of kind "compare"
//      (every ξO source randomized between runs, runs paired — both
//      algorithms see the same ξ in run i, App. C.2).
//   2. Plan the sample size with Noether's formula (App. C.3).
//   3. run_study(spec) → a canonical ResultTable artifact of raw paired
//      measures, reproducible from the spec alone.
//   4. Decide with the probability-of-outperforming test: A beats B only if
//      the result is statistically significant AND meaningful (App. C.6).
//
// Usage: quickstart [case_study_id] [scale] [artifact_out.json]
#include <cstdio>
#include <string>

#include "src/varbench.h"

int main(int argc, char** argv) {
  using namespace varbench;
  const std::string task = argc > 1 ? argv[1] : "cifar10_vgg11";
  const double scale = argc > 2 ? std::atof(argv[2]) : 0.25;

  std::printf("varbench quickstart — task %s, scale %.2f\n", task.c_str(),
              scale);

  // Step 2: how many paired runs do we need for γ=0.75?
  const std::size_t n = stats::noether_sample_size(0.75, 0.05, 0.2);
  std::printf("planned sample size (gamma=0.75, alpha=0.05, beta=0.2): %zu\n",
              n);

  // Step 1: the experiment, as data. Algorithm A is the tuned defaults;
  // algorithm B the same pipeline with a deliberately worse learning rate
  // (defaults × 0.05) — the kind of difference a benchmark should detect.
  study::StudySpec spec;
  spec.kind = study::StudyKind::kCompare;
  spec.case_study = task;
  spec.scale = scale;
  spec.seed = 20260612;
  spec.repetitions = n;
  spec.figure.lr_mult = 0.05;
  std::printf("spec:\n%s", spec.to_json_text().c_str());

  // Step 3: run it. The table holds the raw paired measures — shard it
  // across processes with spec.shard and merge_result_tables() and you get
  // these exact rows back (see examples/sharded_study.cpp).
  const auto table = study::run_study(spec);
  const auto pa = table.column_values("perf_a");
  const auto pb = table.column_values("perf_b");
  for (std::size_t i = 0; i < pa.size(); ++i) {
    std::printf("  run %2zu: A=%.4f  B=%.4f\n", i + 1, pa[i], pb[i]);
  }

  // Step 4: the recommended decision criterion, derived from the artifact.
  std::printf("\n");
  study::print_summary(table, stdout);
  std::printf(
      "\n(the decision used the full distributions, not just the averages)\n");

  if (argc > 3) {
    io::write_file(argv[3], table.to_json_text());
    std::printf("wrote artifact %s\n", argv[3]);
  }
  return 0;
}
