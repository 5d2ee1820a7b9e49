// Two-process fan-out of one case study, demonstrated in-process.
//
// The ROADMAP's scaling recipe: run each case study's variance study as
// separate OS processes, each seeded by derive_seed(master, case_study_id),
// each computing one shard i/N of the repetition range, and merge the shard
// artifacts into the exact unsharded result. This example executes both
// shard runs in one process (the runs share nothing but the spec, exactly
// like two `varbench run` processes would) and verifies byte-identity of
// the merged artifact against the unsharded run.
//
// The equivalent real two-process fan-out (see docs/study_api.md):
//
//   echo '{"kind": "variance", "case_study": "cifar10_vgg11",
//          "seed": <derived>, "repetitions": 8,
//          "params": {"hpo_budget": 4}}' > spec.json
//   varbench run spec.json --shard 0/2 --out s0.json &
//   varbench run spec.json --shard 1/2 --out s1.json &
//   wait
//   varbench merge s0.json s1.json --out merged.json
//
// Usage: sharded_study [case_study_id] [scale]
#include <cstdio>
#include <string>

#include "src/varbench.h"

int main(int argc, char** argv) {
  using namespace varbench;
  const std::string task = argc > 1 ? argv[1] : "cifar10_vgg11";
  const double scale = argc > 2 ? std::atof(argv[2]) : 0.1;

  // One master seed for the whole campaign; each case study gets its own
  // independent stream, so adding/removing case studies never perturbs the
  // others (the determinism contract of docs/determinism.md).
  const std::uint64_t master = 20260727;
  study::StudySpec spec;
  spec.kind = study::StudyKind::kVariance;
  spec.case_study = task;
  spec.scale = scale;
  spec.seed = rngx::derive_seed(master, task);
  spec.repetitions = 8;
  spec.figure.hpo_budget = 4;

  std::printf("sharded_study — task %s, seed derive_seed(%llu, task) = %llu\n",
              task.c_str(), static_cast<unsigned long long>(master),
              static_cast<unsigned long long>(spec.seed));

  // "Process" 1 and 2: each computes its contiguous slice of every
  // repetition loop. Shard runs share no state — only the spec.
  std::vector<study::ResultTable> shards;
  for (std::size_t i = 0; i < 2; ++i) {
    study::StudySpec shard_spec = spec;
    shard_spec.shard = study::ShardSpec{i, 2};
    shards.push_back(study::run_study(shard_spec));
    std::printf("  shard %zu/2: %zu rows\n", i, shards.back().rows.size());
  }

  // The coordinator: merge and verify against the unsharded run.
  const auto merged = study::merge_result_tables(std::move(shards));
  const auto unsharded = study::run_study(spec);
  const bool identical =
      merged.canonical_text() == unsharded.canonical_text();
  std::printf("merged %zu rows; byte-identical to the unsharded run: %s\n",
              merged.rows.size(), identical ? "yes" : "NO");

  std::printf("\n");
  study::print_summary(merged, stdout);
  return identical ? 0 : 1;
}
