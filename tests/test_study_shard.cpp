// The shard/merge contract: for every shardable study kind, running the
// spec in N shards and merging the shard artifacts is BIT-identical to the
// unsharded run at the same seed — including across different thread
// counts per shard — because repetition RNG streams are keyed by the
// global repetition index (docs/study_api.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/study/result_table.h"
#include "src/study/study_runner.h"
#include "src/study/study_spec.h"

namespace varbench::study {
namespace {

StudySpec tiny_spec(StudyKind kind) {
  StudySpec spec;
  spec.kind = kind;
  spec.case_study = "cifar10_vgg11";
  spec.scale = 0.08;
  spec.seed = 20260727;
  switch (kind) {
    case StudyKind::kVariance:
      spec.repetitions = 5;
      spec.figure.hpo_algorithms = {"random_search"};
      spec.figure.hpo_repetitions = 3;
      spec.figure.hpo_budget = 2;
      break;
    case StudyKind::kCompare:
      spec.repetitions = 5;
      spec.figure.num_resamples = 50;
      break;
    case StudyKind::kEstimator:
      spec.repetitions = 4;
      spec.figure.estimators = {"ideal", "fix_all"};
      spec.figure.hpo_budget = 2;
      break;
    case StudyKind::kDetection:
      spec.repetitions = 4;
      spec.figure.k = 10;
      spec.figure.resamples = 20;
      spec.figure.p_grid = {0.5, 0.9};
      break;
    case StudyKind::kHpo:
      spec.repetitions = 1;
      spec.figure.budget = 3;
      break;
    default:
      // Figure kinds carry their own defaults and are exercised by
      // tests/test_figures_shard.cpp; this helper only builds the five
      // original kinds.
      break;
  }
  return spec;
}

void expect_shards_merge_to_unsharded(StudyKind kind,
                                      std::size_t shard_count) {
  const StudySpec spec = tiny_spec(kind);
  const ResultTable unsharded = run_study(spec);
  ASSERT_TRUE(unsharded.is_complete());

  std::vector<ResultTable> shards;
  for (std::size_t i = 0; i < shard_count; ++i) {
    StudySpec shard_spec = spec;
    shard_spec.shard = ShardSpec{i, shard_count};
    // Vary the thread count per shard: results must not depend on it.
    shard_spec.threads = 1 + i;
    shards.push_back(run_study(shard_spec));
    EXPECT_FALSE(shards.back().is_complete());
  }
  const ResultTable merged = merge_result_tables(std::move(shards));
  EXPECT_EQ(merged.canonical_text(), unsharded.canonical_text())
      << to_string(kind) << " " << shard_count << "-shard merge diverged";
  EXPECT_EQ(merged.rows.size(), unsharded.rows.size());
}

TEST(StudyShard, VarianceTwoAndThreeShards) {
  expect_shards_merge_to_unsharded(StudyKind::kVariance, 2);
  expect_shards_merge_to_unsharded(StudyKind::kVariance, 3);
}

TEST(StudyShard, CompareTwoAndThreeShards) {
  expect_shards_merge_to_unsharded(StudyKind::kCompare, 2);
  expect_shards_merge_to_unsharded(StudyKind::kCompare, 3);
}

TEST(StudyShard, EstimatorTwoAndThreeShards) {
  expect_shards_merge_to_unsharded(StudyKind::kEstimator, 2);
  expect_shards_merge_to_unsharded(StudyKind::kEstimator, 3);
}

TEST(StudyShard, DetectionTwoAndThreeShards) {
  expect_shards_merge_to_unsharded(StudyKind::kDetection, 2);
  expect_shards_merge_to_unsharded(StudyKind::kDetection, 3);
}

TEST(StudyShard, ShardCountLargerThanRepetitions) {
  // More shards than repetitions: some slices are empty — including every
  // variance group and the estimator k-loops — and the merge is still
  // exact (empty slices must not crash the group statistics).
  expect_shards_merge_to_unsharded(StudyKind::kCompare, 7);
  expect_shards_merge_to_unsharded(StudyKind::kVariance, 7);
  expect_shards_merge_to_unsharded(StudyKind::kEstimator, 7);
}

TEST(StudyShard, ArtifactsSurviveSerialization) {
  // Merge after a JSON round-trip of each shard — the cross-process path.
  const StudySpec spec = tiny_spec(StudyKind::kCompare);
  const ResultTable unsharded = run_study(spec);
  std::vector<ResultTable> shards;
  for (std::size_t i = 0; i < 2; ++i) {
    StudySpec shard_spec = spec;
    shard_spec.shard = ShardSpec{i, 2};
    const ResultTable t = run_study(shard_spec);
    shards.push_back(ResultTable::from_json_text(t.to_json_text()));
    EXPECT_EQ(shards.back(), t);
  }
  const ResultTable merged = merge_result_tables(std::move(shards));
  EXPECT_EQ(merged.canonical_text(), unsharded.canonical_text());
}

TEST(StudyShard, HpoRejectsSharding) {
  StudySpec spec = tiny_spec(StudyKind::kHpo);
  spec.shard = ShardSpec{0, 2};
  EXPECT_THROW((void)run_study(spec), std::invalid_argument);
}

TEST(StudyShard, MergeRejectsBadShardSets) {
  const StudySpec spec = tiny_spec(StudyKind::kCompare);
  StudySpec s0 = spec;
  s0.shard = ShardSpec{0, 2};
  StudySpec s1 = spec;
  s1.shard = ShardSpec{1, 2};

  const ResultTable t0 = run_study(s0);
  const ResultTable t1 = run_study(s1);

  // Missing shard.
  EXPECT_THROW((void)merge_result_tables({t0}), io::JsonError);
  // Duplicated shard.
  EXPECT_THROW((void)merge_result_tables({t0, t0}), io::JsonError);
  // Mixed studies (different seed).
  StudySpec other = spec;
  other.seed += 1;
  other.shard = ShardSpec{1, 2};
  EXPECT_THROW((void)merge_result_tables({t0, run_study(other)}),
               io::JsonError);

  // Two studies' shards, two each: the error names both studies, not the
  // shard count (4 tables for a 2-shard study).
  const auto study_shard = [](const std::string& name, std::size_t index) {
    ResultTable t;
    t.name = name;
    t.columns = {"seq", "x"};
    t.shard = ShardSpec{index, 2};
    t.add_row({Cell{std::uint64_t{index}}, Cell{0.5}});
    return t;
  };
  try {
    (void)merge_result_tables({study_shard("alpha", 0), study_shard("alpha", 1),
                               study_shard("beta", 0), study_shard("beta", 1)});
    ADD_FAILURE() << "merge must reject two studies' shards";
  } catch (const io::JsonError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'alpha'"), std::string::npos) << what;
    EXPECT_NE(what.find("'beta'"), std::string::npos) << what;
    EXPECT_NE(what.find("does not belong to the same study"),
              std::string::npos)
        << what;
    EXPECT_EQ(what.find("tables for a"), std::string::npos) << what;
  }

  // A valid shard set whose "seq" cells do not cover 0..n-1 exactly once:
  // a seq held twice, and one past the end.
  const auto seq_shard = [](std::size_t index,
                            const std::vector<std::uint64_t>& seqs) {
    ResultTable t;
    t.name = "seqs";
    t.columns = {"seq", "x"};
    t.shard = ShardSpec{index, 2};
    for (const std::uint64_t seq : seqs) t.add_row({Cell{seq}, Cell{0.5}});
    return t;
  };
  const auto expect_broken = [](ResultTable a, ResultTable b,
                                const std::string& where) {
    try {
      (void)merge_result_tables({std::move(a), std::move(b)});
      ADD_FAILURE() << "merge must throw at " << where;
    } catch (const io::JsonError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(where), std::string::npos) << what;
      EXPECT_NE(what.find("missing rows or two shards overlap"),
                std::string::npos)
          << what;
    }
  };
  expect_broken(seq_shard(0, {0, 1}), seq_shard(1, {1, 2}),
                "shard 1 row 0 (seq 1 of 4)");
  expect_broken(seq_shard(0, {0, 3}), seq_shard(1, {1}),
                "shard 0 row 1 (seq 3 of 3)");
}

TEST(StudyShard, MergeOfUnshardedTableIsIdentity) {
  const ResultTable t = run_study(tiny_spec(StudyKind::kCompare));
  const ResultTable merged = merge_result_tables({t});
  EXPECT_EQ(merged.canonical_text(), t.canonical_text());
}

}  // namespace
}  // namespace varbench::study
