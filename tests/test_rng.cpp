#include "src/rngx/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

namespace varbench::rngx {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a{7};
  const auto first = a.next_u64();
  (void)a.next_u64();
  a.reseed(7);
  EXPECT_EQ(a.next_u64(), first);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{3};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng{4};
  double sum = 0.0;
  constexpr int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng{5};
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 7.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 7.0);
  }
}

TEST(Rng, LogUniformRespectsBoundsAndScale) {
  Rng rng{6};
  int below_geometric_mean = 0;
  constexpr int n = 20000;
  const double geo_mid = std::sqrt(1e-4 * 1e-0);
  for (int i = 0; i < n; ++i) {
    const double v = rng.log_uniform(1e-4, 1.0);
    EXPECT_GE(v, 1e-4);
    EXPECT_LE(v, 1.0);
    if (v < geo_mid) ++below_geometric_mean;
  }
  // Log-uniform: half the mass below the geometric midpoint.
  EXPECT_NEAR(static_cast<double>(below_geometric_mean) / n, 0.5, 0.02);
}

TEST(Rng, LogUniformRejectsNonPositiveLo) {
  Rng rng{1};
  EXPECT_THROW((void)rng.log_uniform(0.0, 1.0), std::invalid_argument);
}

TEST(Rng, UniformIndexIsUnbiased) {
  Rng rng{8};
  constexpr std::uint64_t n_buckets = 7;
  std::vector<int> counts(n_buckets, 0);
  constexpr int draws = 70000;
  for (int i = 0; i < draws; ++i) ++counts[rng.uniform_index(n_buckets)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), draws / 7.0, 5.0 * std::sqrt(draws / 7.0));
  }
}

TEST(Rng, UniformIndexZeroThrows) {
  Rng rng{1};
  EXPECT_THROW((void)rng.uniform_index(0), std::invalid_argument);
}

TEST(Rng, NormalMomentsMatchStandard) {
  Rng rng{10};
  constexpr int n = 200000;
  double sum = 0.0;
  double sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double z = rng.normal();
    sum += z;
    sumsq += z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sumsq / n, 1.0, 0.02);
}

TEST(Rng, NormalWithParams) {
  Rng rng{11};
  constexpr int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng{12};
  int hits = 0;
  constexpr int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng{13};
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, SampleWithReplacementBounds) {
  Rng rng{14};
  const auto idx = rng.sample_with_replacement(10, 500);
  EXPECT_EQ(idx.size(), 500u);
  for (const auto i : idx) EXPECT_LT(i, 10u);
  // With replacement, duplicates are essentially guaranteed.
  const std::set<std::size_t> unique(idx.begin(), idx.end());
  EXPECT_LT(unique.size(), idx.size());
}

TEST(Rng, SplitGivesIndependentChild) {
  Rng parent{15};
  Rng child = parent.split("worker");
  // Child stream should not equal the parent's continuation.
  Rng parent_copy{15};
  (void)parent_copy.next_u64();  // advance like parent did in split()
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.next_u64() == parent_copy.next_u64()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(DeriveSeed, DistinctTagsDistinctSeeds) {
  const auto a = derive_seed(99, "data_split");
  const auto b = derive_seed(99, "weight_init");
  EXPECT_NE(a, b);
}

TEST(DeriveSeed, Deterministic) {
  EXPECT_EQ(derive_seed(1, "x"), derive_seed(1, "x"));
}

TEST(HashTag, IsStableAndDistinct) {
  EXPECT_EQ(hash_tag("abc"), hash_tag("abc"));
  EXPECT_NE(hash_tag("abc"), hash_tag("abd"));
}

}  // namespace
}  // namespace varbench::rngx
