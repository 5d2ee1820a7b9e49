#include "src/hpo/space.h"

#include <gtest/gtest.h>

#include <cmath>

namespace varbench::hpo {
namespace {

SearchSpace demo_space() {
  SearchSpace s;
  s.add({"lr", 1e-4, 1e-1, ScaleKind::kLog})
      .add({"momentum", 0.5, 0.99, ScaleKind::kLinear})
      .add({"hidden", 20.0, 400.0, ScaleKind::kLinear, true});
  return s;
}

TEST(SearchSpace, AddAndQuery) {
  const auto s = demo_space();
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.dim(0).name, "lr");
  EXPECT_TRUE(s.dim(2).integer);
}

TEST(SearchSpace, DuplicateDimensionThrows) {
  SearchSpace s;
  s.add({"lr", 0.0, 1.0});
  EXPECT_THROW(s.add({"lr", 0.0, 2.0}), std::invalid_argument);
}

TEST(SearchSpace, BadBoundsThrow) {
  SearchSpace s;
  EXPECT_THROW(s.add({"a", 1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(s.add({"b", 2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(s.add({"c", 0.0, 1.0, ScaleKind::kLog}), std::invalid_argument);
  EXPECT_THROW(s.add({"", 0.0, 1.0}), std::invalid_argument);
}

TEST(SearchSpace, SampleInBounds) {
  const auto s = demo_space();
  rngx::Rng rng{1};
  for (int i = 0; i < 200; ++i) {
    const auto p = s.sample(rng);
    EXPECT_TRUE(s.contains(p));
    EXPECT_DOUBLE_EQ(p.at("hidden"), std::round(p.at("hidden")));
  }
}

TEST(SearchSpace, LogDimSampledLogUniformly) {
  SearchSpace s;
  s.add({"lr", 1e-4, 1.0, ScaleKind::kLog});
  rngx::Rng rng{2};
  int below_mid = 0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (s.sample(rng).at("lr") < 1e-2) ++below_mid;  // geometric midpoint
  }
  EXPECT_NEAR(static_cast<double>(below_mid) / n, 0.5, 0.02);
}

TEST(SearchSpace, UnitCubeRoundTrip) {
  const auto s = demo_space();
  rngx::Rng rng{3};
  for (int i = 0; i < 50; ++i) {
    const auto p = s.sample(rng);
    const auto u = s.to_unit(p);
    for (const double v : u) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
    const auto back = s.from_unit(u);
    EXPECT_NEAR(back.at("lr"), p.at("lr"), p.at("lr") * 1e-9);
    EXPECT_NEAR(back.at("momentum"), p.at("momentum"), 1e-9);
    EXPECT_DOUBLE_EQ(back.at("hidden"), p.at("hidden"));
  }
}

TEST(SearchSpace, ToUnitMissingDimThrows) {
  const auto s = demo_space();
  EXPECT_THROW((void)s.to_unit({{"lr", 0.01}}), std::invalid_argument);
}

TEST(SearchSpace, FromUnitWrongSizeThrows) {
  const auto s = demo_space();
  EXPECT_THROW((void)s.from_unit(std::vector<double>{0.5}),
               std::invalid_argument);
}

TEST(SearchSpace, ClampBringsIntoRange) {
  const auto s = demo_space();
  const auto p = s.clamp({{"lr", 100.0}, {"momentum", 0.1}, {"hidden", 7.0}});
  EXPECT_DOUBLE_EQ(p.at("lr"), 0.1);
  EXPECT_DOUBLE_EQ(p.at("momentum"), 0.5);
  EXPECT_DOUBLE_EQ(p.at("hidden"), 20.0);
}

TEST(SearchSpace, ContainsDetectsMissingAndOutOfRange) {
  const auto s = demo_space();
  EXPECT_FALSE(s.contains({{"lr", 0.01}}));
  EXPECT_FALSE(
      s.contains({{"lr", 10.0}, {"momentum", 0.7}, {"hidden", 100.0}}));
  EXPECT_TRUE(
      s.contains({{"lr", 0.01}, {"momentum", 0.7}, {"hidden", 100.0}}));
}

}  // namespace
}  // namespace varbench::hpo
