#include "ego/ego.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "bruteforce/brute_force.hpp"
#include "common/datagen.hpp"

namespace sj::ego {
namespace {

class EgoEquality
    : public ::testing::TestWithParam<std::tuple<int, std::string>> {};

TEST_P(EgoEquality, MatchesBruteForce) {
  const auto [dim, kind] = GetParam();
  const double eps = std::pow(2.2, dim - 2);
  Dataset d;
  if (kind == "uniform") {
    d = datagen::uniform(1200, dim, 0.0, 100.0, 300 + dim);
  } else {
    d = datagen::gaussian_mixture(1200, dim, 6, 4.0, 0.0, 100.0, 300 + dim);
  }
  auto got = self_join(d, eps);
  const auto want = brute::self_join(d, eps);
  EXPECT_TRUE(ResultSet::equal_normalized(got.pairs, want.pairs))
      << "dim=" << dim << " kind=" << kind;
}

INSTANTIATE_TEST_SUITE_P(
    DimsKinds, EgoEquality,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6),
                       ::testing::Values("uniform", "clustered")),
    [](const auto& info) {
      return "dim" + std::to_string(std::get<0>(info.param)) + "_" +
             std::get<1>(info.param);
    });

TEST(Ego, MultithreadedMatchesSerial) {
  const auto d = datagen::uniform(3000, 3, 0.0, 100.0, 31);
  Options serial;
  serial.threads = 1;
  Options parallel;
  parallel.threads = 4;
  auto a = self_join(d, 3.0, serial);
  auto b = self_join(d, 3.0, parallel);
  EXPECT_TRUE(ResultSet::equal_normalized(a.pairs, b.pairs));
}

TEST(Ego, ReorderingDoesNotChangeResult) {
  // Skewed per-dimension selectivity: one tight dimension, one wide.
  Dataset d(2);
  const auto base = datagen::uniform(2000, 2, 0.0, 100.0, 33);
  for (std::size_t i = 0; i < base.size(); ++i) {
    double p[2] = {base.coord(i, 0), base.coord(i, 1) * 0.01};
    d.push_back(p);
  }
  Options with_reorder;
  with_reorder.reorder_dims = true;
  Options without;
  without.reorder_dims = false;
  auto a = self_join(d, 1.0, with_reorder);
  auto b = self_join(d, 1.0, without);
  EXPECT_TRUE(ResultSet::equal_normalized(a.pairs, b.pairs));
}

TEST(Ego, ReorderingPutsSelectiveDimensionFirst) {
  // Dimension 1 is compressed into [0, 1] while dimension 0 spans
  // [0, 100]: dimension 0 is far more selective at eps = 1 and must be
  // ordered first.
  Dataset d(2);
  const auto base = datagen::uniform(5000, 2, 0.0, 100.0, 35);
  for (std::size_t i = 0; i < base.size(); ++i) {
    double p[2] = {base.coord(i, 0), base.coord(i, 1) * 0.01};
    d.push_back(p);
  }
  Options opt;
  opt.reorder_dims = true;
  const auto r = self_join(d, 1.0, opt);
  EXPECT_EQ(r.stats.dim_order[0], 0);
  EXPECT_EQ(r.stats.dim_order[1], 1);
}

TEST(Ego, FloatModeCountsCloseToDouble) {
  // 32-bit mode (the paper's Super-EGO configuration) may differ at the
  // eps boundary by rounding; with a boundary-safe dataset the pair count
  // must match the double run.
  const auto d = datagen::uniform(2000, 2, 0.0, 100.0, 37);
  Options f;
  f.use_float = true;
  Options dd;
  dd.use_float = false;
  const auto a = self_join(d, 2.0, f);
  const auto b = self_join(d, 2.0, dd);
  const double rel =
      std::abs(static_cast<double>(a.pairs.size()) -
               static_cast<double>(b.pairs.size())) /
      static_cast<double>(b.pairs.size());
  EXPECT_LT(rel, 1e-3);
}

TEST(Ego, PruningActuallyFires) {
  const auto d = datagen::uniform(5000, 2, 0.0, 100.0, 39);
  const auto r = self_join(d, 1.0);
  EXPECT_GT(r.stats.sequence_pairs_pruned, 0u);
  // Pruning must beat brute force by a wide margin on spread-out data.
  EXPECT_LT(r.stats.distance_calcs, d.size() * d.size() / 10);
}

TEST(Ego, StatsTimingsPopulated) {
  const auto d = datagen::uniform(2000, 2, 0.0, 100.0, 41);
  const auto r = self_join(d, 1.0);
  EXPECT_GT(r.stats.sort_seconds, 0.0);
  EXPECT_GT(r.stats.join_seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.stats.total_seconds(),
                   r.stats.sort_seconds + r.stats.join_seconds);
}

TEST(Ego, EmptyAndSingleton) {
  EXPECT_TRUE(self_join(Dataset(2), 1.0).pairs.empty());
  Dataset one(2, {3.0, 4.0});
  auto r = self_join(one, 1.0);
  r.pairs.normalize();
  ASSERT_EQ(r.pairs.size(), 1u);
  EXPECT_EQ(r.pairs.pairs()[0], (Pair{0, 0}));
}

TEST(Ego, IdenticalPointsAllPair) {
  Dataset d(2, {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0});
  auto r = self_join(d, 0.5);
  r.pairs.normalize();
  EXPECT_EQ(r.pairs.size(), 16u);  // 4 x 4 ordered pairs
}

TEST(Ego, EpsZero) {
  Dataset d(2, {1.0, 1.0, 1.0, 1.0, 5.0, 5.0});
  auto r = self_join(d, 0.0);
  r.pairs.normalize();
  EXPECT_EQ(r.pairs.size(), 5u);
}

TEST(Ego, OutputBytesDoNotDependOnThreadCount) {
  // Unnormalised: the raw pair order itself must match, so the task split
  // and the merge order are both thread-count independent.
  const auto d = datagen::gaussian_mixture(3000, 3, 5, 3.0, 0.0, 60.0, 811);
  Options one;
  one.threads = 1;
  Options four;
  four.threads = 4;
  const auto a = self_join(d, 2.5, one);
  for (int run = 0; run < 3; ++run) {
    const auto b = self_join(d, 2.5, four);
    ASSERT_EQ(a.pairs.size(), b.pairs.size());
    EXPECT_TRUE(a.pairs.pairs() == b.pairs.pairs()) << "run " << run;
    EXPECT_EQ(a.stats.distance_calcs, b.stats.distance_calcs);
    EXPECT_EQ(a.stats.sequence_pairs_pruned, b.stats.sequence_pairs_pruned);
  }
}

TEST(Ego, RejectsNegativeEps) {
  EXPECT_THROW(self_join(Dataset(2), -1.0), std::invalid_argument);
}

}  // namespace
}  // namespace sj::ego
