#include "gpusim/sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/fault.hpp"
#include "common/rng.hpp"

namespace sj::gpu {
namespace {

std::vector<Pair> random_pairs(std::size_t n, std::uint32_t key_range,
                               std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Pair> v(n);
  for (auto& p : v) {
    p.key = static_cast<std::uint32_t>(rng.below(key_range));
    p.value = static_cast<std::uint32_t>(rng.below(key_range));
  }
  return v;
}

/// Sorts a copy with std::sort and one with sort_pairs_by_key (its
/// scratch pre-filled with garbage) and asserts equal bytes.
void expect_matches_std_sort(std::vector<Pair> v) {
  auto want = v;
  std::sort(want.begin(), want.end());
  std::vector<Pair> tmp(v.size(), Pair{0xDEADBEEFu, 0xFEEDFACEu});
  sort_pairs_by_key(v.data(), v.size(), tmp.data());
  ASSERT_EQ(v.size(), want.size());
  const auto diff = std::mismatch(v.begin(), v.end(), want.begin());
  EXPECT_TRUE(diff.first == v.end())
      << "first difference at index " << (diff.first - v.begin()) << " of "
      << v.size();
}

TEST(DeviceSort, MatchesStdSort) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    auto v = random_pairs(10000, 1u << 20, seed);
    auto want = v;
    std::sort(want.begin(), want.end());
    std::vector<Pair> tmp(v.size());
    sort_pairs_by_key(v.data(), v.size(), tmp.data());
    EXPECT_EQ(v, want);
  }
}

TEST(DeviceSort, SmallKeyRangeTriggersPassElision) {
  // Keys/values below 2^16: the two high-digit passes are identities.
  auto v = random_pairs(20000, 1u << 12, 7);
  auto want = v;
  std::sort(want.begin(), want.end());
  std::vector<Pair> tmp(v.size());
  sort_pairs_by_key(v.data(), v.size(), tmp.data());
  EXPECT_EQ(v, want);
}

TEST(DeviceSort, LargeKeysUseAllPasses) {
  auto v = random_pairs(5000, 0xFFFFFFFFu, 11);
  auto want = v;
  std::sort(want.begin(), want.end());
  std::vector<Pair> tmp(v.size());
  sort_pairs_by_key(v.data(), v.size(), tmp.data());
  EXPECT_EQ(v, want);
}

TEST(DeviceSort, EmptyAndSingle) {
  std::vector<Pair> tmp(4);
  std::vector<Pair> empty;
  sort_pairs_by_key(empty.data(), 0, tmp.data());
  std::vector<Pair> one{{5, 6}};
  sort_pairs_by_key(one.data(), 1, tmp.data());
  EXPECT_EQ(one[0], (Pair{5, 6}));
}

TEST(DeviceSort, AlreadySorted) {
  std::vector<Pair> v;
  for (std::uint32_t i = 0; i < 1000; ++i) v.push_back({i, i * 2});
  auto want = v;
  std::vector<Pair> tmp(v.size());
  sort_pairs_by_key(v.data(), v.size(), tmp.data());
  EXPECT_EQ(v, want);
}

TEST(DeviceSort, AllEqual) {
  std::vector<Pair> v(500, Pair{3, 4});
  std::vector<Pair> tmp(v.size());
  sort_pairs_by_key(v.data(), v.size(), tmp.data());
  for (const auto& p : v) EXPECT_EQ(p, (Pair{3, 4}));
}

TEST(DeviceSort, StableGroupingByKey) {
  auto v = random_pairs(30000, 200, 13);  // many duplicates per key
  std::vector<Pair> tmp(v.size());
  sort_pairs_by_key(v.data(), v.size(), tmp.data());
  for (std::size_t i = 1; i < v.size(); ++i) {
    EXPECT_LE(v[i - 1], v[i]);
  }
}

// ---------------------------------------------------------------- at scale
//
// The cases above stay below the MSD split (one bucket holds ~4096
// pairs). These reach it, with the shapes a batch actually has.

TEST(DeviceSort, SelfJoinBatchShapeAtScale) {
  // ~1M pairs over ids below 2^21 (a 2M-point input), emitted as a
  // UNICOMP batch does: each (key, value) followed by its reverse, so
  // half the keys lie outside any one contiguous slot range.
  Xoshiro256 rng(21);
  std::vector<Pair> v;
  v.reserve(1u << 20);
  while (v.size() < (1u << 20)) {
    const auto key = static_cast<std::uint32_t>(rng.below(1u << 21));
    const auto value = static_cast<std::uint32_t>(rng.below(1u << 21));
    v.push_back({key, value});
    v.push_back({value, key});
  }
  expect_matches_std_sort(std::move(v));
}

TEST(DeviceSort, OneKeyHoldingNinetyPercent) {
  // One MSD bucket gets ~90% of the pairs and is far larger than a
  // cache-sized bucket; the rest spread over the whole key range.
  Xoshiro256 rng(23);
  std::vector<Pair> v(400'000);
  for (auto& p : v) {
    p.key = rng.below(10) == 0 ? static_cast<std::uint32_t>(rng.below(1u << 21))
                               : 777'777u;
    p.value = static_cast<std::uint32_t>(rng.below(1u << 21));
  }
  expect_matches_std_sort(std::move(v));
}

TEST(DeviceSort, FullWidthKeysAndValuesAtScale) {
  // 64 significant bits: nothing to trim from the packed word.
  auto v = random_pairs(300'000, 0xFFFFFFFFu, 29);
  v.push_back({0xFFFFFFFFu, 0xFFFFFFFFu});
  v.push_back({0, 0});
  expect_matches_std_sort(std::move(v));
}

TEST(DeviceSort, ZeroKeysOrZeroValuesAtScale) {
  Xoshiro256 rng(31);
  std::vector<Pair> keys0(100'000), values0(100'000);
  for (auto& p : keys0) p = {0, static_cast<std::uint32_t>(rng.next())};
  for (auto& p : values0) p = {static_cast<std::uint32_t>(rng.next()), 0};
  expect_matches_std_sort(std::move(keys0));
  expect_matches_std_sort(std::move(values0));
  expect_matches_std_sort(std::vector<Pair>(100'000, Pair{0, 0}));
}

TEST(DeviceSort, EveryBucketCountStep) {
  // The bucket count doubles each time n passes 4096 * 2^k; check n at
  // and just past each step, and around the comparison-sort cut-off.
  std::vector<std::size_t> sizes = {95, 96, 97, 4095};
  for (std::size_t n = 4096; n <= (std::size_t{1} << 19); n *= 2) {
    sizes.push_back(n);
    sizes.push_back(n + 1);
  }
  for (const std::size_t n : sizes) {
    SCOPED_TRACE("n = " + std::to_string(n));
    expect_matches_std_sort(random_pairs(n, 1u << 21, 37 + n));
  }
}

TEST(DeviceSort, InjectedSortFaultLeavesInputUntouched) {
  if (!fault::kFaultsCompiledIn) {
    GTEST_SKIP() << "fault hooks compiled out (-DSJ_FAULTS=OFF)";
  }
  struct Disable {
    ~Disable() { fault::disable(); }
  } disable_after;
  fault::configure_from_text("sort:1,seed:1");
  const auto input = random_pairs(50'000, 1u << 21, 41);
  auto v = input;
  std::vector<Pair> tmp(v.size(), Pair{1, 2});
  {
    fault::DeviceScope scope(-1);
    EXPECT_THROW(sort_pairs_by_key(v.data(), v.size(), tmp.data()),
                 fault::TransientDeviceError);
  }
  EXPECT_EQ(fault::injected(fault::Site::kSort), 1u);
  EXPECT_EQ(v, input);
  EXPECT_EQ(tmp, std::vector<Pair>(tmp.size(), Pair{1, 2}));
}

}  // namespace
}  // namespace sj::gpu
