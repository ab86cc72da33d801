// Proves that each correctness check of the benchmark fires: the grid
// oracle is first cross-checked against an O(n^2) loop, then correct
// outputs are corrupted one way at a time (a pair dropped, a pair
// duplicated, a pair beyond eps, a self pair replaced, range ids out of
// order or missing, a kNN distance perturbed) and the matching check
// must report it.
//
// Run: ctest --test-dir .bench_build/perfbench  (or the oracle_test binary)
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "oracle.hpp"

namespace {

struct Pair {
  std::uint32_t key;
  std::uint32_t value;
};

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what.c_str());
    ++failures;
  }
}

bool mentions(const std::vector<std::string>& fails, const std::string& word) {
  return std::any_of(fails.begin(), fails.end(), [&](const std::string& f) {
    return f.find(word) != std::string::npos;
  });
}

std::vector<Pair> brute_self_join(const perfbench::Points& p, double eps) {
  std::vector<Pair> out;
  for (std::size_t a = 0; a < p.size(); ++a) {
    for (std::size_t b = 0; b < p.size(); ++b) {
      if (perfbench::sq_distance(p, a, b) <= eps * eps) {
        out.push_back({static_cast<std::uint32_t>(a), static_cast<std::uint32_t>(b)});
      }
    }
  }
  return out;
}

void self_join_checks(const perfbench::Points& p, double eps, const char* label) {
  const std::string tag = label;
  const auto truth = perfbench::oracle_self_join(p, eps);
  std::vector<Pair> pairs = brute_self_join(p, eps);
  // Shuffle the order: the checks must not depend on it.
  std::reverse(pairs.begin(), pairs.end());
  const auto check = [&](const std::vector<Pair>& v) {
    return perfbench::check_self_join(v.data(), v.size(), p, eps, truth);
  };
  expect(truth.total == pairs.size() && truth.total > 2 * p.size(),
         tag + ": grid oracle total equals brute force and has non-self pairs");
  expect(check(pairs).empty(), tag + ": a correct output passes");

  std::size_t non_self = 0;
  while (pairs[non_self].key == pairs[non_self].value) ++non_self;

  auto dropped = pairs;
  dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(non_self));
  const auto f_drop = check(dropped);
  expect(mentions(f_drop, "total") && mentions(f_drop, "neighbour count") &&
             mentions(f_drop, "fingerprint"),
         tag + ": one dropped pair fires total, counts and fingerprint");

  auto duplicated = pairs;
  duplicated.push_back(pairs[non_self]);
  const auto f_dup = check(duplicated);
  expect(mentions(f_dup, "total") && mentions(f_dup, "neighbour count") &&
             mentions(f_dup, "fingerprint"),
         tag + ": one duplicated pair fires total, counts and fingerprint");

  // Same size, same per-point counts: only the eps and fingerprint checks
  // can see a pair whose value was moved to a far point.
  auto far = pairs;
  std::uint32_t far_id = 0;
  while (perfbench::sq_distance(p, far[non_self].key, far_id) <= eps * eps) ++far_id;
  far[non_self].value = far_id;
  const auto f_far = check(far);
  expect(mentions(f_far, "beyond eps") && mentions(f_far, "fingerprint") &&
             !mentions(f_far, "total"),
         tag + ": a pair beyond eps fires the eps and fingerprint checks only");

  // Replace one self pair by a second copy of a genuine neighbour pair of
  // the same point: total and counts stay right.
  auto no_self = pairs;
  std::size_t self = 0;
  while (no_self[self].key != no_self[self].value ||
         truth.counts[no_self[self].key] < 2) {
    ++self;
  }
  const std::uint32_t k = no_self[self].key;
  const auto other = std::find_if(no_self.begin(), no_self.end(), [&](const Pair& x) {
    return x.key == k && x.value != k;
  });
  no_self[self] = *other;
  const auto f_self = check(no_self);
  expect(mentions(f_self, "self pair") && mentions(f_self, "fingerprint") &&
             !mentions(f_self, "total") && !mentions(f_self, "neighbour count"),
         tag + ": a missing self pair fires the self-pair and fingerprint checks");
}

void range_checks(const perfbench::Points& p, double eps) {
  std::size_t q = 0;
  while (perfbench::oracle_range(p, p.pt(q), eps).size() < 3) ++q;
  const auto truth = perfbench::oracle_range(p, p.pt(q), eps);
  expect(perfbench::check_range(truth, truth.size(), truth).empty(),
         "range: a correct answer passes");

  auto unordered = truth;
  std::swap(unordered.front(), unordered.back());
  expect(mentions(perfbench::check_range(unordered, unordered.size(), truth), "ascending"),
         "range: ids out of order fire the ascending check");

  auto missing = truth;
  missing.pop_back();
  expect(mentions(perfbench::check_range(missing, missing.size(), truth), "brute force"),
         "range: a missing id fires the brute-force comparison");
  expect(mentions(perfbench::check_range(truth, truth.size() + 1, truth), "count"),
         "range: a wrong count fires the count check");
}

void knn_checks(const perfbench::Points& p) {
  for (const int k : {1, 8, 64}) {
    const auto truth = perfbench::oracle_knn(p, 11, k);
    const std::string tag = "knn k=" + std::to_string(k);
    expect(truth.size() == static_cast<std::size_t>(k), tag + ": full list");
    expect(perfbench::check_knn(truth, truth).empty(), tag + ": a correct answer passes");
    auto perturbed = truth;
    perturbed.back() *= 1.0 + 1e-6;
    expect(mentions(perfbench::check_knn(perturbed, truth), "distance"),
           tag + ": a perturbed distance fires");
    auto shorter = truth;
    shorter.pop_back();
    expect(!perfbench::check_knn(shorter, truth).empty(), tag + ": a short list fires");
  }
}

}  // namespace

int main() {
  const auto p2 = perfbench::ippp2d(3000, 1);
  self_join_checks(p2, 1.5, "2-D IPPP");
  // Six dimensions exercise the oracle's partial (four-dimension) grid.
  self_join_checks(perfbench::uniform(2000, 6, 2), 30.0, "6-D uniform");
  range_checks(p2, 1.5);
  knn_checks(p2);
  if (failures == 0) std::printf("oracle_test: all checks fire\n");
  return failures == 0 ? 0 : 1;
}
