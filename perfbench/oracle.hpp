// Independent correctness oracles for the benchmark.
//
// Nothing here includes or calls the program under test: the self-join
// oracle is its own sort-based grid over at most four dimensions, and the
// range and kNN oracles are brute force. Every check returns the list of
// what failed (empty when the output is correct), so a run can count and
// print failures instead of stopping at the first.
//
// Distances follow the program's convention: squared Euclidean distance,
// summed in dimension order, compared with eps * eps.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "inputs.hpp"

namespace perfbench {

/// Order-independent digest of one ordered pair. Summing it over a pair
/// multiset gives a fingerprint that changes when any pair is dropped,
/// duplicated or altered, whatever the order of the pairs.
inline std::uint64_t pair_digest(std::uint32_t key, std::uint32_t value) {
  std::uint64_t z = (static_cast<std::uint64_t>(key) << 32) | value;
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

inline double sq_distance(const Points& p, std::size_t a, std::size_t b) {
  double acc = 0.0;
  for (int j = 0; j < p.dim; ++j) {
    const double d = p.pt(a)[j] - p.pt(b)[j];
    acc += d * d;
  }
  return acc;
}

/// The true self-join: every ordered pair (a, b) with dist <= eps, self
/// pairs included.
struct JoinTruth {
  std::uint64_t total = 0;
  std::vector<std::uint32_t> counts;  ///< neighbours per point, self included
  std::uint64_t fingerprint = 0;      ///< sum of pair_digest over all pairs
};

JoinTruth oracle_self_join(const Points& p, double eps);

/// Checks a self-join output against the truth: total, per-point counts,
/// fingerprint, every pair within eps, every self pair present. `P` is
/// any type with `key` and `value` members.
template <class P>
std::vector<std::string> check_self_join(const P* pairs, std::size_t count,
                                         const Points& p, double eps,
                                         const JoinTruth& truth);

/// Brute-force range query: ids within eps of `center`, ascending.
std::vector<std::uint32_t> oracle_range(const Points& p, const double* center,
                                        double eps);

/// Checks one range answer: ids ascending, equal to the oracle's, and
/// `count` equal to their number.
std::vector<std::string> check_range(const std::vector<std::uint32_t>& ids,
                                     std::uint64_t count,
                                     const std::vector<std::uint32_t>& truth);

/// Brute-force self-kNN of point `q`: the k smallest distances to the
/// other points (the point itself excluded, exact duplicates kept),
/// ascending.
std::vector<double> oracle_knn(const Points& p, std::size_t q, int k);

/// Checks one kNN answer on distances, not ids (ties make ids ambiguous).
std::vector<std::string> check_knn(const std::vector<double>& distances,
                                   const std::vector<double>& truth);

// ------------------------------------------------------------------------

template <class P>
std::vector<std::string> check_self_join(const P* pairs, std::size_t count,
                                         const Points& p, double eps,
                                         const JoinTruth& truth) {
  const std::size_t n = p.size();
  const double eps2 = eps * eps;
  std::vector<std::uint32_t> counts(n, 0);
  std::vector<unsigned char> has_self(n, 0);
  std::uint64_t fingerprint = 0;
  std::uint64_t out_of_range = 0;
  std::uint64_t beyond_eps = 0;
  const auto signed_count = static_cast<std::int64_t>(count);
#pragma omp parallel for reduction(+ : fingerprint, out_of_range, beyond_eps)
  for (std::int64_t i = 0; i < signed_count; ++i) {
    const std::uint32_t a = pairs[i].key;
    const std::uint32_t b = pairs[i].value;
    if (a >= n || b >= n) {
      ++out_of_range;
      continue;
    }
    fingerprint += pair_digest(a, b);
#pragma omp atomic
    ++counts[a];
    if (a == b) {
#pragma omp atomic write
      has_self[a] = 1;
    } else if (sq_distance(p, a, b) > eps2) {
      ++beyond_eps;
    }
  }
  std::vector<std::string> failures;
  if (count != truth.total) {
    failures.push_back("total: " + std::to_string(count) + " pairs, expected " +
                       std::to_string(truth.total));
  }
  if (out_of_range > 0) {
    failures.push_back(std::to_string(out_of_range) + " pairs name ids >= n");
  }
  if (beyond_eps > 0) {
    failures.push_back(std::to_string(beyond_eps) + " pairs lie beyond eps");
  }
  std::size_t bad_counts = 0;
  std::size_t first_bad = 0;
  std::size_t missing_self = 0;
  for (std::size_t i = n; i-- > 0;) {
    if (counts[i] != truth.counts[i]) {
      ++bad_counts;
      first_bad = i;
    }
    missing_self += has_self[i] == 0 ? 1 : 0;
  }
  if (bad_counts > 0) {
    failures.push_back(std::to_string(bad_counts) +
                       " points have a wrong neighbour count (first: point " +
                       std::to_string(first_bad) + " has " +
                       std::to_string(counts[first_bad]) + ", expected " +
                       std::to_string(truth.counts[first_bad]) + ")");
  }
  if (missing_self > 0) {
    failures.push_back(std::to_string(missing_self) +
                       " points lack their self pair");
  }
  if (fingerprint != truth.fingerprint) {
    failures.push_back("pair-multiset fingerprint differs from the oracle's");
  }
  return failures;
}

}  // namespace perfbench
