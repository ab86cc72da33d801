#include "oracle.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace perfbench {
namespace {

// The oracle grids on at most this many leading dimensions. Beyond four,
// the 3^g neighbour cells cost more than the extra pruning saves on the
// benchmark's inputs; the full distance is always checked.
constexpr int kMaxGridDims = 4;

}  // namespace

JoinTruth oracle_self_join(const Points& p, double eps) {
  const std::size_t n = p.size();
  const int g = std::min(p.dim, kMaxGridDims);
  const double width = eps > 0.0 ? eps : 1.0;
  const double eps2 = eps * eps;

  double lo[kMaxGridDims];
  std::uint64_t extent[kMaxGridDims];
  std::uint64_t stride[kMaxGridDims];
  for (int j = 0; j < g; ++j) {
    lo[j] = n == 0 ? 0.0 : p.pt(0)[j];
    double hi = lo[j];
    for (std::size_t i = 0; i < n; ++i) {
      lo[j] = std::min(lo[j], p.pt(i)[j]);
      hi = std::max(hi, p.pt(i)[j]);
    }
    // Cell coordinates are shifted by one so that every neighbour offset
    // of -1 stays non-negative; two spare cells per dimension.
    extent[j] = static_cast<std::uint64_t>((hi - lo[j]) / width) + 3;
  }
  std::uint64_t cells = 1;
  for (int j = 0; j < g; ++j) {
    stride[j] = cells;
    if (cells > (std::uint64_t{1} << 62) / extent[j]) {
      throw std::runtime_error("oracle_self_join: grid too fine for eps");
    }
    cells *= extent[j];
  }

  std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed(n);
#pragma omp parallel for
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t key = 0;
    for (int j = 0; j < g; ++j) {
      const auto c = static_cast<std::uint64_t>((p.pt(i)[j] - lo[j]) / width) + 1;
      key += c * stride[j];
    }
    keyed[i] = {key, static_cast<std::uint32_t>(i)};
  }
  std::sort(keyed.begin(), keyed.end());

  // Distinct cells and where each starts in the sorted order.
  std::vector<std::uint64_t> cell_key;
  std::vector<std::size_t> cell_start;
  for (std::size_t i = 0; i < n; ++i) {
    if (i == 0 || keyed[i].first != keyed[i - 1].first) {
      cell_key.push_back(keyed[i].first);
      cell_start.push_back(i);
    }
  }
  cell_start.push_back(n);

  // Linear offsets of the 3^g neighbour cells.
  std::vector<std::int64_t> offsets{0};
  for (int j = 0; j < g; ++j) {
    std::vector<std::int64_t> next;
    for (const std::int64_t o : offsets) {
      for (int d = -1; d <= 1; ++d) {
        next.push_back(o + d * static_cast<std::int64_t>(stride[j]));
      }
    }
    offsets = std::move(next);
  }

  JoinTruth truth;
  truth.counts.assign(n, 0);
  std::uint64_t total = 0;
  std::uint64_t fingerprint = 0;
  const auto num_cells = static_cast<std::int64_t>(cell_key.size());
#pragma omp parallel for schedule(dynamic, 16) reduction(+ : total, fingerprint)
  for (std::int64_t c = 0; c < num_cells; ++c) {
    const auto cell = static_cast<std::size_t>(c);
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    for (const std::int64_t o : offsets) {
      const std::uint64_t want = cell_key[cell] + static_cast<std::uint64_t>(o);
      const auto it = std::lower_bound(cell_key.begin(), cell_key.end(), want);
      if (it != cell_key.end() && *it == want) {
        const auto idx = static_cast<std::size_t>(it - cell_key.begin());
        ranges.emplace_back(cell_start[idx], cell_start[idx + 1]);
      }
    }
    for (std::size_t s = cell_start[cell]; s < cell_start[cell + 1]; ++s) {
      const std::uint32_t a = keyed[s].second;
      std::uint32_t found = 0;
      for (const auto& [begin, end] : ranges) {
        for (std::size_t t = begin; t < end; ++t) {
          const std::uint32_t b = keyed[t].second;
          if (sq_distance(p, a, b) <= eps2) {
            ++found;
            fingerprint += pair_digest(a, b);
          }
        }
      }
      truth.counts[a] = found;
      total += found;
    }
  }
  truth.total = total;
  truth.fingerprint = fingerprint;
  return truth;
}

std::vector<std::uint32_t> oracle_range(const Points& p, const double* center,
                                        double eps) {
  std::vector<std::uint32_t> ids;
  const double eps2 = eps * eps;
  for (std::size_t i = 0; i < p.size(); ++i) {
    double acc = 0.0;
    for (int j = 0; j < p.dim; ++j) {
      const double d = p.pt(i)[j] - center[j];
      acc += d * d;
    }
    if (acc <= eps2) ids.push_back(static_cast<std::uint32_t>(i));
  }
  return ids;
}

std::vector<std::string> check_range(const std::vector<std::uint32_t>& ids,
                                     std::uint64_t count,
                                     const std::vector<std::uint32_t>& truth) {
  std::vector<std::string> failures;
  if (!std::is_sorted(ids.begin(), ids.end())) {
    failures.push_back("range ids are not ascending");
  }
  if (count != ids.size()) {
    failures.push_back("range count " + std::to_string(count) +
                       " disagrees with its " + std::to_string(ids.size()) +
                       " ids");
  }
  std::vector<std::uint32_t> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  if (sorted != truth) {
    failures.push_back("range ids differ from brute force (" +
                       std::to_string(ids.size()) + " vs " +
                       std::to_string(truth.size()) + ")");
  }
  return failures;
}

std::vector<double> oracle_knn(const Points& p, std::size_t q, int k) {
  std::vector<double> d2;
  d2.reserve(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (i != q) d2.push_back(sq_distance(p, q, i));
  }
  const std::size_t keep = std::min(d2.size(), static_cast<std::size_t>(k));
  std::partial_sort(d2.begin(), d2.begin() + static_cast<std::ptrdiff_t>(keep),
                    d2.end());
  d2.resize(keep);
  for (double& v : d2) v = std::sqrt(v);
  return d2;
}

std::vector<std::string> check_knn(const std::vector<double>& distances,
                                   const std::vector<double>& truth) {
  std::vector<std::string> failures;
  if (distances.size() != truth.size()) {
    failures.push_back("kNN list has " + std::to_string(distances.size()) +
                       " entries, expected " + std::to_string(truth.size()));
    return failures;
  }
  for (std::size_t j = 0; j < truth.size(); ++j) {
    if (std::abs(distances[j] - truth[j]) > 1e-9 * std::max(1.0, truth[j])) {
      failures.push_back("kNN distance " + std::to_string(j) + " is " +
                         std::to_string(distances[j]) + ", expected " +
                         std::to_string(truth[j]));
      break;
    }
  }
  return failures;
}

}  // namespace perfbench
