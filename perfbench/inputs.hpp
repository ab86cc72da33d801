// Seeded input generators for the benchmark workloads.
//
// These live in the benchmark, not in src/common/datagen: a change to the
// program's own generators must not change what the benchmark measures.
// The seed picks the sample; the shape of each distribution (bump
// centres and widths, domain) is fixed, so every seed yields an input of
// the same difficulty and the run-to-run spread measures the program, not
// the luck of the draw.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Row-major points, `dim` coordinates each.
struct Points {
  int dim = 0;
  std::vector<double> xyz;

  std::size_t size() const {
    return dim == 0 ? 0 : xyz.size() / static_cast<std::size_t>(dim);
  }
  const double* pt(std::size_t i) const {
    return xyz.data() + i * static_cast<std::size_t>(dim);
  }
};

/// Inhomogeneous Poisson point process in [0, 100]^2: a uniform stream
/// thinned against a fixed six-bump intensity field with peak-to-
/// background contrast 64 (after the point-process workloads of Hohmann
/// 2019). A few dense cores over a sparse background.
Points ippp2d(std::size_t n, std::uint64_t seed);

/// I.i.d. uniform points in [0, 100]^dim (the paper's Syn family).
Points uniform(std::size_t n, int dim, std::uint64_t seed);

/// Deterministic 64-bit generator (xoshiro256**, seeded by splitmix64).
class Rng {
 public:
  explicit Rng(std::uint64_t seed);
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }

 private:
  std::uint64_t s_[4];
};

}  // namespace perfbench
