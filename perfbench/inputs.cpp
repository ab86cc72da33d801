#include "inputs.hpp"

#include <cmath>

namespace perfbench {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// Generation is split into a fixed number of chunks, each with its own
// stream, so the output depends on the seed only — not on how many
// threads fill the chunks.
constexpr std::size_t kChunks = 64;

template <class Fill>
Points chunked(std::size_t n, int dim, std::uint64_t seed, Fill fill) {
  Points p;
  p.dim = dim;
  p.xyz.resize(n * static_cast<std::size_t>(dim));
#pragma omp parallel for schedule(dynamic, 1)
  for (std::size_t c = 0; c < kChunks; ++c) {
    const std::size_t begin = n * c / kChunks;
    const std::size_t end = n * (c + 1) / kChunks;
    Rng rng(seed * kChunks + c);
    fill(rng, p.xyz.data() + begin * static_cast<std::size_t>(dim),
         end - begin);
  }
  return p;
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

Points ippp2d(std::size_t n, std::uint64_t seed) {
  struct Bump {
    double x, y, sigma;
  };
  static constexpr Bump kBumps[] = {{22.0, 31.0, 3.0}, {71.0, 24.0, 5.5},
                                    {48.0, 55.0, 7.5}, {15.0, 78.0, 4.0},
                                    {83.0, 69.0, 2.5}, {58.0, 88.0, 6.0}};
  constexpr double kContrast = 64.0;
  constexpr double kBumpCount = std::size(kBumps);
  return chunked(n, 2, seed, [](Rng& rng, double* out, std::size_t count) {
    for (std::size_t i = 0; i < count;) {
      const double x = rng.uniform(0.0, 100.0);
      const double y = rng.uniform(0.0, 100.0);
      double intensity = 1.0;
      for (const Bump& b : kBumps) {
        const double dx = (x - b.x) / b.sigma;
        const double dy = (y - b.y) / b.sigma;
        intensity += (kContrast - 1.0) / kBumpCount *
                     std::exp(-0.5 * (dx * dx + dy * dy));
      }
      if (rng.uniform() * kContrast <= intensity) {
        out[2 * i] = x;
        out[2 * i + 1] = y;
        ++i;
      }
    }
  });
}

Points uniform(std::size_t n, int dim, std::uint64_t seed) {
  return chunked(n, dim, seed, [dim](Rng& rng, double* out, std::size_t count) {
    for (std::size_t i = 0; i < count * static_cast<std::size_t>(dim); ++i) {
      out[i] = rng.uniform(0.0, 100.0);
    }
  });
}

}  // namespace perfbench
