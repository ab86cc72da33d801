// Synthetic data generators for the paper's evaluation (Section VI-A).
//
// * uniform()      — the paper's Syn- datasets: i.i.d. uniform per dimension
//                    in [0, 100] (worst case for the GPU grid index because
//                    it maximises the number of non-empty cells).
// * sw_like()      — stands in for the SW- ionosphere datasets (lat/lon of
//                    ground stations, optional total-electron-content third
//                    dimension). Real stations repeat the same coordinates
//                    across time, so the data is extremely skewed: a modest
//                    set of "station" locations with jitter dominates.
// * sdss_like()    — stands in for the SDSS DR12 galaxy catalogue: a
//                    Neyman–Scott cluster process (galaxy clusters plus a
//                    uniform field population) in 2-D.
// * gaussian_mixture(), exponential_blob(), ippp() — extra distributions
//                    used by tests and the ablation benches.
//
// All generators are fully deterministic in (n, seed).
#pragma once

#include <cstdint>

#include "common/dataset.hpp"

namespace sj::datagen {

/// Uniform i.i.d. points in [lo, hi]^dim (paper default domain: [0, 100]).
Dataset uniform(std::size_t n, int dim, double lo, double hi,
                std::uint64_t seed);

/// Mixture of `k` isotropic Gaussians with means drawn uniformly in
/// [lo, hi]^dim and the given standard deviation. Points falling outside
/// [lo, hi] are clamped so the domain stays bounded.
Dataset gaussian_mixture(std::size_t n, int dim, int k, double stddev,
                         double lo, double hi, std::uint64_t seed);

/// Ionosphere-monitoring stand-in. `dim` must be 2 or 3.
/// 2-D: (lon, lat)-like coordinates concentrated at `stations` jittered
/// sites arranged along latitude chains (GPS receiver networks).
/// 3-D: adds a smooth large-scale TEC-like value plus noise.
/// Domain is rescaled to approximately [0, 100] per dimension.
Dataset sw_like(std::size_t n, int dim, std::uint64_t seed,
                int stations = 600);

/// Galaxy-survey stand-in (2-D): Neyman–Scott cluster process. A fraction
/// `field_frac` of points is uniform "field" population; the rest belong
/// to clusters with sizes drawn geometrically and Gaussian radial profiles.
/// Domain approximately [0, 100]^2.
Dataset sdss_like(std::size_t n, std::uint64_t seed, double field_frac = 0.35);

/// Exponentially distributed coordinates (sharp density gradient); used by
/// the skew ablation bench and robustness tests.
Dataset exponential_blob(std::size_t n, int dim, double lambda,
                         std::uint64_t seed);

/// Inhomogeneous Poisson point process (IPPP) stand-in, after the point-
/// process simulation workloads of Hohmann 2019: a homogeneous candidate
/// stream over [0, 100]^dim thinned against a smooth multi-bump intensity
/// field whose peak-to-background ratio is `contrast` (>= 1). Large
/// contrasts give strongly skewed data — a few very dense cores over a
/// sparse background — which is the stress case for batch load balance.
Dataset ippp(std::size_t n, int dim, double contrast, std::uint64_t seed);

}  // namespace sj::datagen
