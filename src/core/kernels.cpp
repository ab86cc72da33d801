#include "core/kernels.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/distance.hpp"
#include "core/validate.hpp"

// The blocked distance loops below are written so the per-dimension lane
// loop is a unit-stride load + FMA stream the compiler can vectorise.
// SJ_DISABLE_SIMD (CMake option, CI leg) drops the vectorisation pragma
// and keeps the identical scalar loop — the semantics-preserving fallback
// for toolchains where `omp simd` misbehaves.
#if defined(SJ_DISABLE_SIMD)
#define SJ_SIMD_LOOP
#else
#define SJ_SIMD_LOOP _Pragma("omp simd")
#endif

namespace sj {

namespace {

/// Per-thread emission helper with local work accounting. Dispatches on
/// the ResultBufferView mode (see its doc comment): pair buffer writes,
/// count-only cursor bumps, histogram counters, or estimator accounting.
struct Emitter {
  const ResultBufferView& r;
  LocalWork& w;

  void bump(std::uint32_t id, std::uint32_t by) const {
    std::atomic_ref<std::uint32_t>(r.counts[id])
        .fetch_add(by, std::memory_order_relaxed);
  }

  void emit(std::uint32_t key, std::uint32_t value) {
    ++w.results;
    if (r.counts != nullptr) {  // histogram mode
      bump(key, 1);
      return;
    }
    if (r.cursor == nullptr) return;  // estimator mode
    const std::uint64_t idx = r.cursor->fetch_add(1);
    if (r.out == nullptr) return;  // count-only mode
    if (idx >= r.capacity) {
      r.overflow->store(true, std::memory_order_relaxed);
      return;
    }
    r.out[idx] = Pair{key, value};
  }

  /// UNICOMP emits both ordered pairs of a find with one atomic
  /// reservation.
  void emit_both(std::uint32_t a, std::uint32_t b) {
    w.results += 2;
    if (r.counts != nullptr) {
      bump(a, 1);
      bump(b, 1);
      return;
    }
    if (r.cursor == nullptr) return;
    const std::uint64_t idx = r.cursor->fetch_add(2);
    if (r.out == nullptr) return;
    if (idx + 2 > r.capacity) {
      r.overflow->store(true, std::memory_order_relaxed);
      return;
    }
    r.out[idx] = Pair{a, b};
    r.out[idx + 1] = Pair{b, a};
  }

  /// Blocked emission for the cell-centric kernel: all of one scan
  /// block's finds are reserved with a SINGLE atomic (two slots per find
  /// when `both` — UNICOMP's "add both ordered pairs" rule).
  void emit_block(std::uint32_t key, const std::uint32_t* values, int count,
                  bool both) {
    const std::uint64_t slots =
        static_cast<std::uint64_t>(count) * (both ? 2 : 1);
    w.results += slots;
    if (r.counts != nullptr) {
      bump(key, static_cast<std::uint32_t>(count));
      if (both) {
        for (int v = 0; v < count; ++v) bump(values[v], 1);
      }
      return;
    }
    if (r.cursor == nullptr) return;
    const std::uint64_t idx = r.cursor->fetch_add(slots);
    if (r.out == nullptr) return;
    if (idx + slots > r.capacity) {
      r.overflow->store(true, std::memory_order_relaxed);
      return;
    }
    Pair* out = r.out + idx;
    if (both) {
      for (int v = 0; v < count; ++v) {
        out[2 * v] = Pair{key, values[v]};
        out[2 * v + 1] = Pair{values[v], key};
      }
    } else {
      for (int v = 0; v < count; ++v) out[v] = Pair{key, values[v]};
    }
  }
};

/// Mask-filtered adjacent coordinates per dimension (Algorithm 1,
/// line 7): the elements of {c_j - 1, c_j, c_j + 1} present in M_j.
inline void filter_adjacent(const GridDeviceView& g, const std::uint32_t* c,
                            std::uint32_t adj[][3], int* adjn) {
  for (int j = 0; j < g.dim; ++j) {
    const std::uint32_t* m = g.M[j];
    const std::uint32_t* mend = m + g.m_size[j];
    const std::uint32_t lo = c[j] == 0 ? 0 : c[j] - 1;
    const std::int64_t hi = static_cast<std::int64_t>(c[j]) + 1;
    int count = 0;
    const std::uint32_t* it = std::lower_bound(m, mend, lo);
    for (; it != mend && static_cast<std::int64_t>(*it) <= hi; ++it) {
      adj[j][count++] = *it;
    }
    adjn[j] = count;
  }
}

/// The point-centric kernel's neighbourhood enumeration (Algorithms 1
/// and 2 as written; the cell-range builders use the run-scan of
/// collect_ranges_at, which visits the same cells in the same order):
/// visit(cc, both_orders) is called for every candidate cell of a home
/// cell at coordinates `c`.
///
/// Full mode (Algorithm 1): the cartesian product of the mask-filtered
/// adjacent coordinates in every dimension, own cell included, all with
/// both_orders = false.
///
/// UNICOMP mode (Algorithm 2, generalised to n dimensions): the home cell
/// in one direction, then for each dimension d with an odd home
/// coordinate the cells where dimensions < d range over all filtered
/// adjacent coordinates, dimension d over the filtered coordinates that
/// differ from home, and dimensions > d stay pinned to home — those with
/// both_orders = true.
template <typename F>
void enumerate_neighborhood(int dim, const std::uint32_t* c,
                            const std::uint32_t adj[][3], const int* adjn,
                            bool unicomp, F&& visit) {
  std::uint32_t cc[kMaxDims];
  if (!unicomp) {
    for (int j = 0; j < dim; ++j) {
      if (adjn[j] == 0) return;  // cannot happen for in-dataset queries
    }
    int idx[kMaxDims] = {};
    for (;;) {
      for (int j = 0; j < dim; ++j) cc[j] = adj[j][idx[j]];
      visit(static_cast<const std::uint32_t*>(cc), /*both_orders=*/false);
      int j = 0;
      while (j < dim) {
        if (++idx[j] < adjn[j]) break;
        idx[j] = 0;
        ++j;
      }
      if (j == dim) break;
    }
    return;
  }

  // Home cell, one direction only: over all points of the cell, every
  // ordered pair (including the self pair) is emitted exactly once.
  visit(c, /*both_orders=*/false);

  for (int d = 0; d < dim; ++d) {
    if ((c[d] & 1u) == 0) continue;  // even coordinate: skip (Algorithm 2)

    // First coordinate of dimension d that differs from home.
    auto next_non_center = [&](int start) {
      int k = start;
      while (k < adjn[d] && adj[d][k] == c[d]) ++k;
      return k;
    };

    int idx[kMaxDims] = {};
    idx[d] = next_non_center(0);
    if (idx[d] >= adjn[d]) continue;  // no non-empty differing neighbour
    bool lower_dims_ok = true;
    for (int j = 0; j < d; ++j) {
      if (adjn[j] == 0) lower_dims_ok = false;
    }
    if (!lower_dims_ok) continue;

    for (;;) {
      for (int j = 0; j < d; ++j) cc[j] = adj[j][idx[j]];
      cc[d] = adj[d][idx[d]];
      for (int j = d + 1; j < dim; ++j) cc[j] = c[j];
      visit(static_cast<const std::uint32_t*>(cc), /*both_orders=*/true);

      // Advance the odometer over positions 0..d (position d skips home).
      int j = 0;
      bool done = false;
      for (;;) {
        if (j < d) {
          if (++idx[j] < adjn[j]) break;
          idx[j] = 0;
          ++j;
        } else {  // j == d
          idx[d] = next_non_center(idx[d] + 1);
          if (idx[d] < adjn[d]) break;
          done = true;
          break;
        }
      }
      if (done) break;
    }
  }
}

/// Evaluate one candidate cell of a point-centric query: binary-search B
/// for existence, then compute distances to every point it contains
/// (Algorithm 1, lines 10-17). `both_orders` implements UNICOMP's "add
/// both (p, q) and (q, p)" rule for neighbour cells. `key` is the
/// ORIGINAL dataset id emitted for the query point.
inline void eval_cell(const SelfJoinKernelParams& p, LocalWork& w,
                      Emitter& em, std::uint32_t key, const double* pt,
                      const std::uint32_t* cc, bool both_orders) {
  const GridDeviceView& g = p.grid;
  const std::uint64_t lin = g.linearize(cc);
  ++w.cells_examined;
  const std::uint64_t* end = g.B + g.b_size;
  const std::uint64_t* it = std::lower_bound(g.B, end, lin);
  if (it == end || *it != lin) return;
  ++w.cells_nonempty;

  const GridIndex::CellRange range = g.G[it - g.B];
  SJ_INVARIANT(static_cast<std::uint64_t>(range.max) < g.n,
               "G cell range must stay inside the point count");
  const double eps2 = g.eps * g.eps;
  for (std::uint32_t k = range.min; k <= range.max; ++k) {
    const double* qt = g.candidate_point(k);
    w.global_loads += static_cast<std::uint64_t>(g.dim);
    w.global_load_bytes += static_cast<std::uint64_t>(g.dim) * sizeof(double);
    if (p.cache != nullptr) {
      p.cache->access(reinterpret_cast<std::uint64_t>(qt),
                      static_cast<unsigned>(g.dim) * sizeof(double));
    }
    ++w.distance_calcs;
    const double d2 = sq_dist_early_exit(pt, qt, g.dim, eps2);
    if (d2 <= eps2) {
      const std::uint32_t q = g.candidate_id(k);
      if (both_orders) {
        em.emit_both(key, q);
      } else {
        em.emit(key, q);
      }
    }
  }
}

/// Powers of three: kPow3[j] cursor slots cover the offsets of j outer
/// dimensions.
constexpr std::array<std::size_t, kMaxDims + 1> kPow3 = [] {
  std::array<std::size_t, kMaxDims + 1> p{};
  p[0] = 1;
  for (int j = 1; j <= kMaxDims; ++j) p[j] = p[j - 1] * 3;
  return p;
}();

/// The B positions the run-scan enumerator seeks from: one cursor per
/// offset of dimensions 1..dim-1 from the home cell (3^(dim-1) of them),
/// plus one for the home cell itself. Any position in [0, b_size] is a
/// correct cursor; it only decides how far a seek has to look. Walking
/// home cells in ascending B order moves every cursor forward only.
struct RunCursors {
  std::uint32_t pos[kPow3[kMaxDims - 1] + 1];

  explicit RunCursors(int dim) { reset(dim); }
  void reset(int dim) {
    std::fill_n(pos, kPow3[static_cast<std::size_t>(std::max(dim, 1) - 1)] + 1,
                0u);
  }
};

/// First position i with B[i] >= id (nb when there is none). Gallops
/// forward from `cursor`; when the cursor already lies past the answer,
/// falls back to a binary search of [0, cursor), so any cursor gives the
/// right answer. With home cells taken in ascending id order no run
/// starts behind its cursor, so the fallback only guards callers that
/// visit cells in another order.
inline std::uint64_t seek_cell(const std::uint64_t* B, std::uint64_t nb,
                               std::uint64_t cursor, std::uint64_t id) {
  if (cursor > 0 && B[cursor - 1] >= id) {
    return static_cast<std::uint64_t>(std::lower_bound(B, B + cursor, id) -
                                      B);
  }
  // Everything before `base` is below `id`.
  std::uint64_t base = cursor;
  std::uint64_t step = 1;
  while (base + step <= nb && B[base + step - 1] < id) {
    base += step;
    step *= 2;
  }
  const std::uint64_t hi = std::min(base + step, nb);
  return static_cast<std::uint64_t>(
      std::lower_bound(B + base, B + hi, id) - B);
}

/// Build the candidate slot-range list of the cell at coordinates `c`:
/// mask-filter the adjacency, then visit the candidate cells of the full
/// or UNICOMP neighbourhood in exactly enumerate_neighborhood's order,
/// ONCE PER CELL instead of once per point. Because stride[0] == 1, the
/// candidates that differ only in dimension 0 (c0-1, c0, c0+1 at fixed
/// outer coordinates) have consecutive ids, so each such run is read as
/// one id interval of B: a galloping seek from the cursor of its outer
/// offset, then a forward walk over the entries it holds. Every entry in
/// the interval is a candidate — its dimension-0 coordinate is in M_0 —
/// so the odometer only turns over dimensions 1..dim-1. Work counters
/// stay per candidate cell (cells_examined counts each filtered
/// dimension-0 value). Contiguous ranges with the same orientation are
/// merged: adjacent non-empty cells occupy adjacent slot ranges in the
/// cell-major layout, so the 3^n candidate cells frequently collapse into
/// a few long scans. `c` need not name a non-empty cell itself (a join
/// query group's home cell may hold no data points).
void collect_ranges_at(const GridDeviceView& g, const std::uint32_t* c,
                       bool unicomp, RunCursors& cur, LocalWork& w,
                       std::vector<CandidateRange>& out) {
  SJ_EXPECT(g.stride[0] == 1, "run-scan needs unit stride in dimension 0");
  const std::size_t first = out.size();
  std::uint32_t adj[kMaxDims][3];
  int adjn[kMaxDims];
  filter_adjacent(g, c, adj, adjn);
  const int dim = g.dim;
  const std::uint64_t* B = g.B;
  const std::uint64_t nb = g.b_size;
  constexpr std::uint64_t kNoSkip = std::numeric_limits<std::uint64_t>::max();

  // Append the B entries with ids in [lo, hi], except `skip`.
  auto scan_run = [&](std::size_t slot, std::uint64_t lo, std::uint64_t hi,
                      std::uint64_t skip, std::uint32_t both) {
    std::uint64_t i = seek_cell(B, nb, cur.pos[slot], lo);
    cur.pos[slot] = static_cast<std::uint32_t>(i);
    for (; i < nb && B[i] <= hi; ++i) {
      if (B[i] == skip) continue;
      ++w.cells_nonempty;
      const GridIndex::CellRange r = g.G[i];
      if (out.size() > first && out.back().end == r.min &&
          out.back().both == both) {
        out.back().end = r.max + 1;
      } else {
        out.push_back({r.min, r.max + 1, both});
      }
    }
  };

  // Odometer over dimensions 1..top: those below `top` range over their
  // filtered coordinates, `top` over top_vals, those above stay pinned to
  // home. Each position is one full dimension-0 run.
  auto sweep = [&](int top, const std::uint32_t* top_vals, int top_n,
                   std::uint32_t both) {
    std::uint64_t pinned = 0;
    std::size_t pinned_slot = 0;
    for (int j = top + 1; j < dim; ++j) {
      pinned += static_cast<std::uint64_t>(c[j]) * g.stride[j];
      pinned_slot += kPow3[static_cast<std::size_t>(j - 1)];
    }
    int idx[kMaxDims] = {};
    for (;;) {
      std::uint64_t base = pinned;
      std::size_t slot = pinned_slot;
      for (int j = 1; j <= top; ++j) {
        const std::uint32_t v = j == top ? top_vals[idx[j]] : adj[j][idx[j]];
        base += static_cast<std::uint64_t>(v) * g.stride[j];
        slot += static_cast<std::size_t>(v + 1 - c[j]) *
                kPow3[static_cast<std::size_t>(j - 1)];
      }
      w.cells_examined += static_cast<std::uint64_t>(adjn[0]);
      scan_run(slot, base + adj[0][0], base + adj[0][adjn[0] - 1], kNoSkip,
               both);
      int j = 1;
      while (j <= top) {
        if (++idx[j] < (j == top ? top_n : adjn[j])) break;
        idx[j] = 0;
        ++j;
      }
      if (j > top) break;
    }
  };

  if (!unicomp) {
    for (int j = 0; j < dim; ++j) {
      if (adjn[j] == 0) return;  // cannot happen for in-dataset queries
    }
    sweep(dim - 1, adj[dim - 1], adjn[dim - 1], 0);
    return;
  }

  // Home cell, one direction only; it keeps a cursor of its own so the
  // dimension-0 run below, which may start one cell lower, does not pull
  // a shared cursor backwards.
  const std::uint64_t home = g.linearize(c);
  ++w.cells_examined;
  scan_run(kPow3[static_cast<std::size_t>(dim - 1)], home, home, kNoSkip, 0);

  for (int d = 0; d < dim; ++d) {
    if ((c[d] & 1u) == 0) continue;  // even coordinate: skip (Algorithm 2)
    std::uint32_t moved[3];  // filtered coordinates of d other than home
    int moved_n = 0;
    for (int k = 0; k < adjn[d]; ++k) {
      if (adj[d][k] != c[d]) moved[moved_n++] = adj[d][k];
    }
    if (moved_n == 0) continue;  // no non-empty differing neighbour
    bool lower_dims_ok = true;
    for (int j = 0; j < d; ++j) {
      if (adjn[j] == 0) lower_dims_ok = false;
    }
    if (!lower_dims_ok) continue;

    if (d > 0) {
      sweep(d, moved, moved_n, 1);
      continue;
    }
    // d == 0: one run at the home offset, stepping over home itself.
    std::size_t slot = 0;
    for (int j = 1; j < dim; ++j) slot += kPow3[static_cast<std::size_t>(j - 1)];
    const std::uint64_t outer = home - c[0];
    w.cells_examined += static_cast<std::uint64_t>(moved_n);
    scan_run(slot, outer + moved[0], outer + moved[moved_n - 1], home, 1);
  }
}

/// collect_ranges_at() for a non-empty cell identified by its index into
/// B (the self-join's work unit), decoding the coordinates first.
void collect_cell_ranges(const GridDeviceView& g, std::uint32_t cell_idx,
                         bool unicomp, RunCursors& cur, LocalWork& w,
                         std::vector<CandidateRange>& out) {
  std::uint32_t c[kMaxDims];
  const std::uint64_t lin = g.B[cell_idx];
  for (int j = 0; j < g.dim; ++j) {
    c[j] =
        static_cast<std::uint32_t>((lin / g.stride[j]) % g.cells_per_dim[j]);
  }
  collect_ranges_at(g, c, unicomp, cur, w, out);
}

/// Per-thread scratch for the cell-centric kernel's inline-enumeration
/// mode, reused across work items so neither the range list nor the
/// cursor block is reallocated on the hot path.
thread_local std::vector<CandidateRange> t_ranges;
thread_local RunCursors t_cursors(1);

/// SoA block width: wide enough that a full AVX2/AVX-512 register set
/// covers the lane loop, small enough that a block of partial sums stays
/// in registers.
constexpr int kSoaScanBlock = 16;

/// Scan one contiguous candidate range for one query point over the SoA
/// coordinate planes: for each block of kSoaScanBlock candidates the
/// per-dimension lane loop reads coord[j][k0..k0+bw) — a unit-stride
/// stream with no index arithmetic or gather — and accumulates squared
/// differences branch-free, so the compiler turns it into packed FMAs.
/// The dimension loop still bails out at BLOCK granularity once every
/// lane's partial sum exceeds eps^2.
inline void scan_range_soa(const GridDeviceView& g, LocalWork& w, Emitter& em,
                           std::uint32_t key, const double* pt,
                           const CandidateRange& r, double eps2,
                           gpu::CacheSim* cache) {
  SJ_EXPECT(r.begin < r.end && r.end <= g.n,
            "SoA candidate range must stay inside the slot space");
  const int dim = g.dim;
  double acc[kSoaScanBlock];
  for (std::uint32_t k0 = r.begin; k0 < r.end; k0 += kSoaScanBlock) {
    const int bw = static_cast<int>(
        std::min<std::uint32_t>(kSoaScanBlock, r.end - k0));
    w.distance_calcs += static_cast<std::uint64_t>(bw);
    w.global_loads += static_cast<std::uint64_t>(bw) * dim;
    w.global_load_bytes +=
        static_cast<std::uint64_t>(bw) * dim * sizeof(double);
    if (cache != nullptr) {
      for (int j = 0; j < dim; ++j) {
        cache->access(reinterpret_cast<std::uint64_t>(g.coord[j] + k0),
                      static_cast<unsigned>(bw) * sizeof(double));
      }
    }
    // Fused single-pass loops for the common low dimensionalities: one
    // sweep writing acc[] directly (no zero-init pass, one loop overhead
    // instead of `dim`), still branch-free and unit-stride per plane.
    if (dim == 2) {
      const double* c0 = g.coord[0] + k0;
      const double* c1 = g.coord[1] + k0;
      const double p0 = pt[0], p1 = pt[1];
      SJ_SIMD_LOOP
      for (int v = 0; v < bw; ++v) {
        const double d0 = c0[v] - p0;
        const double d1 = c1[v] - p1;
        acc[v] = d0 * d0 + d1 * d1;
      }
    } else if (dim == 3) {
      const double* c0 = g.coord[0] + k0;
      const double* c1 = g.coord[1] + k0;
      const double* c2 = g.coord[2] + k0;
      const double p0 = pt[0], p1 = pt[1], p2 = pt[2];
      SJ_SIMD_LOOP
      for (int v = 0; v < bw; ++v) {
        const double d0 = c0[v] - p0;
        const double d1 = c1[v] - p1;
        const double d2 = c2[v] - p2;
        acc[v] = d0 * d0 + d1 * d1 + d2 * d2;
      }
    } else {
      for (int v = 0; v < bw; ++v) acc[v] = 0.0;
      bool block_pruned = false;
      for (int j = 0; j < dim; ++j) {
        const double* plane = g.coord[j] + k0;
        const double pj = pt[j];
        SJ_SIMD_LOOP
        for (int v = 0; v < bw; ++v) {
          const double diff = plane[v] - pj;
          acc[v] += diff * diff;
        }
        // Only bother with the per-block prune in higher dimensions,
        // where the remaining per-lane work it saves outweighs the
        // min-reduction.
        if (j + 1 < dim) {
          double m = acc[0];
          for (int v = 1; v < bw; ++v) m = std::min(m, acc[v]);
          if (m > eps2) {
            block_pruned = true;
            break;
          }
        }
      }
      if (block_pruned) continue;
    }
    // Branchless compaction: dense blocks match ~half their lanes, so a
    // data-dependent branch here mispredicts constantly; the unconditional
    // orig[] load per lane is far cheaper.
    std::uint32_t match[kSoaScanBlock];
    int m = 0;
    for (int v = 0; v < bw; ++v) {
      match[m] = g.orig[k0 + v];
      m += acc[v] <= eps2 ? 1 : 0;
    }
    if (m > 0) em.emit_block(key, match, m, r.both);
  }
}

/// Scan one contiguous candidate range for one query point with blocked
/// distance evaluation: each block of up to kScanBlock candidates is
/// evaluated with a branch-free lane loop (vectorisable — no per-
/// candidate early exit, no gather), and the dimension loop bails out at
/// BLOCK granularity once every lane's partial sum exceeds eps^2.
/// Dispatches to the SoA path when the view carries coordinate planes
/// (cell-major uploads; engines null them out under the soa=0 ablation
/// knob); the AoS body below is that ablation baseline.
inline void scan_range(const GridDeviceView& g, LocalWork& w, Emitter& em,
                       std::uint32_t key, const double* pt,
                       const CandidateRange& r, double eps2,
                       gpu::CacheSim* cache) {
  if (g.coord[0] != nullptr) {
    scan_range_soa(g, w, em, key, pt, r, eps2, cache);
    return;
  }
  SJ_EXPECT(r.begin < r.end && r.end <= g.n,
            "candidate range must stay inside the slot space");
  constexpr int kScanBlock = 8;
  const int dim = g.dim;
  double acc[kScanBlock];
  for (std::uint32_t k0 = r.begin; k0 < r.end; k0 += kScanBlock) {
    const int bw = static_cast<int>(
        std::min<std::uint32_t>(kScanBlock, r.end - k0));
    const double* base = g.points + static_cast<std::size_t>(k0) * dim;
    w.distance_calcs += static_cast<std::uint64_t>(bw);
    w.global_loads += static_cast<std::uint64_t>(bw) * dim;
    w.global_load_bytes +=
        static_cast<std::uint64_t>(bw) * dim * sizeof(double);
    if (cache != nullptr) {
      cache->access(reinterpret_cast<std::uint64_t>(base),
                    static_cast<unsigned>(bw * dim) * sizeof(double));
    }
    for (int v = 0; v < bw; ++v) acc[v] = 0.0;
    bool block_pruned = false;
    for (int j = 0; j < dim; ++j) {
      const double pj = pt[j];
      for (int v = 0; v < bw; ++v) {
        const double diff = base[v * dim + j] - pj;
        acc[v] += diff * diff;
      }
      // Only bother with the per-block prune in higher dimensions, where
      // the remaining per-lane work it saves outweighs the min-reduction.
      if (dim > 3 && j + 1 < dim) {
        double m = acc[0];
        for (int v = 1; v < bw; ++v) m = std::min(m, acc[v]);
        if (m > eps2) {
          block_pruned = true;
          break;
        }
      }
    }
    if (block_pruned) continue;
    std::uint32_t match[kScanBlock];
    int m = 0;
    for (int v = 0; v < bw; ++v) {
      if (acc[v] <= eps2) match[m++] = g.orig[k0 + v];
    }
    if (m > 0) em.emit_block(key, match, m, r.both);
  }
}

}  // namespace

void self_join_thread(const gpu::ThreadCtx& ctx,
                      const SelfJoinKernelParams& p) {
  const std::uint64_t gid = ctx.global_id();
  if (gid >= p.num_queries) return;  // Algorithm 1, line 3
  const std::uint32_t pid =
      p.query_ids != nullptr ? p.query_ids[gid]
                             : static_cast<std::uint32_t>(gid);

  const GridDeviceView& g = p.grid;
  const double* pt = g.query_point(pid);
  const std::uint32_t key = g.query_id(pid);

  LocalWork w;
  Emitter em{p.result, w};
  w.global_loads += static_cast<std::uint64_t>(g.dim);
  w.global_load_bytes += static_cast<std::uint64_t>(g.dim) * sizeof(double);
  if (p.cache != nullptr) {
    p.cache->access(reinterpret_cast<std::uint64_t>(pt),
                    static_cast<unsigned>(g.dim) * sizeof(double));
  }

  // Home cell coordinates (register copy of the point, line 5, then
  // adjacent ranges, line 6).
  std::uint32_t c[kMaxDims];
  g.home_cell(pt, c);

  std::uint32_t adj[kMaxDims][3];
  int adjn[kMaxDims];
  filter_adjacent(g, c, adj, adjn);

  enumerate_neighborhood(g.dim, c, adj, adjn, p.unicomp,
                         [&](const std::uint32_t* cc, bool both) {
                           eval_cell(p, w, em, key, pt, cc, both);
                         });

  if (p.work != nullptr) p.work->flush(w);
}

void self_join_cells_thread(const gpu::ThreadCtx& ctx,
                            const CellJoinKernelParams& p) {
  const std::uint64_t gid = ctx.global_id();
  if (gid >= p.num_items) return;
  const CellWorkItem item = p.items[gid];
  const GridDeviceView& g = p.grid;
  SJ_EXPECT(item.cell < g.b_size,
            "cell work item must name a non-empty cell index into B");
  SJ_EXPECT(item.begin <= item.end && item.end <= g.n,
            "cell work item slot range must stay inside the layout");

  LocalWork w;
  Emitter em{p.result, w};

  // The adjacent-cell range list is shared by the whole item — every
  // point of the cell has the same neighbourhood. With a precomputed
  // adjacency the lookup is free; the standalone mode (metrics pass)
  // enumerates it here, once per item.
  const CandidateRange* ranges;
  std::size_t num_ranges;
  if (p.ranges != nullptr) {
    ranges = p.ranges + p.range_offsets[item.cell];
    num_ranges = static_cast<std::size_t>(p.range_offsets[item.cell + 1] -
                                          p.range_offsets[item.cell]);
  } else {
    t_ranges.clear();
    t_cursors.reset(g.dim);
    collect_cell_ranges(g, item.cell, p.unicomp, t_cursors, w, t_ranges);
    ranges = t_ranges.data();
    num_ranges = t_ranges.size();
  }

  const double eps2 = g.eps * g.eps;
  for (std::uint32_t s = item.begin; s < item.end; ++s) {
    const double* pt = g.points + static_cast<std::size_t>(s) * g.dim;
    const std::uint32_t key = g.orig[s];
    w.global_loads += static_cast<std::uint64_t>(g.dim);
    w.global_load_bytes += static_cast<std::uint64_t>(g.dim) * sizeof(double);
    if (p.cache != nullptr) {
      p.cache->access(reinterpret_cast<std::uint64_t>(pt),
                      static_cast<unsigned>(g.dim) * sizeof(double));
    }
    for (std::size_t r = 0; r < num_ranges; ++r) {
      scan_range(g, w, em, key, pt, ranges[r], eps2, p.cache);
    }
  }

  if (p.work != nullptr) p.work->flush(w);
}

namespace {

/// The spans a whole-grid adjacency build is cut into. Fixed rather than
/// derived from the thread count: the CSR is the same for any split, and
/// the split itself then never depends on the machine.
constexpr std::size_t kAdjacencySpans = 64;

/// Allocate `adj` for a span of `num_cells` cells: its weights and
/// offsets and, in up to two dimensions, room for the most ranges its
/// cells can produce — one per dimension-0 run of a neighbourhood
/// (3^(d-1)), plus two under UNICOMP (the home cell on its own and the
/// run split around it). In more dimensions that bound is far above the
/// usual count; build_span reserves an estimate instead and grows it.
void size_span(CellAdjacencyHost& adj, int dim, std::size_t num_cells) {
  adj.weights.reserve(num_cells);
  adj.offsets.reserve(num_cells + 1);
  if (dim <= 2) {
    adj.ranges.reserve(num_cells *
                       (kPow3[static_cast<std::size_t>(dim - 1)] + 2));
  }
}

/// build_cell_adjacency_span without the validator: the body every
/// builder runs once per span, into an `adj` sized by size_span (filling
/// it here, within that capacity, keeps the first touch on the worker).
void build_span(const GridDeviceView& grid, bool unicomp,
                std::uint32_t cell_begin, std::uint32_t cell_end,
                CellAdjacencyHost& adj) {
  const std::size_t num_cells = cell_end - cell_begin;
  adj.weights.assign(num_cells, 0);
  adj.offsets.assign(num_cells + 1, 0);
  if (num_cells == 0) return;
  // Ranges that may outgrow their first allocation are allocated here,
  // by the thread that regrows (and so frees) them.
  if (grid.dim > 2) adj.ranges.reserve(num_cells * 4);

  // One run-scan pass over the span's cells, in ascending B order so
  // every cursor only moves forward, accumulated as a CSR-style
  // (offsets, ranges) pair.
  RunCursors cursors(grid.dim);
  LocalWork w;  // planning work, not flushed into join counters
  for (std::size_t cell = 0; cell < num_cells; ++cell) {
    collect_cell_ranges(grid,
                        static_cast<std::uint32_t>(cell_begin + cell),
                        unicomp, cursors, w, adj.ranges);
    adj.offsets[cell + 1] = adj.ranges.size();
    std::uint64_t candidates = 0;
    for (std::size_t r = adj.offsets[cell]; r < adj.offsets[cell + 1]; ++r) {
      candidates += static_cast<std::uint64_t>(adj.ranges[r].end -
                                               adj.ranges[r].begin) *
                    (adj.ranges[r].both != 0 ? 2 : 1);
    }
    const GridIndex::CellRange cr = grid.G[cell_begin + cell];
    // candidates x population can exceed 64 bits for a pathological cell;
    // saturate so the planner's relative ordering survives instead of
    // wrapping a heavy cell down to a tiny weight.
    const unsigned __int128 weight =
        static_cast<unsigned __int128>(candidates) *
        (static_cast<std::uint64_t>(cr.max) - cr.min + 1);
    adj.weights[cell] = static_cast<std::uint64_t>(std::min<unsigned __int128>(
        weight, std::numeric_limits<std::uint64_t>::max()));
  }
  adj.cells_examined = w.cells_examined;
  adj.cells_nonempty = w.cells_nonempty;
}

/// The whole grid's adjacency as `spans` contiguous cell spans (fewer
/// when there are fewer cells), built in parallel; span s covers cells
/// [b_size * s / spans, b_size * (s + 1) / spans). The calling thread
/// allocates every span's buffers before the parallel region and frees
/// them after it, so they come from (and return to) its own malloc arena:
/// buffers allocated on the OpenMP workers would be released into the
/// workers' arenas, which keep the freed memory resident. Only the ranges
/// of grids above two dimensions are allocated on the workers.
std::vector<CellAdjacencyHost> build_spans(const GridDeviceView& grid,
                                           bool unicomp, std::size_t spans) {
  const std::uint64_t cells = grid.b_size;
  const std::uint64_t parts_n =
      std::min<std::uint64_t>(std::max<std::size_t>(spans, 1), cells);
  auto bound = [cells, parts_n](std::uint64_t s) {
    return static_cast<std::uint32_t>(cells * s / parts_n);
  };
  std::vector<CellAdjacencyHost> parts(static_cast<std::size_t>(parts_n));
  for (std::uint64_t s = 0; s < parts_n; ++s) {
    size_span(parts[static_cast<std::size_t>(s)], grid.dim,
              bound(s + 1) - bound(s));
  }
#pragma omp parallel for schedule(dynamic, 1)
  for (std::int64_t s = 0; s < static_cast<std::int64_t>(parts_n); ++s) {
    const auto u = static_cast<std::uint64_t>(s);
    build_span(grid, unicomp, bound(u), bound(u + 1),
               parts[static_cast<std::size_t>(s)]);
  }
  return parts;
}

}  // namespace

CellAdjacencyHost build_cell_adjacency_host(const GridDeviceView& grid,
                                            bool unicomp) {
  return build_cell_adjacency_host(grid, unicomp, kAdjacencySpans);
}

CellAdjacencyHost build_cell_adjacency_host(const GridDeviceView& grid,
                                            bool unicomp, std::size_t spans) {
  std::vector<CellAdjacencyHost> parts = build_spans(grid, unicomp, spans);
  CellAdjacencyHost adj;
  std::size_t total = 0;
  for (const CellAdjacencyHost& p : parts) total += p.ranges.size();
  adj.ranges.reserve(total);
  adj.offsets.reserve(static_cast<std::size_t>(grid.b_size) + 1);
  adj.weights.reserve(static_cast<std::size_t>(grid.b_size));
  adj.offsets.push_back(0);
  for (CellAdjacencyHost& p : parts) {
    const std::uint64_t base = adj.ranges.size();
    adj.ranges.insert(adj.ranges.end(), p.ranges.begin(), p.ranges.end());
    for (std::size_t k = 1; k < p.offsets.size(); ++k) {
      adj.offsets.push_back(base + p.offsets[k]);
    }
    adj.weights.insert(adj.weights.end(), p.weights.begin(), p.weights.end());
    adj.cells_examined += p.cells_examined;
    adj.cells_nonempty += p.cells_nonempty;
    p = CellAdjacencyHost{};
  }
  if (contracts::active()) {
    validate::cell_adjacency(adj, static_cast<std::size_t>(grid.b_size),
                             grid.n, "build_cell_adjacency_host");
  }
  return adj;
}

CellAdjacencyHost build_cell_adjacency_span(const GridDeviceView& grid,
                                            bool unicomp,
                                            std::uint32_t cell_begin,
                                            std::uint32_t cell_end) {
  CellAdjacencyHost adj;
  size_span(adj, grid.dim, cell_end - cell_begin);
  build_span(grid, unicomp, cell_begin, cell_end, adj);
  if (contracts::active()) {
    validate::cell_adjacency(adj, cell_end - cell_begin, grid.n,
                             "build_cell_adjacency_span");
  }
  return adj;
}

CellAdjacency build_cell_adjacency(gpu::GlobalMemoryArena& arena,
                                   const GridDeviceView& grid, bool unicomp) {
  std::vector<CellAdjacencyHost> parts =
      build_spans(grid, unicomp, kAdjacencySpans);
  std::size_t total = 0;
  for (const CellAdjacencyHost& p : parts) total += p.ranges.size();
  CellAdjacency adj;
  adj.ranges = gpu::DeviceBuffer<CandidateRange>(arena, total);
  adj.offsets = gpu::DeviceBuffer<std::uint64_t>(
      arena, static_cast<std::size_t>(grid.b_size) + 1);
  adj.weights.reserve(static_cast<std::size_t>(grid.b_size));
  adj.offsets[0] = 0;
  std::size_t base = 0;
  std::size_t cell = 0;
  // Each span goes straight into the device buffers and is released once
  // copied; no concatenated host CSR is built.
  for (CellAdjacencyHost& p : parts) {
    const std::size_t num_cells = p.weights.size();
    if (contracts::active()) {
      validate::cell_adjacency(p, num_cells, grid.n, "build_cell_adjacency");
    }
    std::copy(p.ranges.begin(), p.ranges.end(), adj.ranges.data() + base);
    for (std::size_t k = 1; k <= num_cells; ++k) {
      adj.offsets[++cell] = base + p.offsets[k];
    }
    base += p.ranges.size();
    adj.weights.insert(adj.weights.end(), p.weights.begin(), p.weights.end());
    adj.cells_examined += p.cells_examined;
    adj.cells_nonempty += p.cells_nonempty;
    p = CellAdjacencyHost{};
  }
  return adj;
}

void join_cells_thread(const gpu::ThreadCtx& ctx,
                       const JoinCellsKernelParams& p) {
  const std::uint64_t gid = ctx.global_id();
  if (gid >= p.num_items) return;
  const CellWorkItem item = p.items[gid];
  const GridDeviceView& g = p.grid;

  LocalWork w;
  Emitter em{p.result, w};

  // The candidate range list is shared by the whole group — every query
  // in it has the same data-grid home cell.
  const CandidateRange* ranges = p.ranges + p.range_offsets[item.cell];
  const std::size_t num_ranges = static_cast<std::size_t>(
      p.range_offsets[item.cell + 1] - p.range_offsets[item.cell]);

  const double eps2 = g.eps * g.eps;
  for (std::uint32_t s = item.begin; s < item.end; ++s) {
    const std::uint32_t qid = p.query_order[s];
    SJ_INVARIANT(qid < g.num_queries(),
                 "query order entry must name a valid query id");
    const double* pt = g.query_point(qid);
    w.global_loads += static_cast<std::uint64_t>(g.dim) + 1;  // pt + id
    w.global_load_bytes +=
        static_cast<std::uint64_t>(g.dim) * sizeof(double) +
        sizeof(std::uint32_t);
    if (p.cache != nullptr) {
      p.cache->access(reinterpret_cast<std::uint64_t>(pt),
                      static_cast<unsigned>(g.dim) * sizeof(double));
    }
    for (std::size_t r = 0; r < num_ranges; ++r) {
      scan_range(g, w, em, qid, pt, ranges[r], eps2, p.cache);
    }
  }

  if (p.work != nullptr) p.work->flush(w);
}

JoinAdjacencyHost build_join_adjacency_host(const GridDeviceView& grid) {
  JoinAdjacencyHost adj;
  const std::uint64_t nq = grid.qn;

  // Sort the queries by (home data-grid cell, id): groups become
  // contiguous position ranges and the within-group order is
  // deterministic.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed(
      static_cast<std::size_t>(nq));
  std::uint32_t c[kMaxDims];
  for (std::uint64_t q = 0; q < nq; ++q) {
    grid.home_cell(grid.query_point(q), c);
    keyed[static_cast<std::size_t>(q)] = {grid.linearize(c),
                                          static_cast<std::uint32_t>(q)};
  }
  std::sort(keyed.begin(), keyed.end());

  adj.query_order.resize(static_cast<std::size_t>(nq));
  for (std::uint64_t q = 0; q < nq; ++q) {
    adj.query_order[static_cast<std::size_t>(q)] =
        keyed[static_cast<std::size_t>(q)].second;
  }

  // One adjacency resolution per DISTINCT home cell, amortised over all
  // of its queries — the join analogue of the self-join's once-per-cell
  // enumeration.
  adj.offsets.push_back(0);
  adj.group_offsets.push_back(0);
  RunCursors cursors(grid.dim);
  LocalWork w;
  std::size_t pos = 0;
  while (pos < keyed.size()) {
    const std::uint64_t key = keyed[pos].first;
    std::size_t end = pos + 1;
    while (end < keyed.size() && keyed[end].first == key) ++end;

    grid.home_cell(grid.query_point(adj.query_order[pos]), c);
    collect_ranges_at(grid, c, /*unicomp=*/false, cursors, w, adj.ranges);
    adj.offsets.push_back(adj.ranges.size());
    adj.group_offsets.push_back(static_cast<std::uint32_t>(end));

    std::uint64_t candidates = 0;
    for (std::size_t r = adj.offsets[adj.offsets.size() - 2];
         r < adj.ranges.size(); ++r) {
      candidates += adj.ranges[r].end - adj.ranges[r].begin;
    }
    const unsigned __int128 weight =
        static_cast<unsigned __int128>(candidates) *
        static_cast<std::uint64_t>(end - pos);
    adj.weights.push_back(static_cast<std::uint64_t>(
        std::min<unsigned __int128>(
            weight, std::numeric_limits<std::uint64_t>::max())));
    pos = end;
  }
  adj.cells_examined = w.cells_examined;
  adj.cells_nonempty = w.cells_nonempty;
  if (contracts::active()) {
    validate::join_adjacency(adj, nq, grid.n, "build_join_adjacency_host");
  }
  return adj;
}

JoinAdjacency build_join_adjacency(gpu::GlobalMemoryArena& arena,
                                   const GridDeviceView& grid) {
  JoinAdjacencyHost host = build_join_adjacency_host(grid);
  JoinAdjacency adj;
  adj.query_order =
      gpu::DeviceBuffer<std::uint32_t>(arena, host.query_order.size());
  std::copy(host.query_order.begin(), host.query_order.end(),
            adj.query_order.data());
  adj.ranges = gpu::DeviceBuffer<CandidateRange>(arena, host.ranges.size());
  std::copy(host.ranges.begin(), host.ranges.end(), adj.ranges.data());
  adj.offsets = gpu::DeviceBuffer<std::uint64_t>(arena, host.offsets.size());
  std::copy(host.offsets.begin(), host.offsets.end(), adj.offsets.data());
  adj.group_offsets = std::move(host.group_offsets);
  adj.weights = std::move(host.weights);
  adj.cells_examined = host.cells_examined;
  adj.cells_nonempty = host.cells_nonempty;
  return adj;
}

void brute_force_thread(const gpu::ThreadCtx& ctx,
                        const BruteForceKernelParams& p) {
  const std::uint64_t gid = ctx.global_id();
  if (gid >= p.n) return;
  const std::uint32_t pid = static_cast<std::uint32_t>(gid);
  const double* pt = p.points + static_cast<std::size_t>(pid) * p.dim;
  const double eps2 = p.eps * p.eps;

  LocalWork w;
  Emitter em{p.result, w};
  for (std::uint64_t q = 0; q < p.n; ++q) {
    const double* qt = p.points + static_cast<std::size_t>(q) * p.dim;
    ++w.distance_calcs;
    const double d2 = sq_dist(pt, qt, p.dim);
    if (d2 <= eps2) em.emit(pid, static_cast<std::uint32_t>(q));
  }
  if (p.work != nullptr) p.work->flush(w);
}

}  // namespace sj
