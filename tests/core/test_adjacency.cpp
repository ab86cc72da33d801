// Differential tests of the cell-adjacency builders. The oracle is an
// independent brute-force neighbour list: it pairs every two non-empty
// cells whose coordinates differ by at most 1 in each dimension, keeps a
// neighbour under UNICOMP only when the home cell's coordinate is odd in
// the highest dimension where the two differ, and counts the searched
// cells from the per-dimension coordinate sets. The builders' CSRs are
// expanded into (slot, both) lists and compared with it on hand-built
// grids in 1..kMaxDims dimensions (boundary coordinates, masks with holes,
// a single cell, join groups outside the data), on GridIndex grids
// (eps = 0 with duplicates, one giant cell), and against themselves across
// span and OpenMP thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "api/registry.hpp"
#include "common/datagen.hpp"
#include "common/omp_compat.hpp"
#include "core/device_view.hpp"
#include "core/grid_index.hpp"
#include "core/kernels.hpp"
#include "core/prepared.hpp"
#include "core/self_join.hpp"
#include "gpusim/arena.hpp"

namespace sj {
namespace {

using Coords = std::vector<std::uint32_t>;
/// One candidate slot of a home cell or query group, with its UNICOMP
/// both-orders flag.
using Slot = std::pair<std::uint32_t, std::uint32_t>;

/// A cell-major grid view assembled by hand from a set of non-empty cell
/// coordinates (no points: the builders read only B, G, M and the grid
/// geometry). Cell coordinate j of a point is floor(x_j) (gmin 0, width 1).
struct HandGrid {
  std::vector<std::uint64_t> B;
  std::vector<GridIndex::CellRange> G;
  std::vector<std::uint32_t> M[kMaxDims];
  std::vector<double> queries;
  GridDeviceView view;
};

/// Random grid: 1..6 cells per dimension, both corner cells (coordinate 0
/// and max everywhere) non-empty, 1..3 points per cell. `holes` keeps
/// only even coordinates in dimensions 0 and dim-1, so their masks miss
/// every middle coordinate.
HandGrid random_grid(int dim, std::uint64_t seed, bool holes,
                     std::size_t max_cells = 200) {
  std::mt19937_64 rng(seed);
  HandGrid h;
  GridDeviceView& v = h.view;
  v.dim = dim;
  v.width = 1.0;
  v.eps = 1.0;
  v.cell_major = true;
  std::uint64_t total = 1;
  for (int j = 0; j < dim; ++j) {
    v.cells_per_dim[j] = 1 + static_cast<std::uint32_t>(rng() % 6);
    v.stride[j] = total;
    total *= v.cells_per_dim[j];
  }
  auto allowed = [&](int j, std::uint32_t x) {
    return !holes || (j != 0 && j != dim - 1) || x % 2 == 0;
  };
  std::set<Coords> cells;
  Coords lo(static_cast<std::size_t>(dim), 0);
  Coords hi(static_cast<std::size_t>(dim));
  for (int j = 0; j < dim; ++j) {
    std::uint32_t m = v.cells_per_dim[j] - 1;
    while (!allowed(j, m)) --m;
    hi[static_cast<std::size_t>(j)] = m;
  }
  cells.insert(lo);
  cells.insert(hi);
  const std::size_t want = std::min<std::uint64_t>(
      total, max_cells == 0 ? 0 : 10 + rng() % max_cells);
  for (std::size_t tries = 0; cells.size() < want && tries < want * 20;
       ++tries) {
    Coords c(static_cast<std::size_t>(dim));
    bool ok = true;
    for (int j = 0; j < dim; ++j) {
      c[static_cast<std::size_t>(j)] =
          static_cast<std::uint32_t>(rng() % v.cells_per_dim[j]);
      ok = ok && allowed(j, c[static_cast<std::size_t>(j)]);
    }
    if (ok) cells.insert(c);
  }
  std::vector<std::uint64_t> ids;
  for (const Coords& c : cells) {
    std::uint64_t id = 0;
    for (int j = 0; j < dim; ++j) id += c[static_cast<std::size_t>(j)] * v.stride[j];
    ids.push_back(id);
    for (int j = 0; j < dim; ++j) h.M[j].push_back(c[static_cast<std::size_t>(j)]);
  }
  std::sort(ids.begin(), ids.end());
  std::uint32_t slot = 0;
  for (const std::uint64_t id : ids) {
    const std::uint32_t pop = 1 + static_cast<std::uint32_t>(rng() % 3);
    h.B.push_back(id);
    h.G.push_back({slot, slot + pop - 1});
    slot += pop;
  }
  for (int j = 0; j < dim; ++j) {
    std::sort(h.M[j].begin(), h.M[j].end());
    h.M[j].erase(std::unique(h.M[j].begin(), h.M[j].end()), h.M[j].end());
    v.M[j] = h.M[j].data();
    v.m_size[j] = h.M[j].size();
  }
  v.B = h.B.data();
  v.b_size = h.B.size();
  v.G = h.G.data();
  v.n = slot;
  return h;
}

/// Query points for a join against `h`: cell centres anywhere in the
/// grid (home cells often empty or missing from the masks) and points
/// outside the grid on either side (clamped onto the boundary).
void add_queries(HandGrid& h, std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const int dim = h.view.dim;
  for (std::size_t q = 0; q < count; ++q) {
    for (int j = 0; j < dim; ++j) {
      const double cells = h.view.cells_per_dim[j];
      double x = static_cast<double>(rng() % h.view.cells_per_dim[j]) + 0.5;
      const auto r = rng() % 8;
      if (r == 0) x = -3.0 - static_cast<double>(rng() % 5);
      if (r == 1) x = cells + 2.0 + static_cast<double>(rng() % 5);
      h.queries.push_back(x);
    }
  }
  h.view.qpoints = h.queries.data();
  h.view.qn = count;
}

Coords decode(const GridDeviceView& v, std::uint64_t id) {
  Coords c(static_cast<std::size_t>(v.dim));
  for (int j = 0; j < v.dim; ++j) {
    c[static_cast<std::size_t>(j)] =
        static_cast<std::uint32_t>(id % v.cells_per_dim[j]);
    id /= v.cells_per_dim[j];
  }
  return c;
}

bool adjacent(const Coords& a, const Coords& b) {
  for (std::size_t j = 0; j < a.size(); ++j) {
    if (a[j] + 1 < b[j] || b[j] + 1 < a[j]) return false;
  }
  return true;
}

/// UNICOMP: home `a` searches neighbour `b` (both orders) iff a's
/// coordinate is odd in the highest dimension where they differ.
bool unicomp_searches(const Coords& a, const Coords& b) {
  for (std::size_t j = a.size(); j-- > 0;) {
    if (a[j] != b[j]) return a[j] % 2 == 1;
  }
  return false;
}

/// Members of M_j within one of x, and how many of them differ from x.
std::pair<std::uint64_t, std::uint64_t> mask_hits(const GridDeviceView& v,
                                                  int j, std::uint32_t x) {
  std::uint64_t near = 0, moved = 0;
  for (std::uint64_t k = 0; k < v.m_size[j]; ++k) {
    const std::uint32_t m = v.M[j][k];
    if (m + 1 >= x && m <= x + 1) {
      ++near;
      if (m != x) ++moved;
    }
  }
  return {near, moved};
}

/// Cells the enumeration searches around home `c`: the product of the
/// filtered coordinate counts (full), or the home cell plus, per odd
/// coordinate d, the free lower dimensions times d's moved coordinates.
std::uint64_t searched(const GridDeviceView& v, const Coords& c,
                       bool unicomp) {
  if (!unicomp) {
    std::uint64_t prod = 1;
    for (int j = 0; j < v.dim; ++j) {
      prod *= mask_hits(v, j, c[static_cast<std::size_t>(j)]).first;
    }
    return prod;
  }
  std::uint64_t total = 1;
  for (int d = 0; d < v.dim; ++d) {
    if (c[static_cast<std::size_t>(d)] % 2 == 0) continue;
    std::uint64_t prod = mask_hits(v, d, c[static_cast<std::size_t>(d)]).second;
    for (int j = 0; j < d; ++j) {
      prod *= mask_hits(v, j, c[static_cast<std::size_t>(j)]).first;
    }
    total += prod;
  }
  return total;
}

struct Oracle {
  std::vector<std::vector<Slot>> slots;  // per home cell / group, sorted
  std::vector<std::uint64_t> weights;
  std::uint64_t cells_examined = 0;
  std::uint64_t cells_nonempty = 0;
};

/// Candidate slots of home coordinates `c` among all non-empty cells.
std::vector<Slot> oracle_slots(const GridDeviceView& v, const Coords& c,
                               bool unicomp, bool home_in_b,
                               std::uint64_t home_id,
                               std::uint64_t& nonempty) {
  std::vector<Slot> out;
  for (std::uint64_t j = 0; j < v.b_size; ++j) {
    const Coords cj = decode(v, v.B[j]);
    if (!adjacent(c, cj)) continue;
    std::uint32_t both = 0;
    if (unicomp && !(home_in_b && v.B[j] == home_id)) {
      if (!unicomp_searches(c, cj)) continue;
      both = 1;
    }
    ++nonempty;
    for (std::uint32_t s = v.G[j].min; s <= v.G[j].max; ++s) {
      out.push_back({s, both});
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t weight_of(const std::vector<Slot>& slots, std::uint64_t pop) {
  std::uint64_t cand = 0;
  for (const Slot& s : slots) cand += s.second != 0 ? 2 : 1;
  return cand * pop;
}

Oracle self_oracle(const GridDeviceView& v, bool unicomp) {
  Oracle o;
  for (std::uint64_t i = 0; i < v.b_size; ++i) {
    const Coords c = decode(v, v.B[i]);
    o.slots.push_back(
        oracle_slots(v, c, unicomp, true, v.B[i], o.cells_nonempty));
    o.weights.push_back(
        weight_of(o.slots.back(), v.G[i].max - v.G[i].min + 1u));
    o.cells_examined += searched(v, c, unicomp);
  }
  return o;
}

std::vector<Slot> expand(const CandidateRange* ranges, std::uint64_t begin,
                         std::uint64_t end) {
  std::vector<Slot> out;
  for (std::uint64_t r = begin; r < end; ++r) {
    for (std::uint32_t s = ranges[r].begin; s < ranges[r].end; ++s) {
      out.push_back({s, ranges[r].both});
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void expect_matches(const CellAdjacencyHost& adj, const Oracle& o) {
  ASSERT_EQ(adj.offsets.size(), o.slots.size() + 1);
  ASSERT_EQ(adj.offsets.back(), adj.ranges.size());
  for (std::size_t i = 0; i < o.slots.size(); ++i) {
    ASSERT_EQ(expand(adj.ranges.data(), adj.offsets[i], adj.offsets[i + 1]),
              o.slots[i])
        << "cell " << i;
  }
  EXPECT_EQ(adj.weights, o.weights);
  EXPECT_EQ(adj.cells_examined, o.cells_examined);
  EXPECT_EQ(adj.cells_nonempty, o.cells_nonempty);
}

void expect_same_csr(const CellAdjacencyHost& a, const CellAdjacencyHost& b) {
  ASSERT_EQ(a.ranges.size(), b.ranges.size());
  for (std::size_t r = 0; r < a.ranges.size(); ++r) {
    ASSERT_EQ(a.ranges[r].begin, b.ranges[r].begin) << "range " << r;
    ASSERT_EQ(a.ranges[r].end, b.ranges[r].end) << "range " << r;
    ASSERT_EQ(a.ranges[r].both, b.ranges[r].both) << "range " << r;
  }
  EXPECT_EQ(a.offsets, b.offsets);
  EXPECT_EQ(a.weights, b.weights);
  EXPECT_EQ(a.cells_examined, b.cells_examined);
  EXPECT_EQ(a.cells_nonempty, b.cells_nonempty);
}

CellAdjacencyHost to_host(const CellAdjacency& d) {
  CellAdjacencyHost h;
  h.ranges.assign(d.ranges.data(), d.ranges.data() + d.ranges.size());
  h.offsets.assign(d.offsets.data(), d.offsets.data() + d.offsets.size());
  h.weights = d.weights;
  h.cells_examined = d.cells_examined;
  h.cells_nonempty = d.cells_nonempty;
  return h;
}

class AdjacencyOracle : public ::testing::TestWithParam<int> {};

TEST_P(AdjacencyOracle, SelfJoinCsrMatchesBruteForceNeighbours) {
  const int dim = GetParam();
  for (const bool holes : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      HandGrid h = random_grid(dim, 1000 * seed + static_cast<std::uint64_t>(dim), holes);
      for (const bool unicomp : {false, true}) {
        SCOPED_TRACE(testing::Message() << "holes=" << holes << " seed=" << seed
                                        << " unicomp=" << unicomp);
        const Oracle o = self_oracle(h.view, unicomp);
        const CellAdjacencyHost host = build_cell_adjacency_host(h.view, unicomp);
        expect_matches(host, o);

        gpu::GlobalMemoryArena arena(std::size_t{1} << 30);
        expect_same_csr(to_host(build_cell_adjacency(arena, h.view, unicomp)),
                        host);

        // A span starting mid-grid: its own cursors, same per-cell lists.
        const auto mid = static_cast<std::uint32_t>(h.view.b_size / 3);
        const auto end = static_cast<std::uint32_t>(h.view.b_size);
        const CellAdjacencyHost span =
            build_cell_adjacency_span(h.view, unicomp, mid, end);
        for (std::uint32_t i = mid; i < end; ++i) {
          ASSERT_EQ(expand(span.ranges.data(), span.offsets[i - mid],
                           span.offsets[i - mid + 1]),
                    o.slots[i]);
        }
      }
    }
  }
}

TEST_P(AdjacencyOracle, JoinGroupsMatchBruteForceNeighbours) {
  const int dim = GetParam();
  for (const bool holes : {false, true}) {
    HandGrid h = random_grid(dim, 77 + static_cast<std::uint64_t>(dim), holes);
    add_queries(h, 300, 91 + static_cast<std::uint64_t>(dim));
    const GridDeviceView& v = h.view;
    const JoinAdjacencyHost adj = build_join_adjacency_host(v);

    // Home cells by the clamped floor, grouped in (cell id, query) order.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed;
    std::vector<Coords> home(v.qn);
    for (std::uint32_t q = 0; q < v.qn; ++q) {
      Coords c(static_cast<std::size_t>(dim));
      std::uint64_t id = 0;
      for (int j = 0; j < dim; ++j) {
        const double x = v.qpoints[q * static_cast<std::size_t>(dim) + j];
        const double top = v.cells_per_dim[j] - 1;
        c[static_cast<std::size_t>(j)] =
            static_cast<std::uint32_t>(std::clamp(std::floor(x), 0.0, top));
        id += c[static_cast<std::size_t>(j)] * v.stride[j];
      }
      home[q] = c;
      keyed.push_back({id, q});
    }
    std::sort(keyed.begin(), keyed.end());
    std::vector<std::uint32_t> order;
    for (const auto& k : keyed) order.push_back(k.second);
    EXPECT_EQ(adj.query_order, order);

    std::uint64_t nonempty = 0;
    std::uint64_t examined = 0;
    std::size_t g = 0;
    for (std::size_t pos = 0; pos < keyed.size(); ++g) {
      std::size_t end = pos;
      while (end < keyed.size() && keyed[end].first == keyed[pos].first) ++end;
      ASSERT_LT(g, adj.num_groups());
      EXPECT_EQ(adj.group_offsets[g], pos);
      EXPECT_EQ(adj.group_offsets[g + 1], end);
      const Coords& c = home[keyed[pos].second];
      const std::vector<Slot> want =
          oracle_slots(v, c, false, false, 0, nonempty);
      ASSERT_EQ(expand(adj.ranges.data(), adj.offsets[g], adj.offsets[g + 1]),
                want)
          << "group " << g << " holes=" << holes;
      EXPECT_EQ(adj.weights[g], weight_of(want, end - pos));
      examined += searched(v, c, false);
      pos = end;
    }
    EXPECT_EQ(adj.num_groups(), g);
    EXPECT_EQ(adj.cells_nonempty, nonempty);
    EXPECT_EQ(adj.cells_examined, examined);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, AdjacencyOracle,
                         ::testing::Range(1, kMaxDims + 1),
                         [](const auto& info) {
                           return "dim" + std::to_string(info.param);
                         });

TEST(AdjacencyOracleCases, SingleNonEmptyCell) {
  for (int dim : {1, 3, kMaxDims}) {
    HandGrid h = random_grid(dim, 5, false, /*max_cells=*/0);
    // Collapse to the one corner cell at coordinate 0 of a grid.
    h.B.resize(1);
    h.G.assign(1, {0, 4});
    for (int j = 0; j < dim; ++j) {
      h.M[j].assign(1, 0);
      h.view.M[j] = h.M[j].data();
      h.view.m_size[j] = 1;
    }
    h.view.B = h.B.data();
    h.view.G = h.G.data();
    h.view.b_size = 1;
    h.view.n = 5;
    for (const bool unicomp : {false, true}) {
      const CellAdjacencyHost adj = build_cell_adjacency_host(h.view, unicomp);
      expect_matches(adj, self_oracle(h.view, unicomp));
      ASSERT_EQ(adj.ranges.size(), 1u);
      EXPECT_EQ(adj.ranges[0].begin, 0u);
      EXPECT_EQ(adj.ranges[0].end, 5u);
      EXPECT_EQ(adj.weights[0], 25u);
    }
  }
}

TEST(AdjacencyOracleCases, GridIndexEpsZeroWithDuplicatesAndOneGiantCell) {
  // eps = 0: unit cells over duplicated integer points, so neighbouring
  // cells are all populated. The giant case puts every point in one cell.
  Dataset dup(3);
  for (int i = 0; i < 400; ++i) {
    const double p[3] = {static_cast<double>(i % 5),
                         static_cast<double>((i / 5) % 4),
                         static_cast<double>((i / 20) % 3)};
    dup.push_back(p);
    if (i % 3 == 0) dup.push_back(p);
  }
  const auto giant = datagen::uniform(500, 4, 0.0, 1.0, 17);
  const std::pair<const Dataset*, double> cases[] = {{&dup, 0.0},
                                                     {&giant, 5.0}};
  for (const auto& [data, eps] : cases) {
    GridIndex index(*data, eps);
    gpu::GlobalMemoryArena arena(gpu::DeviceSpec::titan_x_pascal());
    DeviceGrid dev(arena, *data, index, GridLayout::kCellMajor);
    for (const bool unicomp : {false, true}) {
      SCOPED_TRACE(testing::Message() << "eps=" << eps << " unicomp=" << unicomp);
      const CellAdjacencyHost host =
          build_cell_adjacency_host(dev.view(), unicomp);
      expect_matches(host, self_oracle(dev.view(), unicomp));
      expect_same_csr(
          to_host(build_cell_adjacency(arena, dev.view(), unicomp)), host);
    }
    if (eps > 0.0) {
      EXPECT_EQ(index.num_nonempty_cells(), 1u);
    }
  }
}

TEST(AdjacencyDeterminism, IdenticalAcrossSpanAndThreadCounts) {
  HandGrid h = random_grid(4, 4242, false, /*max_cells=*/1200);
  const int nproc =
      std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  const int saved = omp_get_max_threads();
  for (const bool unicomp : {false, true}) {
    omp_set_num_threads(1);
    const CellAdjacencyHost ref = build_cell_adjacency_host(h.view, unicomp, 1);
    expect_matches(ref, self_oracle(h.view, unicomp));
    for (const int threads : {1, nproc}) {
      omp_set_num_threads(threads);
      for (const std::size_t spans : {std::size_t{1}, std::size_t{7},
                                      std::size_t{64}}) {
        SCOPED_TRACE(testing::Message() << "unicomp=" << unicomp << " threads="
                                        << threads << " spans=" << spans);
        expect_same_csr(build_cell_adjacency_host(h.view, unicomp, spans), ref);
      }
      gpu::GlobalMemoryArena arena(std::size_t{1} << 30);
      expect_same_csr(to_host(build_cell_adjacency(arena, h.view, unicomp)),
                      ref);
    }
  }
  omp_set_num_threads(saved);
}

// --- The engines report the adjacency build as its own phase.

TEST(AdjacencySeconds, ReportedOnA6DJoinWithinTotal) {
  const auto d = datagen::uniform(3000, 6, 0.0, 40.0, 606);
  const double eps = 6.0;

  const SelfJoinResult r = GpuSelfJoin().run(d, eps);
  EXPECT_GT(r.stats.adjacency_seconds, 0.0);
  EXPECT_LE(r.stats.adjacency_seconds, r.stats.total_seconds);

  for (const char* name : {"gpu", "gpu_unicomp", "gpu_shard"}) {
    const auto out = api::BackendRegistry::instance().at(name).run(d, eps);
    const double s = out.stats.native.at("adjacency_seconds");
    EXPECT_GT(s, 0.0) << name;
    EXPECT_LE(s, out.stats.total_seconds) << name;
  }

  // A PreparedJoin builds the adjacency once and reuses it after.
  PreparedJoin prepared(d, eps);
  const SelfJoinResult first = prepared.self_join({});
  EXPECT_GT(first.stats.adjacency_seconds, 0.0);
  EXPECT_LE(first.stats.adjacency_seconds, first.stats.total_seconds);
  EXPECT_EQ(prepared.self_join({}).stats.adjacency_seconds, 0.0);
}

}  // namespace
}  // namespace sj
