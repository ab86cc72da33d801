// Batching scheme (Section V-A): plan sizing, the >= 3 batch minimum,
// overflow splitting, exactness under severe memory pressure, and the
// order in which the pipeline assembles its batches.
#include "core/batcher.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "bruteforce/brute_force.hpp"
#include "common/cancel.hpp"
#include "common/datagen.hpp"
#include "common/fault.hpp"
#include "core/batch_pipeline.hpp"
#include "core/device_view.hpp"
#include "core/grid_index.hpp"
#include "core/kernels.hpp"
#include "core/self_join.hpp"

namespace sj {
namespace {

TEST(BatchPlan, MinimumThreeBatches) {
  // Tiny estimate: volume alone would need 1 batch, the paper forces 3.
  const auto plan = plan_batches(100, 100000, 3, 1 << 20, 1.25);
  EXPECT_EQ(plan.num_batches, 3u);
}

TEST(BatchPlan, VolumeDrivenBatchCount) {
  // 10M estimated pairs, 1M-pair buffers, 1.25 safety -> ceil(12.5M/1M).
  const auto plan = plan_batches(10'000'000, 100000, 3, 1'000'000, 1.25);
  EXPECT_EQ(plan.num_batches, 13u);
}

TEST(BatchPlan, NeverMoreBatchesThanQueries) {
  const auto plan = plan_batches(1'000'000, 5, 3, 10, 1.0);
  EXPECT_EQ(plan.num_batches, 5u);
}

TEST(BatchPlan, SafetyFactorPadsEstimate) {
  const auto a = plan_batches(1000, 100000, 1, 100, 1.0);
  const auto b = plan_batches(1000, 100000, 1, 100, 2.0);
  EXPECT_EQ(a.num_batches, 10u);
  EXPECT_EQ(b.num_batches, 20u);
}

TEST(Batching, ManyBatchesProduceExactResult) {
  const auto d = datagen::uniform(3000, 2, 0.0, 100.0, 5);
  GpuSelfJoinOptions opt;
  opt.min_batches = 17;  // force an unusual batch count
  auto got = GpuSelfJoin(opt).run(d, 3.0);
  const auto want = brute::self_join(d, 3.0);
  EXPECT_TRUE(ResultSet::equal_normalized(got.pairs, want.pairs));
  EXPECT_GE(got.stats.batch.batches_run, 17u);
}

TEST(Batching, TinyBuffersForceOverflowSplitsButStayExact) {
  const auto d = datagen::uniform(2000, 2, 0.0, 100.0, 7);
  GpuSelfJoinOptions opt;
  // A deliberately absurd undersized buffer: ~64 pairs per stream. The
  // estimator will undershoot per-batch peaks and the overflow-split path
  // must recover exactly.
  opt.max_buffer_pairs = 64;
  opt.safety = 0.01;  // sabotage the estimate too
  auto got = GpuSelfJoin(opt).run(d, 2.0);
  const auto want = brute::self_join(d, 2.0);
  EXPECT_TRUE(ResultSet::equal_normalized(got.pairs, want.pairs));
}

TEST(Batching, OverflowRetriesAreCounted) {
  const auto d = datagen::uniform(2000, 2, 0.0, 100.0, 9);
  GpuSelfJoinOptions opt;
  opt.max_buffer_pairs = 64;
  opt.safety = 0.01;
  const auto r = GpuSelfJoin(opt).run(d, 2.0);
  EXPECT_GT(r.stats.batch.overflow_retries, 0u);
}

TEST(Batching, SmallDeviceMemoryStillExact) {
  // A 2 MiB device: data + index + buffers must all fit, exercising the
  // capacity-aware buffer sizing.
  const auto d = datagen::uniform(4000, 2, 0.0, 100.0, 11);
  GpuSelfJoinOptions opt;
  opt.device = gpu::DeviceSpec::tiny(2 << 20);
  auto got = GpuSelfJoin(opt).run(d, 1.0);
  const auto want = brute::self_join(d, 1.0);
  EXPECT_TRUE(ResultSet::equal_normalized(got.pairs, want.pairs));
}

TEST(Batching, ThrowsWhenDatasetItselfExceedsDevice) {
  const auto d = datagen::uniform(100000, 4, 0.0, 100.0, 13);
  GpuSelfJoinOptions opt;
  opt.device = gpu::DeviceSpec::tiny(1 << 20);  // 1 MiB: data cannot fit
  EXPECT_THROW(GpuSelfJoin(opt).run(d, 1.0), gpu::DeviceOutOfMemory);
}

TEST(Batching, TransferAccountingIsConsistent) {
  const auto d = datagen::uniform(3000, 2, 0.0, 100.0, 15);
  GpuSelfJoinOptions opt;
  auto r = GpuSelfJoin(opt).run(d, 2.0);
  // Every result pair crossed the link exactly once.
  EXPECT_EQ(r.stats.batch.bytes_to_host, r.pairs.size() * sizeof(Pair));
  EXPECT_GT(r.stats.batch.modeled_transfer_seconds, 0.0);
}

TEST(Batching, StreamCountDoesNotChangeResult) {
  const auto d = datagen::uniform(2000, 3, 0.0, 100.0, 17);
  ResultSet reference;
  for (int streams : {1, 2, 3, 6}) {
    GpuSelfJoinOptions opt;
    opt.num_streams = streams;
    auto r = GpuSelfJoin(opt).run(d, 3.0);
    r.pairs.normalize();
    if (streams == 1) {
      reference = std::move(r.pairs);
    } else {
      EXPECT_TRUE(ResultSet::equal_normalized(reference, r.pairs))
          << streams << " streams";
    }
  }
}

TEST(Batching, AssemblyOrderIsDeterministicAcrossRuns) {
  // Overflow splits used to be appended from whichever stream hit them
  // first, making the raw (non-normalized) result order nondeterministic.
  // Assembly now merges segments by batch key: two runs with overflow
  // retries on 4 streams must produce byte-identical raw pair vectors.
  const auto d = datagen::ippp(1500, 2, 32.0, 23);
  GpuSelfJoinOptions opt;
  opt.num_streams = 4;
  opt.max_buffer_pairs = 64;  // force overflow splits
  opt.safety = 0.01;
  auto first = GpuSelfJoin(opt).run(d, 1.0);
  auto second = GpuSelfJoin(opt).run(d, 1.0);
  EXPECT_GT(first.stats.batch.overflow_retries, 0u);
  if (fault::enabled()) {
    // Ambient injection (the SJ_FAULTS chaos sweep) gives the two runs
    // different fault placements — the injector's draw counters advance
    // across runs — so their split patterns, and hence the raw segment
    // order, legitimately differ. Only the content contract applies.
    first.pairs.normalize();
    second.pairs.normalize();
  }
  EXPECT_EQ(first.pairs.pairs(), second.pairs.pairs());
}

TEST(Batching, ZeroEstimateWithOnePairBufferStaysExact) {
  // Regression: estimator undershoot taken to the limit. A plan built
  // from estimated_total == 0 with a 1-pair buffer (the self pair of any
  // singleton barely fits) must recover through the overflow-split path
  // and stay exact — sparse isolated points first, a dense clump last so
  // the strided batches mix both regimes.
  Dataset d(2);
  for (int i = 0; i < 48; ++i) {
    double p[2] = {10.0 * i, 0.0};
    d.push_back(p);
  }
  const double eps = 1.0;
  const auto want = brute::self_join(d, eps);
  ASSERT_GT(want.pairs.size(), 0u);

  GpuSelfJoinOptions opt;
  opt.num_streams = 3;
  const BatchPlan plan = plan_batches(/*estimated_total=*/0, d.size(),
                                      opt.min_batches, /*buffer_pairs=*/1,
                                      opt.safety);
  GridIndex index(d, eps);
  gpu::GlobalMemoryArena arena(opt.device);
  DeviceGrid dev(arena, d, index);
  Batcher batcher(arena, opt.device, opt.num_streams, opt.block_size);
  AtomicWork work;
  BatchRunStats stats;
  auto got =
      batcher.run(ResultRequest{}, dev.view(), false, plan, &work, &stats)
          .pairs;

  EXPECT_GT(stats.overflow_retries, 0u);
  EXPECT_TRUE(ResultSet::equal_normalized(got, want.pairs));
}

TEST(Batching, FatalOverflowRequiresUnsplittableSinglePoint) {
  // fatal_overflow must only fire when a SINGLE point's neighbourhood
  // exceeds the buffer: add a duplicate pair so two singleton batches
  // each produce 2 pairs against a 1-pair buffer.
  Dataset d(2);
  for (int i = 0; i < 16; ++i) {
    double p[2] = {10.0 * i, 0.0};
    d.push_back(p);
  }
  double dup[2] = {0.0, 0.0};
  d.push_back(dup);
  const double eps = 1.0;
  GridIndex index(d, eps);
  GpuSelfJoinOptions opt;
  gpu::GlobalMemoryArena arena(opt.device);
  DeviceGrid dev(arena, d, index);
  Batcher batcher(arena, opt.device, opt.num_streams, opt.block_size);
  const BatchPlan plan = plan_batches(0, d.size(), opt.min_batches, 1,
                                      opt.safety);
  AtomicWork work;
  EXPECT_THROW(
      batcher.run(ResultRequest{}, dev.view(), false, plan, &work, nullptr),
      gpu::DeviceOutOfMemory);
}

TEST(Batching, BatchResultsArriveSortedPerBatch) {
  // The paper sorts each batch's key/value pairs before transfer; with a
  // single batch-sized run the final buffer must be sorted.
  const auto d = datagen::uniform(500, 2, 0.0, 50.0, 19);
  GpuSelfJoinOptions opt;
  opt.min_batches = 3;
  const auto r = GpuSelfJoin(opt).run(d, 1.0);
  // Within the appended result, each batch segment is sorted; globally
  // normalising must not lose pairs.
  auto copy = r.pairs;
  copy.normalize();
  EXPECT_EQ(copy.size(), r.pairs.size());  // no duplicates across batches
}

// ------------------------------------------------------ pipeline ordering
//
// The pipeline's output order, checked against oracles that share none
// of its assembly code: brute-force pairs, bucketed by the batch that
// owns each key's slot, in plan order.

/// One pairs-mode BatchPipeline::run_cells over a cell-major grid, with
/// what the oracles need to attribute a key to its batch.
struct CellRun {
  std::vector<Pair> pairs;
  BatchRunStats stats;
  std::vector<std::uint32_t> slot_of;      // original id -> point slot
  std::vector<std::uint32_t> batch_begin;  // first slot of each batch

  /// Index of the batch whose slots hold original id `id`.
  std::size_t batch_of(std::uint32_t id) const {
    return static_cast<std::size_t>(
        std::upper_bound(batch_begin.begin(), batch_begin.end(),
                         slot_of[id]) -
        batch_begin.begin() - 1);
  }
  /// Segments the pipeline emitted: every successful launch makes one.
  std::size_t segments() const {
    return stats.batches_run - stats.overflow_retries;
  }
  /// True when a batch was split, so it spans several sorted segments.
  bool split() const {
    return stats.overflow_retries > 0 || stats.batches_split_on_oom > 0;
  }
};

CellRun run_cells_pairs(const Dataset& d, double eps, bool unicomp,
                        int streams, std::uint64_t buffer_pairs,
                        std::size_t batches,
                        const exec::ExecControl* control = nullptr,
                        AtomicWork* work = nullptr) {
  const GpuSelfJoinOptions opt;
  const GridIndex index(d, eps);
  gpu::GlobalMemoryArena arena(opt.device);
  const DeviceGrid dev(arena, d, index, GridLayout::kCellMajor);
  const GridDeviceView grid = dev.view();
  const CellAdjacency adjacency = build_cell_adjacency(arena, grid, unicomp);
  const CellBatchPlan plan =
      plan_cell_batches(adjacency.weights, 0, batches, buffer_pairs, 1.0);

  CellRun run;
  run.slot_of.resize(d.size());
  for (std::uint32_t slot = 0; slot < d.size(); ++slot) {
    run.slot_of[grid.orig[slot]] = slot;
  }
  for (std::size_t b = 0; b < plan.num_batches(); ++b) {
    run.batch_begin.push_back(grid.G[plan.boundaries[b]].min);
  }
  PipelineConfig config;
  config.streams = streams;
  BatchPipeline pipeline(arena, opt.device, config);
  ResultRequest req;
  req.control = control;
  AtomicWork local;
  run.pairs = pipeline
                  .run_cells(req, grid, unicomp, plan, &adjacency,
                             work != nullptr ? work : &local, &run.stats)
                  .pairs.pairs();
  return run;
}

/// Brute-force pairs bucketed by the batch owning their key, each bucket
/// sorted: what each batch's segment holds without the UNICOMP reverse
/// pairs.
std::vector<std::vector<Pair>> oracle_batches(const Dataset& d, double eps,
                                              const CellRun& run) {
  std::vector<std::vector<Pair>> per(run.batch_begin.size());
  const brute::BruteResult truth = brute::self_join(d, eps);
  for (const Pair& p : truth.pairs.pairs()) {
    per[run.batch_of(p.key)].push_back(p);
  }
  for (auto& b : per) std::sort(b.begin(), b.end());
  return per;
}

/// Start of each maximal non-decreasing run of `v`.
std::vector<std::size_t> sorted_run_starts(const std::vector<Pair>& v) {
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i == 0 || v[i] < v[i - 1]) starts.push_back(i);
  }
  return starts;
}

/// The full-neighbourhood order without assuming where batches split:
/// keys visit the batches in plan order, each batch's block holds exactly
/// its oracle pairs, and the sorted runs inside a block (a split batch's
/// halves) cover ascending, disjoint slot ranges.
void expect_plan_ordered_blocks(const CellRun& run,
                                const std::vector<std::vector<Pair>>& want) {
  std::size_t pos = 0;
  for (std::size_t b = 0; b < want.size(); ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    ASSERT_LE(pos + want[b].size(), run.pairs.size());
    std::vector<Pair> block(run.pairs.begin() + static_cast<std::ptrdiff_t>(pos),
                            run.pairs.begin() + static_cast<std::ptrdiff_t>(
                                                    pos + want[b].size()));
    pos += want[b].size();
    for (const Pair& p : block) ASSERT_EQ(run.batch_of(p.key), b);
    std::int64_t prev_max_slot = -1;
    const std::vector<std::size_t> starts = sorted_run_starts(block);
    for (std::size_t r = 0; r < starts.size(); ++r) {
      const std::size_t end = r + 1 < starts.size() ? starts[r + 1] : block.size();
      std::int64_t lo = std::numeric_limits<std::int64_t>::max();
      std::int64_t hi = -1;
      for (std::size_t i = starts[r]; i < end; ++i) {
        lo = std::min<std::int64_t>(lo, run.slot_of[block[i].key]);
        hi = std::max<std::int64_t>(hi, run.slot_of[block[i].key]);
      }
      EXPECT_GT(lo, prev_max_slot) << "sorted run " << r;
      prev_max_slot = hi;
    }
    std::sort(block.begin(), block.end());
    EXPECT_EQ(block, want[b]);
  }
  EXPECT_EQ(pos, run.pairs.size());
}

TEST(PipelineOrder, FullNeighbourhoodIsPlanOrderedSortedBatches) {
  const auto d = datagen::gaussian_mixture(3000, 2, 5, 2.0, 0.0, 60.0, 43);
  const double eps = 1.2;
  std::vector<Pair> first;
  for (const int streams : {1, 3}) {
    SCOPED_TRACE("streams " + std::to_string(streams));
    const CellRun run =
        run_cells_pairs(d, eps, /*unicomp=*/false, streams, 1u << 20, 7);
    ASSERT_EQ(run.batch_begin.size(), 7u);
    const auto want = oracle_batches(d, eps, run);
    expect_plan_ordered_blocks(run, want);
    if (!run.split()) {
      // One sorted segment per batch: the output IS the concatenation.
      std::vector<Pair> concat;
      for (const auto& b : want) concat.insert(concat.end(), b.begin(), b.end());
      EXPECT_EQ(run.pairs, concat);
    }
    if (first.empty()) {
      first = run.pairs;
    } else if (!run.split()) {
      EXPECT_EQ(run.pairs, first);
    }
  }
}

TEST(PipelineOrder, OverflowSplitsKeepPlanOrder) {
  // Buffers of 200 pairs split most batches, some down to single cells
  // and slot subranges; the halves land in ascending slot order.
  const auto d = datagen::gaussian_mixture(2000, 2, 4, 2.0, 0.0, 40.0, 47);
  const double eps = 1.0;
  std::vector<Pair> bytes[2];
  for (const int streams : {1, 3}) {
    SCOPED_TRACE("streams " + std::to_string(streams));
    const CellRun run =
        run_cells_pairs(d, eps, /*unicomp=*/false, streams, 200, 5);
    EXPECT_GT(run.stats.overflow_retries, 0u);
    expect_plan_ordered_blocks(run, oracle_batches(d, eps, run));
    if (run.stats.batches_split_on_oom == 0) {
      bytes[streams == 1 ? 0 : 1] = run.pairs;
    }
  }
  if (!bytes[0].empty() && !bytes[1].empty()) {
    EXPECT_EQ(bytes[0], bytes[1]);
  }
}

TEST(PipelineOrder, UnicompOutputIsOneSortedRunPerSegment) {
  // UNICOMP batches also emit reverse pairs keyed outside their own
  // slots, so the output is not plan-ordered by key; it is still the
  // concatenation of the emitted segments, each sorted.
  const auto d = datagen::gaussian_mixture(3000, 2, 5, 2.0, 0.0, 60.0, 53);
  const double eps = 1.2;
  auto want = brute::self_join(d, eps).pairs.pairs();
  std::sort(want.begin(), want.end());
  for (const std::uint64_t buffer : {std::uint64_t{1} << 20, std::uint64_t{300}}) {
    std::vector<Pair> first;
    for (const int streams : {1, 3}) {
      SCOPED_TRACE("streams " + std::to_string(streams) + ", buffer " +
                   std::to_string(buffer));
      const CellRun run =
          run_cells_pairs(d, eps, /*unicomp=*/true, streams, buffer, 6);
      if (buffer < 1000) {
        EXPECT_GT(run.stats.overflow_retries, 0u);
      }
      EXPECT_GE(run.segments(), run.batch_begin.size());
      EXPECT_LE(sorted_run_starts(run.pairs).size(), run.segments());
      auto sorted = run.pairs;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(sorted, want);
      if (run.stats.batches_split_on_oom != 0) continue;
      if (first.empty()) {
        first = run.pairs;
      } else {
        EXPECT_EQ(run.pairs, first);
      }
    }
  }
}

TEST(PipelineOrder, CancelFromAnotherThreadMidRunInPairsMode) {
  // A client thread trips the token once the first kernel has flushed
  // its work; the run must surface exec::Cancelled through the drain
  // path (in a contracts build, SegmentPool also checks that no staging
  // buffer comes back twice). A run that completes before the token is
  // tripped is not an error — it is retried, so the test does not depend
  // on scheduling.
  const auto d = datagen::gaussian_mixture(6000, 2, 5, 2.0, 0.0, 60.0, 59);
  int cancelled = 0;
  for (int attempt = 0; attempt < 20 && cancelled == 0; ++attempt) {
    exec::CancelToken token;
    exec::ExecControl ctl;
    ctl.cancel = &token;
    AtomicWork work;
    std::atomic<bool> finished{false};
    std::thread client([&] {
      gpu::KernelMetrics m;
      while (!finished.load()) {
        m = {};
        work.add_to(m);
        if (m.distance_calcs > 0) {
          token.cancel();
          return;
        }
        std::this_thread::yield();
      }
    });
    try {
      const CellRun run = run_cells_pairs(d, 1.2, /*unicomp=*/true, 3,
                                          1u << 20, 40, &ctl, &work);
      EXPECT_FALSE(run.pairs.empty());
    } catch (const exec::Cancelled&) {
      ++cancelled;
    }
    finished.store(true);
    client.join();
  }
  EXPECT_EQ(cancelled, 1);
}

}  // namespace
}  // namespace sj
