#include "core/batcher.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "core/batch_pipeline.hpp"

namespace sj {

BatchPlan plan_batches(std::uint64_t estimated_total, std::uint64_t n_queries,
                       std::size_t min_batches, std::uint64_t buffer_pairs,
                       double safety) {
  BatchPlan plan;
  plan.buffer_pairs = std::max<std::uint64_t>(buffer_pairs, 1);
  const auto padded = static_cast<std::uint64_t>(
      std::ceil(static_cast<double>(estimated_total) * safety));
  std::size_t by_volume = static_cast<std::size_t>(
      (padded + plan.buffer_pairs - 1) / plan.buffer_pairs);
  plan.num_batches = std::max(min_batches, std::max<std::size_t>(by_volume, 1));
  // Never more batches than queries (each batch needs at least one point).
  if (n_queries > 0) {
    plan.num_batches =
        std::min<std::size_t>(plan.num_batches, static_cast<std::size_t>(n_queries));
  }
  return plan;
}

std::vector<std::uint32_t> weighted_partition(
    const std::vector<std::uint64_t>& weights, std::size_t parts) {
  const std::size_t num_units = weights.size();
  // max_end below underflows if a part cannot take its one guaranteed
  // unit; every caller clamps parts into [1, num_units] first.
  SJ_EXPECT(parts >= 1 && parts <= num_units,
            "weighted_partition: parts must be clamped into [1, num_units]");
  // Weights are per-cell candidate-pair counts and can sum past 64 bits
  // in adversarial cases; accumulate in 128 bits.
  unsigned __int128 total = 0;
  for (const std::uint64_t w : weights) total += w;

  std::vector<std::uint32_t> boundaries;
  boundaries.reserve(parts + 1);
  boundaries.push_back(0);
  std::size_t pos = 0;
  unsigned __int128 cum = 0;
  for (std::size_t b = 0; b + 1 < parts; ++b) {
    // Close part b where the cumulative weight reaches its equal share,
    // taking at least one unit and leaving one for every later part.
    const unsigned __int128 target =
        total * static_cast<unsigned __int128>(b + 1) / parts;
    const std::size_t max_end = num_units - (parts - 1 - b);
    do {
      cum += weights[pos];
      ++pos;
    } while (pos < max_end && cum < target);
    boundaries.push_back(static_cast<std::uint32_t>(pos));
  }
  boundaries.push_back(static_cast<std::uint32_t>(num_units));
  SJ_ENSURE(boundaries.size() == parts + 1 && boundaries.front() == 0 &&
                boundaries.back() == num_units,
            "weighted_partition: boundaries must cover every unit");
  return boundaries;
}

CellBatchPlan plan_cell_batches(const std::vector<std::uint64_t>& cell_weights,
                                std::uint64_t estimated_total,
                                std::size_t min_batches,
                                std::uint64_t buffer_pairs, double safety) {
  CellBatchPlan plan;
  plan.buffer_pairs = std::max<std::uint64_t>(buffer_pairs, 1);
  const std::size_t num_cells = cell_weights.size();
  if (num_cells == 0) return plan;  // no batches

  const auto padded = static_cast<std::uint64_t>(
      std::ceil(static_cast<double>(estimated_total) * safety));
  const std::size_t by_volume = static_cast<std::size_t>(
      (padded + plan.buffer_pairs - 1) / plan.buffer_pairs);
  std::size_t nb = std::max(min_batches, std::max<std::size_t>(by_volume, 1));
  // Never more batches than cells (each batch needs at least one cell).
  nb = std::min(nb, num_cells);

  plan.boundaries = weighted_partition(cell_weights, nb);
  SJ_ENSURE(plan.boundaries.size() == nb + 1,
            "plan_cell_batches: one boundary pair per batch");
  return plan;
}

std::uint64_t size_buffer_pairs(const gpu::GlobalMemoryArena& arena,
                                std::uint64_t n_queries,
                                std::uint64_t estimated_total,
                                std::size_t min_batches, int num_streams,
                                std::uint64_t max_buffer_pairs, double safety) {
  // Keep room for the per-batch query-id uploads.
  const std::uint64_t reserve_bytes =
      n_queries * sizeof(std::uint32_t) + (16u << 10);
  const std::uint64_t free_bytes =
      arena.free_bytes() > reserve_bytes ? arena.free_bytes() - reserve_bytes
                                         : 0;
  std::uint64_t buffer_pairs =
      free_bytes /
      (sizeof(Pair) * kDeviceBuffersPerStream *
       static_cast<std::uint64_t>(std::max(1, num_streams)));
  buffer_pairs = std::min(buffer_pairs, max_buffer_pairs);
  // No point allocating beyond what one batch is expected to produce
  // (padded by the safety factor and a floor); the overflow-split path
  // recovers from any underestimate.
  const std::uint64_t desired =
      static_cast<std::uint64_t>(std::ceil(
          static_cast<double>(estimated_total) * safety /
          static_cast<double>(std::max<std::size_t>(min_batches, 1)))) +
      1024;
  buffer_pairs = std::min(buffer_pairs, desired);
  return std::max<std::uint64_t>(buffer_pairs, 64);
}

PipelineOutput Batcher::run(const ResultRequest& req,
                            const GridDeviceView& grid, bool unicomp,
                            const BatchPlan& plan, AtomicWork* work,
                            BatchRunStats* stats) {
  BatchPipeline pipeline(arena_, spec_, config());
  return pipeline.run(req, grid, unicomp, plan, work, stats);
}

PipelineOutput Batcher::run_cells(const ResultRequest& req,
                                  const GridDeviceView& grid, bool unicomp,
                                  const CellBatchPlan& plan,
                                  const CellAdjacency* adjacency,
                                  AtomicWork* work, BatchRunStats* stats) {
  BatchPipeline pipeline(arena_, spec_, config());
  return pipeline.run_cells(req, grid, unicomp, plan, adjacency, work, stats);
}

PipelineOutput Batcher::run_join_groups(const ResultRequest& req,
                                        const GridDeviceView& grid,
                                        const CellBatchPlan& plan,
                                        const JoinAdjacency& adjacency,
                                        AtomicWork* work,
                                        BatchRunStats* stats) {
  BatchPipeline pipeline(arena_, spec_, config());
  return pipeline.run_join_groups(req, grid, plan, adjacency, work, stats);
}

PipelineConfig Batcher::config() const {
  PipelineConfig config;
  config.streams = std::max(1, num_streams_);
  config.block_size = block_size_;
  config.retry = retry_;
  return config;
}

Batcher::Batcher(gpu::GlobalMemoryArena& arena, const gpu::DeviceSpec& spec,
                 int num_streams, int block_size, RetryPolicy retry)
    : arena_(arena),
      spec_(spec),
      num_streams_(num_streams),
      block_size_(block_size),
      retry_(retry) {}

}  // namespace sj
