#include "core/async_self_join.hpp"

#include <stdexcept>
#include <thread>
#include <utility>

#include "common/timer.hpp"
#include "core/batch_pipeline.hpp"
#include "core/device_view.hpp"
#include "core/estimator.hpp"
#include "core/grid_index.hpp"
#include "core/kernels.hpp"
#include "gpusim/arena.hpp"
#include "gpusim/stream.hpp"

namespace sj {

AsyncGpuSelfJoin::AsyncGpuSelfJoin(AsyncSelfJoinOptions opt) : opt_(opt) {
  if (opt_.block_size <= 0) {
    throw std::invalid_argument("AsyncGpuSelfJoin: block_size must be positive");
  }
  if (opt_.num_streams <= 0) {
    throw std::invalid_argument(
        "AsyncGpuSelfJoin: num_streams must be positive");
  }
  if (opt_.assembly_threads <= 0) {
    throw std::invalid_argument(
        "AsyncGpuSelfJoin: assembly_threads must be positive");
  }
  if (opt_.sample_rate <= 0.0 || opt_.sample_rate > 1.0) {
    throw std::invalid_argument(
        "AsyncGpuSelfJoin: sample_rate must be in (0, 1]");
  }
}

SelfJoinResult AsyncGpuSelfJoin::run(const Dataset& d, double eps) const {
  if (eps < 0.0) {
    throw std::invalid_argument("AsyncGpuSelfJoin: eps must be >= 0");
  }
  if (opt_.mode == ResultMode::kSink && !opt_.sink) {
    throw std::invalid_argument(
        "AsyncGpuSelfJoin: result mode 'sink' needs a sink callback");
  }
  SelfJoinResult result;
  SelfJoinStats& st = result.stats;
  Timer total;

  // --- Host-side index construction (cheap relative to tree indexes).
  Timer phase;
  GridIndex index(d, eps);
  st.index_build_seconds = phase.seconds();
  st.grid_nonempty_cells = index.num_nonempty_cells();
  st.grid_total_cells = index.total_cells();

  if (d.empty()) {
    st.total_seconds = total.seconds();
    return result;
  }

  // --- Upload dataset + index to the (simulated) device.
  gpu::GlobalMemoryArena arena(opt_.device);
  phase.reset();
  DeviceGrid dev(arena, d, index, opt_.layout);
  st.upload_seconds = phase.seconds();
  GridDeviceView grid = dev.view();
  if (!opt_.soa) {
    // AoS ablation: drop the SoA planes from the kernels' view.
    for (int j = 0; j < grid.dim; ++j) grid.coord[j] = nullptr;
  }

  // Non-materialising modes never allocate pair buffers, so the sizing
  // estimate is dead weight — skip stage 0 entirely.
  const bool pairs_path = opt_.mode == ResultMode::kPairs ||
                          opt_.mode == ResultMode::kSink;

  // --- Stage 0: the sampling estimator kicks off immediately on its own
  // stream. Batch sizing depends on its result, so with default options
  // the host has little to overlap beyond pipeline setup; in metrics mode
  // the serial Table II cache/occupancy pass — which, like the estimator,
  // only reads the grid — runs concurrently instead of serially after the
  // join, and that one is expensive.
  EstimateResult est;
  gpu::Stream estimate_stream(opt_.device);
  gpu::Event estimate_done;
  if (pairs_path) {
    estimate_stream.enqueue([&] {
      est = estimate_result_size(grid, opt_.unicomp, opt_.sample_rate,
                                 opt_.block_size);
    });
  }
  estimate_done.record(estimate_stream);

  std::thread metrics_thread;
  if (opt_.collect_metrics) {
    // Writes only the occupancy/cache fields of st, disjoint from
    // everything the join path below touches.
    metrics_thread = std::thread([&] { collect_gpu_stats(grid, opt_, st); });
  }

  PipelineConfig config;
  config.streams = opt_.num_streams;
  config.assembly_threads = opt_.assembly_threads;
  config.block_size = opt_.block_size;
  config.retry = opt_.retry;
  BatchPipeline pipeline(arena, opt_.device, config);

  // Cell-mode planning pass overlaps the sampling estimator: both only
  // read the grid. The adjacency is built before buffer sizing so its
  // device memory is accounted for.
  CellAdjacency adjacency;
  if (opt_.layout == GridLayout::kCellMajor) {
    Timer adjacency_timer;
    adjacency = build_cell_adjacency(arena, grid, opt_.unicomp);
    st.adjacency_seconds = adjacency_timer.seconds();
  }

  estimate_done.wait();
  st.estimate_seconds = est.seconds;
  st.estimated_total = est.estimated_total;

  std::uint64_t buffer_pairs = 1;
  if (pairs_path) {
    const std::uint64_t upload_units =
        grid.cell_major ? d.size() * 3 : d.size();
    buffer_pairs = size_buffer_pairs(
        arena, upload_units, est.estimated_total, opt_.min_batches,
        opt_.num_streams, opt_.max_buffer_pairs, opt_.safety);
  }

  ResultRequest req;
  req.mode = opt_.mode;
  req.sink = opt_.sink;
  req.histogram_keys = d.size();
  req.control = opt_.control;

  // --- Stages 1-3: the overlapped batch pipeline.
  AtomicWork work;
  phase.reset();
  PipelineOutput out;
  try {
    if (opt_.layout == GridLayout::kCellMajor) {
      const CellBatchPlan plan =
          plan_cell_batches(adjacency.weights, est.estimated_total,
                            opt_.min_batches, buffer_pairs, opt_.safety);
      out = pipeline.run_cells(req, grid, opt_.unicomp, plan, &adjacency,
                               &work, &st.batch);
    } else {
      const BatchPlan plan = plan_batches(est.estimated_total, d.size(),
                                          opt_.min_batches, buffer_pairs,
                                          opt_.safety);
      out = pipeline.run(req, grid, opt_.unicomp, plan, &work, &st.batch);
    }
  } catch (...) {
    if (metrics_thread.joinable()) metrics_thread.join();
    throw;
  }
  result.pairs = std::move(out.pairs);
  result.total_pairs = out.total_pairs;
  result.histogram = std::move(out.histogram);
  st.join_seconds = phase.seconds();

  work.add_to(st.metrics);
  st.metrics.cells_examined += adjacency.cells_examined;
  st.metrics.cells_nonempty += adjacency.cells_nonempty;
  st.metrics.kernel_seconds = st.batch.kernel_seconds;

  if (metrics_thread.joinable()) {
    metrics_thread.join();
  } else {
    collect_gpu_stats(grid, opt_, st);
  }

  st.total_seconds = total.seconds();
  return result;
}

}  // namespace sj
