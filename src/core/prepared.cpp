#include "core/prepared.hpp"

#include <cstring>
#include <stdexcept>

#include "common/parse.hpp"
#include "common/timer.hpp"
#include "core/batcher.hpp"

namespace sj {

namespace {

/// Reservation proxy for the per-batch uploads when sizing the result
/// buffers: cell-major batches upload 12-byte work items instead of
/// 4-byte query ids, so the proxy triples.
std::uint64_t upload_units(GridLayout layout, std::uint64_t n_queries) {
  return layout == GridLayout::kCellMajor ? n_queries * 3 : n_queries;
}

}  // namespace

PreparedJoin::PreparedJoin(const Dataset& data, double eps,
                           const gpu::DeviceSpec& device, GridLayout layout)
    : data_(&data), device_(device), layout_(layout), arena_(device) {
  parse::non_negative("argument 'eps' of PreparedJoin", eps);
  Timer t;
  index_ = GridIndex(data, eps);
  index_build_seconds_ = t.seconds();
  t.reset();
  dev_ = std::make_unique<DeviceGrid>(arena_, data, index_, layout_);
  upload_seconds_ = t.seconds();
}

PreparedJoin::PreparedJoin(const Dataset& data, GridIndex index,
                           const gpu::DeviceSpec& device, GridLayout layout)
    : data_(&data),
      index_(std::move(index)),
      device_(device),
      layout_(layout),
      arena_(device) {
  if (index_.num_points() != data.size() || index_.dim() != data.dim()) {
    throw std::invalid_argument(
        "PreparedJoin: adopted index does not match the dataset");
  }
  Timer t;
  dev_ = std::make_unique<DeviceGrid>(arena_, data, index_, layout_);
  upload_seconds_ = t.seconds();
}

GpuJoinResult PreparedJoin::run(const Dataset& queries,
                                const GpuJoinOptions& opt) const {
  parse::matching_dims("argument 'queries' of PreparedJoin::run",
                       queries.dim(), "the prepared dataset", data_->dim());
  if (opt.mode == ResultMode::kSink && !opt.sink) {
    throw std::invalid_argument(
        "PreparedJoin::run: result mode 'sink' needs a sink callback");
  }
  if (opt.control != nullptr) opt.control->check("prepared join entry");
  GpuJoinResult result;
  GpuJoinStats& st = result.stats;
  Timer total;
  st.index_build_seconds = 0.0;  // amortised into the PreparedJoin
  if (queries.empty() || data_->empty()) {
    if (opt.mode == ResultMode::kHistogram) {
      result.histogram.assign(queries.size(), 0);
    }
    st.total_seconds = total.seconds();
    return result;
  }

  // Per-call query upload into the shared arena (released on return).
  gpu::DeviceBuffer<double> qbuf(arena_, queries.raw().size());
  std::memcpy(qbuf.data(), queries.raw().data(),
              queries.raw().size() * sizeof(double));
  GridDeviceView grid = dev_->view();
  grid.qpoints = qbuf.data();
  grid.qn = queries.size();
  if (!opt.soa) {
    for (int j = 0; j < grid.dim; ++j) grid.coord[j] = nullptr;
  }

  // Non-pairs modes (count/histogram) skip the estimator and every pair
  // buffer; the batch count falls back to min_batches.
  const bool pairs_path =
      opt.mode == ResultMode::kPairs || opt.mode == ResultMode::kSink;
  EstimateResult est;
  if (pairs_path) {
    est = estimate_result_size(grid, /*unicomp=*/false, opt.sample_rate,
                               opt.block_size);
    st.estimated_total = est.estimated_total;
  }

  ResultRequest req;
  req.mode = opt.mode;
  req.sink = opt.sink;
  req.histogram_keys = queries.size();
  req.control = opt.control;

  AtomicWork work;
  Batcher batcher(arena_, device_, opt.num_streams, opt.block_size,
                  opt.retry);

  // Cell-major: group the queries by their data-grid home cell and
  // resolve each group's candidate ranges ONCE; built before buffer
  // sizing so its device memory is accounted for.
  JoinAdjacency adjacency;
  if (layout_ == GridLayout::kCellMajor) {
    adjacency = build_join_adjacency(arena_, grid);
    st.query_groups = adjacency.num_groups();
    // The adjacency build carries the index-search work (resolved once
    // per query group rather than once per query).
    st.metrics.cells_examined += adjacency.cells_examined;
    st.metrics.cells_nonempty += adjacency.cells_nonempty;
  }

  const std::uint64_t buffer_pairs =
      pairs_path ? size_buffer_pairs(arena_,
                                     upload_units(layout_, queries.size()),
                                     est.estimated_total, opt.min_batches,
                                     opt.num_streams, opt.max_buffer_pairs,
                                     opt.safety)
                 : 1;
  PipelineOutput out;
  if (layout_ == GridLayout::kCellMajor) {
    const CellBatchPlan plan =
        plan_cell_batches(adjacency.weights, est.estimated_total,
                          opt.min_batches, buffer_pairs, opt.safety);
    out = batcher.run_join_groups(req, grid, plan, adjacency, &work,
                                  &st.batch);
  } else {
    const BatchPlan plan = plan_batches(est.estimated_total, queries.size(),
                                        opt.min_batches, buffer_pairs,
                                        opt.safety);
    out = batcher.run(req, grid, /*unicomp=*/false, plan, &work, &st.batch);
  }
  work.add_to(st.metrics);

  result.pairs = std::move(out.pairs);
  result.total_pairs = out.total_pairs;
  result.histogram = std::move(out.histogram);
  st.metrics.kernel_seconds = st.batch.kernel_seconds;
  st.total_seconds = total.seconds();
  return result;
}

SelfJoinResult PreparedJoin::self_join(const GpuSelfJoinOptions& opt) const {
  if (opt.mode == ResultMode::kSink && !opt.sink) {
    throw std::invalid_argument(
        "PreparedJoin::self_join: result mode 'sink' needs a sink callback");
  }
  if (opt.control != nullptr) opt.control->check("prepared self-join entry");
  SelfJoinResult result;
  SelfJoinStats& st = result.stats;
  Timer total;
  st.grid_nonempty_cells = index_.num_nonempty_cells();
  st.grid_total_cells = index_.total_cells();
  if (data_->empty()) {
    st.total_seconds = total.seconds();
    return result;
  }

  GridDeviceView grid = dev_->view();
  if (!opt.soa) {
    // AoS ablation: drop the SoA planes from the kernels' view.
    for (int j = 0; j < grid.dim; ++j) grid.coord[j] = nullptr;
  }

  // Count-only and histogram runs materialise no pairs, so neither the
  // result-size estimator nor any pair buffer is needed — the batch count
  // falls back to min_batches.
  const bool pairs_path =
      opt.mode == ResultMode::kPairs || opt.mode == ResultMode::kSink;
  const bool cell_major = layout_ == GridLayout::kCellMajor;

  // The estimate (from a sample, count-only kernel) and the cell-major
  // adjacency (every cell's candidate ranges, resolved ONCE and shared by
  // the planner and all launches, overflow retries included) are
  // query-independent for the self-join, so they amortise across calls
  // (per unicomp flag). The adjacency is built before buffer sizing so
  // its device memory is accounted for.
  const CellAdjacency* adjacency = nullptr;
  EstimateResult est;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    SelfCache& cache = self_cache_[opt.unicomp ? 1 : 0];
    if (pairs_path && !cache.estimated) {
      Timer phase;
      cache.estimate = estimate_result_size(grid, opt.unicomp,
                                            opt.sample_rate, opt.block_size);
      cache.estimated = true;
      st.estimate_seconds = phase.seconds();
    }
    if (cell_major && cache.adjacency == nullptr) {
      Timer phase;
      cache.adjacency = std::make_unique<CellAdjacency>(
          build_cell_adjacency(arena_, grid, opt.unicomp));
      st.adjacency_seconds = phase.seconds();
      // The adjacency build carries the cell-mode index-search work
      // (resolved once per cell rather than once per point).
      st.metrics.cells_examined += cache.adjacency->cells_examined;
      st.metrics.cells_nonempty += cache.adjacency->cells_nonempty;
    }
    adjacency = cache.adjacency.get();
    est = cache.estimate;
  }
  if (pairs_path) st.estimated_total = est.estimated_total;

  std::uint64_t buffer_pairs = 1;
  if (pairs_path) {
    buffer_pairs = size_buffer_pairs(
        arena_, upload_units(layout_, data_->size()), est.estimated_total,
        opt.min_batches, opt.num_streams, opt.max_buffer_pairs, opt.safety);
  }

  ResultRequest req;
  req.mode = opt.mode;
  req.sink = opt.sink;
  req.histogram_keys = data_->size();
  req.control = opt.control;

  // Batched, stream-pipelined join.
  AtomicWork work;
  Timer phase;
  Batcher batcher(arena_, device_, opt.num_streams, opt.block_size,
                  opt.retry);
  PipelineOutput out;
  if (cell_major) {
    // Per-cell work estimates -> weighted contiguous cell batches.
    const CellBatchPlan plan =
        plan_cell_batches(adjacency->weights, est.estimated_total,
                          opt.min_batches, buffer_pairs, opt.safety);
    out = batcher.run_cells(req, grid, opt.unicomp, plan, adjacency, &work,
                            &st.batch);
  } else {
    const BatchPlan plan = plan_batches(est.estimated_total, data_->size(),
                                        opt.min_batches, buffer_pairs,
                                        opt.safety);
    out = batcher.run(req, grid, opt.unicomp, plan, &work, &st.batch);
  }
  result.pairs = std::move(out.pairs);
  result.total_pairs = out.total_pairs;
  result.histogram = std::move(out.histogram);
  st.join_seconds = phase.seconds();

  work.add_to(st.metrics);
  st.metrics.kernel_seconds = st.batch.kernel_seconds;
  collect_gpu_stats(grid, opt, st);
  st.total_seconds = total.seconds();
  return result;
}

}  // namespace sj
