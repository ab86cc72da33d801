// The batching scheme (Section V-A).
//
// Low-dimensional self-joins produce result sets that can exceed the
// GPU's global memory; the total result size is estimated up front, the
// query points are split into >= 3 batches (the paper's minimum), and the
// batches are pipelined over multiple streams so kernel execution overlaps
// with bidirectional host-GPU transfers. A batch whose result overflows
// its buffer (the estimate is only an estimate) is split in two and
// retried — the scheme is exact, not best-effort.
//
// The execution machinery lives in batch_pipeline.hpp: a three-stage
// pipeline (task queue -> stream pool -> host assembly) with
// deterministic, batch-keyed result order. Batcher is the per-run facade
// over it that PreparedJoin (and so GpuSelfJoin and gpu_join) uses.
#pragma once

#include <cstdint>
#include <vector>

#include "common/cancel.hpp"
#include "common/result.hpp"
#include "core/device_view.hpp"
#include "core/work_counters.hpp"
#include "gpusim/arena.hpp"
#include "gpusim/device.hpp"

namespace sj {

struct CellAdjacency;   // kernels.hpp
struct JoinAdjacency;   // kernels.hpp
struct PipelineConfig;  // batch_pipeline.hpp

struct BatchPlan {
  std::size_t num_batches = 0;
  std::uint64_t buffer_pairs = 0;  // per-stream result buffer capacity
};

/// Size the batches: num_batches = max(min_batches,
/// ceil(estimated_total * safety / buffer_pairs)).
BatchPlan plan_batches(std::uint64_t estimated_total, std::uint64_t n_queries,
                       std::size_t min_batches, std::uint64_t buffer_pairs,
                       double safety);

/// Batch plan for the cell-centric kernel: batch b covers the non-empty
/// cells [boundaries[b], boundaries[b+1]). Contiguous cell ranges keep
/// every batch's point slots contiguous, which preserves the
/// deterministic first-slot merge key.
struct CellBatchPlan {
  std::vector<std::uint32_t> boundaries;  // size num_batches + 1
  std::uint64_t buffer_pairs = 0;

  std::size_t num_batches() const {
    return boundaries.empty() ? 0 : boundaries.size() - 1;
  }
};

/// Place `parts` contiguous boundaries over `weights` so each part takes
/// at least one entry and carries an approximately equal share of the
/// total weight. Returns parts + 1 boundaries (boundaries[p] ..
/// boundaries[p+1] is part p); `parts` must be in [1, weights.size()].
/// The balance rule shared by plan_cell_batches (batch volume balance)
/// and the gpu_shard planner (per-device work balance).
std::vector<std::uint32_t> weighted_partition(
    const std::vector<std::uint64_t>& weights, std::size_t parts);

/// Partition the non-empty cells into contiguous, WORK-BALANCED batches:
/// the batch count follows the plan_batches() volume rule (capped by the
/// cell count), and boundaries are placed so each batch carries an
/// approximately equal share of `cell_weights` (per_cell_candidates) —
/// the fix for load skew on clustered data, where uniform-cardinality
/// batches put most of the result volume into a handful of batches.
CellBatchPlan plan_cell_batches(const std::vector<std::uint64_t>& cell_weights,
                                std::uint64_t estimated_total,
                                std::size_t min_batches,
                                std::uint64_t buffer_pairs, double safety);

/// Size the per-stream result buffers within the device's free memory
/// (keeping room for the per-batch query-id uploads and accounting for
/// the pipeline's double-buffered slots), capped by `max_buffer_pairs`
/// and by what one batch is expected to produce. Shared by the self-join
/// and the query/data join.
std::uint64_t size_buffer_pairs(const gpu::GlobalMemoryArena& arena,
                                std::uint64_t n_queries,
                                std::uint64_t estimated_total,
                                std::size_t min_batches, int num_streams,
                                std::uint64_t max_buffer_pairs, double safety);

/// What a pipeline/batcher run should materialise (ResultMode,
/// common/result.hpp).
///
///   kPairs     — the full ResultSet: each completed segment is appended
///                to it as soon as its batch-key turn comes (the
///                watermark below).
///   kCountOnly — total pair count only: no result buffers, no device
///                sort, no transfers, no assembly stage.
///   kHistogram — per-key neighbour counts into one O(n) device array
///                (`histogram_keys` entries, keys as emitted by the
///                kernel: original ids for the self-join, query indices
///                for the join); same short-circuits as kCountOnly.
///   kSink      — identical kernel/sort/transfer path to kPairs, but
///                completed segments are streamed through `sink` in
///                ascending batch order AS SOON AS the order is settled
///                (a watermark over the outstanding batch keys) instead
///                of being appended — peak host memory drops from
///                O(pairs) to O(in-flight batches). The callback is
///                invoked serially; the concatenation of its batches is
///                byte-identical to the kPairs output.
struct ResultRequest {
  ResultMode mode = ResultMode::kPairs;
  PairSink sink;                     ///< consumer for kSink
  std::uint64_t histogram_keys = 0;  ///< key-space size for kHistogram

  /// Optional deadline/cancellation control (common/cancel.hpp),
  /// non-owning. The pipeline polls it at its checkpoint seams (task
  /// pop, pre-launch, pre-transfer); a tripped control aborts the run
  /// with the typed exec:: error through the normal drain path.
  const exec::ExecControl* control = nullptr;
};

/// What a pipeline/batcher run produced: `total_pairs` is exact in every
/// mode; `pairs` is non-empty only for kPairs, `histogram` only for
/// kHistogram.
struct PipelineOutput {
  ResultSet pairs;
  std::uint64_t total_pairs = 0;
  std::vector<std::uint32_t> histogram;
};

struct BatchRunStats {
  std::size_t batches_run = 0;       // including overflow retries
  std::size_t overflow_retries = 0;  // batches that had to be split
  std::size_t retries = 0;           // batches re-run after transient faults
  std::size_t batches_split_on_oom = 0;  // halved after ResourceExhausted
  double kernel_seconds = 0.0;       // summed kernel wall-clock
  double sort_seconds = 0.0;         // per-batch key/value sorts
  double assembly_seconds = 0.0;     // host-side segment merging
  std::uint64_t bytes_to_host = 0;   // result transfer volume
  double modeled_transfer_seconds = 0.0;  // bytes / PCIe bandwidth
};

/// How the pipeline responds to fault::TransientDeviceError: re-run the
/// batch up to `retries` times with exponential backoff starting at
/// `backoff_ms` (doubling per attempt, capped at 32x). Retries never
/// change output — failed operations have no side effects (the injection
/// hooks and the gpusim seams fail BEFORE mutating anything) and the
/// assembly merge is keyed, not arrival-ordered.
struct RetryPolicy {
  int retries = 6;          ///< max re-runs per batch (0 = fail fast)
  double backoff_ms = 0.5;  ///< initial backoff; doubles per attempt
};

class Batcher {
 public:
  Batcher(gpu::GlobalMemoryArena& arena, const gpu::DeviceSpec& spec,
          int num_streams, int block_size, RetryPolicy retry = {});

  /// Execute the full self-join over all of `grid`'s points according to
  /// `plan`, materialising what `req` asks for (ResultRequest). Result
  /// order is deterministic (segments emitted in batch-key order)
  /// regardless of the stream count or scheduling.
  PipelineOutput run(const ResultRequest& req, const GridDeviceView& grid,
                     bool unicomp, const BatchPlan& plan, AtomicWork* work,
                     BatchRunStats* stats);

  /// Cell-centric variant over a cell-major grid: batches are the plan's
  /// cell ranges, executed by the cell-centric kernel over the
  /// precomputed `adjacency` (nullable — launches then enumerate inline).
  /// Same exactness and determinism guarantees as run().
  PipelineOutput run_cells(const ResultRequest& req,
                           const GridDeviceView& grid, bool unicomp,
                           const CellBatchPlan& plan,
                           const CellAdjacency* adjacency, AtomicWork* work,
                           BatchRunStats* stats);

  /// Query/data-join variant over a cell-major data grid: batches are the
  /// plan's query-group ranges (see build_join_adjacency). Same exactness
  /// and determinism guarantees as run().
  PipelineOutput run_join_groups(const ResultRequest& req,
                                 const GridDeviceView& grid,
                                 const CellBatchPlan& plan,
                                 const JoinAdjacency& adjacency,
                                 AtomicWork* work, BatchRunStats* stats);

 private:
  /// The pipeline shape every run starts: num_streams workers, one
  /// assembler.
  PipelineConfig config() const;

  gpu::GlobalMemoryArena& arena_;
  gpu::DeviceSpec spec_;
  int num_streams_;
  int block_size_;
  RetryPolicy retry_;
};

}  // namespace sj
