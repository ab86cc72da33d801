// Asynchronous batch pipeline — the Section V-A batching scheme
// restructured into three overlapped stages.
//
// The original Batcher ran kernel batches round by round with a barrier
// before every overflow retry, and appended results to the final set from
// whichever stream finished first. This file is the reusable replacement:
//
//   [bounded task queue] -> kernel workers (stream pool: per-batch kernel,
//   device key/value sort, async device->host transfer, double-buffered)
//   -> [bounded assembly queue] -> one host assembly thread (emits
//   segments in batch-key order as soon as each one's turn has come)
//
// A batch whose result buffer overflows is split in two and fed back into
// the SAME task queue — no barrier: the other streams keep executing
// while the halves are retried. The final output is deterministic no
// matter how the streams interleave: batches own
// disjoint query-id sets, every segment is device-sorted before transfer,
// and segments are appended (or streamed to a sink) in ascending order of
// each batch's first query id.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "core/batcher.hpp"
#include "core/device_view.hpp"
#include "core/work_counters.hpp"
#include "gpusim/arena.hpp"
#include "gpusim/device.hpp"

namespace sj {

struct CellAdjacency;  // kernels.hpp
struct JoinAdjacency;  // kernels.hpp

/// Bounded MPMC queue connecting pipeline stages. push() blocks while the
/// queue is full — backpressure on the seeding producer. push_overflow()
/// never blocks: the overflow-split feedback path pushes from the same
/// worker threads that pop, and blocking there could deadlock with every
/// worker waiting for queue space that only workers can free.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(std::max<std::size_t>(capacity, 1)) {}

  void push(T item) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      space_cv_.wait(lock,
                     [this] { return items_.size() < capacity_ || closed_; });
      if (closed_) return;  // shutting down; the item is dropped
      items_.push_back(std::move(item));
    }
    item_cv_.notify_one();
  }

  void push_overflow(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return;
      items_.push_back(std::move(item));
    }
    item_cv_.notify_one();
  }

  /// Blocks until an item is available or the queue is closed; returns
  /// false only when closed AND drained.
  bool pop(T& out) {
    std::unique_lock<std::mutex> lock(mu_);
    item_cv_.wait(lock, [this] { return !items_.empty() || closed_; });
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    space_cv_.notify_one();
    return true;
  }

  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    item_cv_.notify_all();
    space_cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable item_cv_;
  std::condition_variable space_cv_;
  std::deque<T> items_;
  std::size_t capacity_;
  bool closed_ = false;
};

/// Device allocations one pipeline stream worker holds: two double-
/// buffered result slots plus one O(n) sort scratch (the sort runs
/// synchronously on the worker, so its slots share it).
/// size_buffer_pairs() (batcher.hpp) divides free device memory by this.
inline constexpr std::uint64_t kDeviceBuffersPerStream = 3;

/// Recycled host-side staging buffers for completed batch segments.
/// Allocating a fresh std::vector<Pair> per segment value-initialises it —
/// a full O(result) zero-fill immediately overwritten by the device->host
/// transfer — and churns the allocator on every batch. The pool hands out
/// UNINITIALISED storage (cudaMallocHost semantics) and takes each segment
/// back as soon as assembly has emitted it (appended to the output or
/// handed to the sink), so later batches of the same run, repeated runs on
/// the same pipeline and overflow-heavy runs reuse the same allocations;
/// staging holds only the batches that wait for an earlier key.
class SegmentPool {
 public:
  struct Buffer {
    std::unique_ptr<Pair[]> data;
    std::uint64_t capacity = 0;
    std::uint64_t count = 0;  ///< pairs actually staged (<= capacity)
  };

  /// A buffer with capacity >= `count` and undefined contents; `count` of
  /// 0 returns an empty buffer without touching the pool.
  Buffer acquire(std::uint64_t count);

  /// Return a buffer for reuse (empty buffers are dropped).
  void release(Buffer b);

 private:
  std::mutex mu_;
  std::vector<Buffer> free_;
};

struct PipelineConfig {
  int streams = 3;  ///< kernel-stage workers, one gpu::Stream each
  int block_size = 256;
  std::size_t task_queue_capacity = 0;  ///< 0 -> 2 * streams
  RetryPolicy retry;  ///< transient-fault response (batcher.hpp)
  int device_id = -1;  ///< simulated device id (gpu_shard); -1 = unsharded
};

/// Rebuild `e` with `context + ": "` prefixed to its message, preserving
/// the sj::fault taxonomy type (and DeviceOutOfMemory's byte counts /
/// DeviceLost's device id) so callers can still dispatch on it. Unknown
/// exception types degrade to std::runtime_error. Shared by the pipeline
/// (batch context) and the shard engine (shard context — annotations
/// compose, shard prefix outermost).
std::exception_ptr annotate_exception(std::exception_ptr e,
                                      const std::string& context);

/// The three-stage pipeline. Construct one per join run; run() spins up
/// the stream workers and the assembly thread, executes the plan, and
/// joins them. Every entry point materialises what its ResultRequest
/// asks for.
class BatchPipeline {
 public:
  BatchPipeline(gpu::GlobalMemoryArena& arena, const gpu::DeviceSpec& spec,
                const PipelineConfig& config);

  /// Execute the full self-join over `grid` according to `plan`. Exact:
  /// overflowed batches are split and retried through the same queue;
  /// throws gpu::DeviceOutOfMemory when a single point's neighbourhood
  /// exceeds the buffer (unsplittable).
  PipelineOutput run(const ResultRequest& req, const GridDeviceView& grid,
                     bool unicomp, const BatchPlan& plan, AtomicWork* work,
                     BatchRunStats* stats);

  /// Cell-centric variant: `grid` must be cell-major and batches are the
  /// plan's contiguous cell ranges, executed by the cell-centric kernel
  /// through the same three-stage machinery. `adjacency` (from
  /// build_cell_adjacency) supplies the precomputed candidate ranges;
  /// when null each launch enumerates them inline. Overflowed batches
  /// split by cells first, then by point subranges of a single oversized
  /// cell, so the unsplittable-overflow condition is the same as run()'s:
  /// one point's neighbourhood exceeding the buffer.
  PipelineOutput run_cells(const ResultRequest& req,
                           const GridDeviceView& grid, bool unicomp,
                           const CellBatchPlan& plan,
                           const CellAdjacency* adjacency, AtomicWork* work,
                           BatchRunStats* stats);

  /// Query/data-join variant over a cell-major data grid with an external
  /// query set (grid.qpoints): batches are the plan's contiguous QUERY
  /// GROUP ranges (queries sharing a data-grid home cell, see
  /// build_join_adjacency), executed by the cell-centric join kernel.
  /// Overflowed batches split by groups, then by query subranges of a
  /// single oversized group — the fatal condition is one QUERY's
  /// neighbourhood exceeding the buffer, as in run().
  PipelineOutput run_join_groups(const ResultRequest& req,
                                 const GridDeviceView& grid,
                                 const CellBatchPlan& plan,
                                 const JoinAdjacency& adjacency,
                                 AtomicWork* work, BatchRunStats* stats);

 private:
  template <typename Mode>
  PipelineOutput run_impl(const Mode& mode, std::size_t num_roots,
                          std::uint64_t buffer_pairs,
                          const ResultRequest& req, AtomicWork* work,
                          BatchRunStats* stats);

  gpu::GlobalMemoryArena& arena_;
  gpu::DeviceSpec spec_;
  PipelineConfig config_;
  SegmentPool pool_;
  /// 1-based batch start ordinal, cumulative over every run on this
  /// pipeline — the trigger for targeted `device:shard<S>@batch<B>` loss
  /// injection. A pipeline re-armed across many chunklets (gpu_shard's
  /// stealing scheduler) counts the DEVICE's batches, not one chunklet's,
  /// matching the spec grammar's per-device wording.
  std::atomic<std::uint64_t> batch_ordinal_{0};
};

}  // namespace sj
