#include "core/batch_pipeline.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "common/cancel.hpp"
#include "common/contracts.hpp"
#include "common/fault.hpp"
#include "common/timer.hpp"
#include "core/kernels.hpp"
#include "gpusim/atomic.hpp"
#include "gpusim/kernel.hpp"
#include "gpusim/sort.hpp"
#include "gpusim/stream.hpp"

namespace sj {

namespace {

// One unit of kernel-stage work. Root batches are generated lazily inside
// the worker (the work list is recomputed from `root`); overflow splits
// carry their explicit halves.
struct Task {
  std::size_t root = 0;
  bool is_root = true;
  int attempts = 0;                  // transient-fault re-runs so far
  std::vector<std::uint32_t> ids;    // point mode
  std::vector<CellWorkItem> cells;   // cell mode
};

// A batch result handed from the stream pool to the assembly stage.
// `first_key` is the batch's smallest query slot — batches partition the
// query slots, so it is a unique, deterministic merge key. The pairs live
// in a pooled staging buffer recycled across batches.
struct Completed {
  std::uint32_t first_key = 0;
  SegmentPool::Buffer pairs;
};

/// Overflow split shared by the cell-shaped modes (CellMode,
/// JoinGroupMode): halve the item list; for a single oversized item,
/// halve its [begin, end) subrange instead — so the fatal condition stays
/// "one POINT's (or query's) neighbourhood exceeds the buffer", exactly
/// as in the point-centric scheme. False when unsplittable.
bool split_cell_items(const Task& t, Task& lo, Task& hi) {
  lo.is_root = hi.is_root = false;
  if (t.cells.size() > 1) {
    const std::size_t half = t.cells.size() / 2;
    lo.cells.assign(t.cells.begin(),
                    t.cells.begin() + static_cast<std::ptrdiff_t>(half));
    hi.cells.assign(t.cells.begin() + static_cast<std::ptrdiff_t>(half),
                    t.cells.end());
    return true;
  }
  const CellWorkItem item = t.cells.front();
  if (item.end - item.begin <= 1) return false;
  const std::uint32_t mid = item.begin + (item.end - item.begin) / 2;
  lo.cells.push_back(CellWorkItem{item.cell, item.begin, mid});
  hi.cells.push_back(CellWorkItem{item.cell, mid, item.end});
  return true;
}

/// Point-centric execution policy: a work unit is one query id, root
/// batch b is the strided set {i : i % nb == b} (spreads dense regions
/// evenly across batches), splits halve the id list.
class PointMode {
 public:
  PointMode(const GridDeviceView& grid, bool unicomp, std::size_t nb,
            int block_size)
      : grid_(grid), unicomp_(unicomp), nb_(nb), block_size_(block_size) {}

  void expand_root(Task& t) const {
    const std::uint64_t nq = grid_.num_queries();
    t.ids.reserve(static_cast<std::size_t>(nq / nb_) + 1);
    for (std::uint64_t i = t.root; i < nq; i += nb_) {
      t.ids.push_back(static_cast<std::uint32_t>(i));
    }
  }

  std::uint32_t first_key(const Task& t) const { return t.ids.front(); }

  /// first_key of root batch `root` without expanding it (the sink-mode
  /// watermark registers every root before any kernel runs).
  std::uint32_t root_first_key(std::size_t root) const {
    return static_cast<std::uint32_t>(root);  // ids start at the root index
  }

  /// Split in two; false when the task is a single point (unsplittable).
  bool split(const Task& t, Task& lo, Task& hi) const {
    if (t.ids.size() <= 1) return false;
    const std::size_t half = t.ids.size() / 2;
    lo.is_root = hi.is_root = false;
    lo.ids.assign(t.ids.begin(),
                  t.ids.begin() + static_cast<std::ptrdiff_t>(half));
    hi.ids.assign(t.ids.begin() + static_cast<std::ptrdiff_t>(half),
                  t.ids.end());
    return true;
  }

  gpu::KernelStats launch(gpu::GlobalMemoryArena& arena, const Task& t,
                          const ResultBufferView& result,
                          AtomicWork* work) const {
    // Ship this batch's query ids to the device.
    gpu::DeviceBuffer<std::uint32_t> qids(arena, t.ids.size());
    std::memcpy(qids.data(), t.ids.data(),
                t.ids.size() * sizeof(std::uint32_t));
    SelfJoinKernelParams p;
    p.grid = grid_;
    p.query_ids = qids.data();
    p.num_queries = t.ids.size();
    p.result = result;
    p.unicomp = unicomp_;
    p.work = work;
    return gpu::launch(
        gpu::LaunchConfig::cover(t.ids.size(), block_size_),
        [&p](const gpu::ThreadCtx& ctx) { self_join_thread(ctx, p); });
  }

 private:
  const GridDeviceView& grid_;
  bool unicomp_;
  std::size_t nb_;
  int block_size_;
};

/// Cell-centric execution policy: a work unit is a (cell, slot-subrange)
/// item, root batch b is the plan's contiguous cell range, splits halve
/// the item list and fall back to halving a single cell's slot range.
class CellMode {
 public:
  CellMode(const GridDeviceView& grid, bool unicomp,
           const CellBatchPlan& plan, const CellAdjacency* adjacency,
           int block_size)
      : grid_(grid), unicomp_(unicomp), plan_(plan), adjacency_(adjacency),
        block_size_(block_size) {}

  void expand_root(Task& t) const {
    const std::uint32_t begin = plan_.boundaries[t.root];
    const std::uint32_t end = plan_.boundaries[t.root + 1];
    t.cells.reserve(end - begin);
    for (std::uint32_t cell = begin; cell < end; ++cell) {
      const GridIndex::CellRange r = grid_.G[cell];
      t.cells.push_back(CellWorkItem{cell, r.min, r.max + 1});
    }
  }

  std::uint32_t first_key(const Task& t) const {
    return t.cells.front().begin;  // first point slot of the batch
  }

  std::uint32_t root_first_key(std::size_t root) const {
    return grid_.G[plan_.boundaries[root]].min;
  }

  bool split(const Task& t, Task& lo, Task& hi) const {
    return split_cell_items(t, lo, hi);
  }

  gpu::KernelStats launch(gpu::GlobalMemoryArena& arena, const Task& t,
                          const ResultBufferView& result,
                          AtomicWork* work) const {
    gpu::DeviceBuffer<CellWorkItem> items(arena, t.cells.size());
    std::memcpy(items.data(), t.cells.data(),
                t.cells.size() * sizeof(CellWorkItem));
    CellJoinKernelParams p;
    p.grid = grid_;
    p.items = items.data();
    p.num_items = t.cells.size();
    if (adjacency_ != nullptr) {
      p.ranges = adjacency_->ranges.data();
      p.range_offsets = adjacency_->offsets.data();
    }
    p.result = result;
    p.unicomp = unicomp_;
    p.work = work;
    // A cell-mode "thread" covers a whole cell, so batches hold far fewer
    // work units than point batches hold points; smaller blocks keep
    // enough blocks in flight for the block-level scheduler.
    return gpu::launch(
        gpu::LaunchConfig::cover(t.cells.size(),
                                 std::min(block_size_, 32)),
        [&p](const gpu::ThreadCtx& ctx) { self_join_cells_thread(ctx, p); });
  }

 private:
  const GridDeviceView& grid_;
  bool unicomp_;
  const CellBatchPlan& plan_;
  const CellAdjacency* adjacency_;
  int block_size_;
};

/// Query/data-join execution policy: a work unit is a (group, query-
/// position subrange) item over the adjacency's sorted query order; root
/// batch b is the plan's contiguous group range, splits mirror CellMode
/// (halve the item list, then a single oversized group's query range).
class JoinGroupMode {
 public:
  JoinGroupMode(const GridDeviceView& grid, const CellBatchPlan& plan,
                const JoinAdjacency& adjacency, int block_size)
      : grid_(grid), plan_(plan), adjacency_(adjacency),
        block_size_(block_size) {}

  void expand_root(Task& t) const {
    const std::uint32_t begin = plan_.boundaries[t.root];
    const std::uint32_t end = plan_.boundaries[t.root + 1];
    t.cells.reserve(end - begin);
    for (std::uint32_t group = begin; group < end; ++group) {
      t.cells.push_back(CellWorkItem{group,
                                     adjacency_.group_offsets[group],
                                     adjacency_.group_offsets[group + 1]});
    }
  }

  std::uint32_t first_key(const Task& t) const {
    return t.cells.front().begin;  // first query position of the batch
  }

  std::uint32_t root_first_key(std::size_t root) const {
    return adjacency_.group_offsets[plan_.boundaries[root]];
  }

  bool split(const Task& t, Task& lo, Task& hi) const {
    return split_cell_items(t, lo, hi);
  }

  gpu::KernelStats launch(gpu::GlobalMemoryArena& arena, const Task& t,
                          const ResultBufferView& result,
                          AtomicWork* work) const {
    gpu::DeviceBuffer<CellWorkItem> items(arena, t.cells.size());
    std::memcpy(items.data(), t.cells.data(),
                t.cells.size() * sizeof(CellWorkItem));
    JoinCellsKernelParams p;
    p.grid = grid_;
    p.query_order = adjacency_.query_order.data();
    p.items = items.data();
    p.num_items = t.cells.size();
    p.ranges = adjacency_.ranges.data();
    p.range_offsets = adjacency_.offsets.data();
    p.result = result;
    p.work = work;
    return gpu::launch(
        gpu::LaunchConfig::cover(t.cells.size(),
                                 std::min(block_size_, 32)),
        [&p](const gpu::ThreadCtx& ctx) { join_cells_thread(ctx, p); });
  }

 private:
  const GridDeviceView& grid_;
  const CellBatchPlan& plan_;
  const JoinAdjacency& adjacency_;
  int block_size_;
};

}  // namespace

std::exception_ptr annotate_exception(std::exception_ptr e,
                                      const std::string& context) {
  try {
    std::rethrow_exception(e);
  } catch (const gpu::DeviceOutOfMemory& oom) {
    return std::make_exception_ptr(gpu::DeviceOutOfMemory(
        oom.requested, oom.free_bytes, context + ": " + oom.what()));
  } catch (const fault::ResourceExhausted& ex) {
    return std::make_exception_ptr(
        fault::ResourceExhausted(context + ": " + ex.what()));
  } catch (const fault::TransientDeviceError& ex) {
    return std::make_exception_ptr(
        fault::TransientDeviceError(context + ": " + ex.what()));
  } catch (const fault::DeviceLost& ex) {
    return std::make_exception_ptr(
        fault::DeviceLost(ex.device, context + ": " + ex.what()));
  } catch (const exec::DeadlineExceeded& ex) {
    return std::make_exception_ptr(
        exec::DeadlineExceeded(context + ": " + ex.what()));
  } catch (const exec::Cancelled& ex) {
    return std::make_exception_ptr(
        exec::Cancelled(context + ": " + ex.what()));
  } catch (const exec::Overloaded& ex) {
    return std::make_exception_ptr(
        exec::Overloaded(context + ": " + ex.what()));
  } catch (const fault::FaultError& ex) {
    return std::make_exception_ptr(
        fault::FaultError(context + ": " + ex.what()));
  } catch (const std::invalid_argument& ex) {
    return std::make_exception_ptr(
        std::invalid_argument(context + ": " + ex.what()));
  } catch (const std::exception& ex) {
    return std::make_exception_ptr(
        std::runtime_error(context + ": " + ex.what()));
  } catch (...) {
    return std::make_exception_ptr(
        std::runtime_error(context + ": unknown error"));
  }
}

SegmentPool::Buffer SegmentPool::acquire(std::uint64_t count) {
  if (count == 0) return {};
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Best fit: the smallest pooled buffer that holds `count`.
    std::size_t best = free_.size();
    for (std::size_t i = 0; i < free_.size(); ++i) {
      if (free_[i].capacity >= count &&
          (best == free_.size() || free_[i].capacity < free_[best].capacity)) {
        best = i;
      }
    }
    if (best != free_.size()) {
      Buffer b = std::move(free_[best]);
      free_[best] = std::move(free_.back());
      free_.pop_back();
      b.count = count;
      return b;
    }
  }
  Buffer b;
  // Intentionally not value-initialised: the device->host transfer
  // overwrites exactly `count` pairs.
  b.data = std::make_unique_for_overwrite<Pair[]>(
      static_cast<std::size_t>(count));
  b.capacity = count;
  b.count = count;
  return b;
}

void SegmentPool::release(Buffer b) {
  // A moved-from buffer keeps its stale capacity but owns no storage;
  // pooling it would hand a null allocation to a later acquire(). The
  // error-drain paths release defensively, so tolerate both shapes.
  if (b.data == nullptr || b.capacity == 0) return;
  b.count = 0;
  std::lock_guard<std::mutex> lock(mu_);
  if (contracts::active()) {
    // A buffer arriving twice means two owners were lent the same
    // allocation — the staging reuse would then corrupt a batch.
    for (const Buffer& f : free_) {
      SJ_CHECK(f.data.get() != b.data.get(),
               "SegmentPool: buffer released twice");
    }
  }
  free_.push_back(std::move(b));
}

BatchPipeline::BatchPipeline(gpu::GlobalMemoryArena& arena,
                             const gpu::DeviceSpec& spec,
                             const PipelineConfig& config)
    : arena_(arena), spec_(spec), config_(config) {
  if (config_.streams <= 0) {
    throw std::invalid_argument("BatchPipeline: streams must be positive");
  }
  if (config_.block_size <= 0) {
    throw std::invalid_argument("BatchPipeline: block_size must be positive");
  }
  if (config_.retry.retries < 0) {
    throw std::invalid_argument(
        "BatchPipeline: retry.retries must be non-negative");
  }
  if (config_.retry.backoff_ms < 0.0) {
    throw std::invalid_argument(
        "BatchPipeline: retry.backoff_ms must be non-negative");
  }
}

namespace {

/// The empty-input result: histogram mode still owes a zero-filled
/// per-key vector.
PipelineOutput empty_output(const ResultRequest& req, BatchRunStats* stats) {
  PipelineOutput out;
  if (req.mode == ResultMode::kHistogram) {
    out.histogram.assign(static_cast<std::size_t>(req.histogram_keys), 0);
  }
  if (stats != nullptr) *stats = {};
  return out;
}

}  // namespace

PipelineOutput BatchPipeline::run(const ResultRequest& req,
                                  const GridDeviceView& grid, bool unicomp,
                                  const BatchPlan& plan, AtomicWork* work,
                                  BatchRunStats* stats) {
  const std::uint64_t nq = grid.num_queries();
  if (nq == 0 || grid.n == 0) return empty_output(req, stats);
  // Clamp like plan_batches does: a batch needs at least one point, and a
  // root past nq would produce an empty id list.
  const std::size_t nb = std::min<std::size_t>(
      std::max<std::size_t>(plan.num_batches, 1),
      static_cast<std::size_t>(nq));
  const std::uint64_t buffer_pairs =
      std::max<std::uint64_t>(plan.buffer_pairs, 1);
  const PointMode mode(grid, unicomp, nb, config_.block_size);
  return run_impl(mode, nb, buffer_pairs, req, work, stats);
}

PipelineOutput BatchPipeline::run_cells(const ResultRequest& req,
                                        const GridDeviceView& grid,
                                        bool unicomp,
                                        const CellBatchPlan& plan,
                                        const CellAdjacency* adjacency,
                                        AtomicWork* work,
                                        BatchRunStats* stats) {
  if (grid.n == 0 || plan.num_batches() == 0) {
    return empty_output(req, stats);
  }
  if (!grid.cell_major) {
    throw std::invalid_argument(
        "BatchPipeline::run_cells: grid must use the cell-major layout");
  }
  const std::uint64_t buffer_pairs =
      std::max<std::uint64_t>(plan.buffer_pairs, 1);
  const CellMode mode(grid, unicomp, plan, adjacency, config_.block_size);
  return run_impl(mode, plan.num_batches(), buffer_pairs, req, work, stats);
}

PipelineOutput BatchPipeline::run_join_groups(const ResultRequest& req,
                                              const GridDeviceView& grid,
                                              const CellBatchPlan& plan,
                                              const JoinAdjacency& adjacency,
                                              AtomicWork* work,
                                              BatchRunStats* stats) {
  if (grid.n == 0 || grid.qn == 0 || plan.num_batches() == 0) {
    return empty_output(req, stats);
  }
  if (!grid.cell_major || grid.qpoints == nullptr) {
    throw std::invalid_argument(
        "BatchPipeline::run_join_groups: grid must be a cell-major data "
        "layout with an external query set");
  }
  const std::uint64_t buffer_pairs =
      std::max<std::uint64_t>(plan.buffer_pairs, 1);
  const JoinGroupMode mode(grid, plan, adjacency, config_.block_size);
  return run_impl(mode, plan.num_batches(), buffer_pairs, req, work, stats);
}

template <typename Mode>
PipelineOutput BatchPipeline::run_impl(const Mode& mode,
                                       std::size_t num_roots,
                                       std::uint64_t buffer_pairs,
                                       const ResultRequest& req,
                                       AtomicWork* work,
                                       BatchRunStats* stats) {
  PipelineOutput output;

  // Deadline/cancel checkpoint before any device allocation: a query
  // that spent its whole budget queued (admission, session backlog)
  // aborts here without touching the arena.
  const exec::ExecControl* ctl = req.control;
  if (ctl != nullptr) ctl->check("pipeline entry");

  // Count-only and histogram runs touch no pair buffers at all: no slot
  // allocations, no device sort, no transfers, no assembly stage — the
  // kernels write through an atomic counter / the O(n) count plane.
  const bool materialise =
      req.mode == ResultMode::kPairs || req.mode == ResultMode::kSink;
  const bool sinking = req.mode == ResultMode::kSink;

  // Device allocations, owned by the caller thread so a
  // DeviceOutOfMemory propagates here instead of killing a worker: per
  // worker, two double-buffered result slots and one sort scratch (the
  // sort runs synchronously on the worker, so both slots share it) —
  // kDeviceBuffersPerStream buffers in all.
  struct Slot {
    gpu::DeviceBuffer<Pair> buffer;
    gpu::Event transferred;  // signals this slot's buffer is free
  };
  struct WorkerBuffers {
    std::array<Slot, 2> slots;
    gpu::DeviceBuffer<Pair> scratch;  // thrust-style O(n) sort storage
  };
  std::vector<WorkerBuffers> buffers(
      materialise ? static_cast<std::size_t>(config_.streams) : 0);
  for (WorkerBuffers& wb : buffers) {
    for (Slot& s : wb.slots) {
      s.buffer = gpu::DeviceBuffer<Pair>(arena_, buffer_pairs);
    }
    wb.scratch = gpu::DeviceBuffer<Pair>(arena_, buffer_pairs);
  }

  // Histogram mode: one zero-filled per-key count plane shared by every
  // batch (the kernels bump it with relaxed atomics).
  gpu::DeviceBuffer<std::uint32_t> counts;
  if (req.mode == ResultMode::kHistogram) {
    counts = gpu::DeviceBuffer<std::uint32_t>(arena_, req.histogram_keys);
    std::fill_n(counts.data(), counts.size(), 0u);
  }
  std::atomic<std::uint64_t> counted{0};  // count-only total

  const std::size_t task_cap =
      config_.task_queue_capacity != 0
          ? config_.task_queue_capacity
          : 2 * static_cast<std::size_t>(config_.streams);
  BoundedQueue<Task> tasks(task_cap);
  BoundedQueue<Completed> done(2);

  // Tasks seeded or split but not yet terminally handled; the thread that
  // brings it to zero closes the task queue and ends the kernel stage.
  // A retried task stays outstanding (same task, re-queued); a split task
  // nets +1 (one became two). Every failure path calls complete_one, so
  // the queue always closes and the stages always drain — an error never
  // leaves run() deadlocked on a segment that will not arrive.
  std::atomic<std::size_t> outstanding{num_roots};
  std::atomic<bool> failed{false};

  std::mutex mu;  // protects acc, segments, the watermark and first_error
  BatchRunStats acc;
  std::map<std::uint32_t, SegmentPool::Buffer> segments;
  std::exception_ptr first_error;

  // Watermark over the batch keys not yet emitted (registered for every
  // root up front, extended on splits BEFORE the halves run). A completed
  // segment is emitted once it owns the smallest outstanding key — sink
  // mode hands it to the callback, pairs mode appends it to the output —
  // so both modes emit batches in ascending first-key order, and a staged
  // segment goes back to the pool as soon as its turn has come.
  std::multiset<std::uint32_t> pending;
  if (materialise) {
    for (std::size_t b = 0; b < num_roots; ++b) {
      pending.insert(mode.root_first_key(b));
    }
  }
  // The plan sized its batches from the padded result-size estimate, so
  // its total buffer capacity is that estimate: reserved once, in-order
  // appends do not regrow the output (an undershoot only means they do).
  std::vector<Pair>& out = output.pairs.pairs();
  if (req.mode == ResultMode::kPairs) {
    out.reserve(static_cast<std::size_t>(num_roots * buffer_pairs));
  }
  std::uint64_t flushed = 0;
  std::int64_t last_flushed_key = -1;

  // Emit every segment whose turn has come (callers hold `lock` on mu).
  // Only the assembly thread emits — and run() itself once it has joined
  // — in key order, so sink consumers see ordered, non-overlapping calls;
  // the copy or callback itself runs with mu released, so kernel workers
  // never wait on it for the stats lock. A control tripped by an earlier
  // flush (or from inside the sink itself) stops the stream before the
  // next one.
  auto flush_ready = [&](std::unique_lock<std::mutex>& lock) {
    while (!segments.empty() && !pending.empty() &&
           segments.begin()->first == *pending.begin()) {
      SegmentPool::Buffer buf;
      try {
        if (ctl != nullptr) ctl->check("flush");
        const std::uint32_t key = segments.begin()->first;
        if (contracts::active()) {
          // The watermark must release batches in strictly increasing
          // first-key order — the order that defines the output bytes.
          SJ_CHECK(static_cast<std::int64_t>(key) > last_flushed_key,
                   "BatchPipeline: flush keys must be strictly increasing");
        }
        last_flushed_key = static_cast<std::int64_t>(key);
        buf = std::move(segments.begin()->second);
        segments.erase(segments.begin());
        pending.erase(pending.begin());
        lock.unlock();
        Timer emit_timer;
        if (buf.count > 0) {
          if (sinking) {
            req.sink(buf.data.get(), buf.count);
          } else {
            out.insert(out.end(), buf.data.get(), buf.data.get() + buf.count);
          }
        }
        const double emit_s = emit_timer.seconds();
        lock.lock();
        flushed += buf.count;
        acc.assembly_seconds += emit_s;
        pool_.release(std::move(buf));
      } catch (...) {
        if (!lock.owns_lock()) lock.lock();
        pool_.release(std::move(buf));  // no-op unless taken from the map
        throw;
      }
    }
  };

  auto complete_one = [&outstanding, &tasks] {
    if (outstanding.fetch_sub(1) == 1) tasks.close();
  };

  // "batch key=K (N queries [a..b]) on device D" — the context every
  // error surfacing from run() carries.
  auto describe_task = [this, &mode](const Task& t) {
    std::string d = "batch";
    if (!t.ids.empty()) {
      d += " key=" + std::to_string(mode.first_key(t)) + " (" +
           std::to_string(t.ids.size()) + " queries [" +
           std::to_string(t.ids.front()) + ".." +
           std::to_string(t.ids.back()) + "])";
    } else if (!t.cells.empty()) {
      d += " key=" + std::to_string(mode.first_key(t)) + " (" +
           std::to_string(t.cells.size()) + " items [" +
           std::to_string(t.cells.front().begin) + ".." +
           std::to_string(t.cells.back().end) + "))";
    } else {
      d += " root=" + std::to_string(t.root);
    }
    if (config_.device_id >= 0) {
      d += " on device " + std::to_string(config_.device_id);
    }
    return d;
  };

  // Unrecoverable: record the (annotated) error and retire the task so
  // the drain makes progress.
  auto record_failure = [&](const Task& task, std::exception_ptr e,
                            const std::string& note) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (first_error == nullptr) {
        first_error = annotate_exception(e, describe_task(task) + note);
      }
    }
    failed.store(true);
    complete_one();
  };

  // Feed a split's halves back into the queue. Exception-safe: if a push
  // throws (allocation under the queue lock), the un-pushed halves are
  // retired so `outstanding` still reaches zero and the stages drain.
  auto push_split = [&](Task lo, Task hi) {
    outstanding.fetch_add(1);  // net effect of the split: 1 -> 2
    int pushed = 0;
    try {
      tasks.push_overflow(std::move(lo));
      ++pushed;
      tasks.push_overflow(std::move(hi));
      ++pushed;
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mu);
        if (first_error == nullptr) first_error = std::current_exception();
      }
      failed.store(true);
      for (; pushed < 2; ++pushed) complete_one();
    }
  };

  // Transient-fault retry: same task, same `outstanding` charge, bounded
  // exponential backoff (doubling per attempt, capped at 32x).
  auto retry_task = [&](Task& task) {
    ++task.attempts;
    {
      std::lock_guard<std::mutex> lock(mu);
      ++acc.retries;
    }
    const int exponent = std::min(task.attempts - 1, 5);
    const double ms =
        config_.retry.backoff_ms * static_cast<double>(1 << exponent);
    if (ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(ms));
    }
    try {
      tasks.push_overflow(std::move(task));
    } catch (...) {
      record_failure(task, std::current_exception(), " (requeue failed)");
    }
  };

  // Failure classification, the taxonomy's contract (common/fault.hpp):
  // transient -> bounded retry; resource exhaustion -> degrade by
  // splitting (retry when unsplittable, attempts permitting); device loss
  // and everything else -> fail the run with batch context attached.
  auto handle_worker_error = [&](Task& task, std::exception_ptr e) {
    try {
      std::rethrow_exception(e);
    } catch (const fault::TransientDeviceError&) {
      if (task.attempts < config_.retry.retries) {
        retry_task(task);
      } else {
        record_failure(task, e, " (transient-fault retries exhausted)");
      }
    } catch (const fault::DeviceLost&) {
      record_failure(task, e, "");
    } catch (const fault::ResourceExhausted&) {
      Task lo, hi;
      if (mode.split(task, lo, hi)) {
        {
          std::lock_guard<std::mutex> lock(mu);
          ++acc.batches_split_on_oom;
          pending.insert(mode.first_key(hi));
        }
        push_split(std::move(lo), std::move(hi));
      } else if (task.attempts < config_.retry.retries) {
        // Unsplittable, but the exhaustion may be spurious (injected, or
        // another stream's transient allocation spike): retry in place.
        retry_task(task);
      } else {
        record_failure(task, e, " (unsplittable after resource exhaustion)");
      }
    } catch (...) {
      record_failure(task, e, "");
    }
  };

  // --- Stage 3: host assembly (materialising modes only). Completed
  // segments are keyed into the deterministic batch order while further
  // kernels run, and each arrival advances the watermark: sink mode
  // streams the segments whose turn has come to the callback, pairs mode
  // appends them to the output, and their staging buffers return to the
  // pool for the batches still to come.
  std::thread assembler;
  if (materialise) {
    assembler = std::thread([&] {
      Completed c;
      while (done.pop(c)) {
        // A throw from the merge (map or output allocation) or from the
        // sink callback must not std::terminate the process or stall the
        // stream callbacks feeding `done`: record it, keep draining, and
        // let run() rethrow after the join.
        try {
          std::unique_lock<std::mutex> lock(mu);
          if (failed.load(std::memory_order_relaxed)) {
            pool_.release(std::move(c.pairs));  // drain and discard
            continue;
          }
          if (contracts::active()) {
            // Batches partition the query slots, so two segments can
            // never share a first key; a duplicate would silently drop a
            // batch.
            SJ_CHECK(segments.find(c.first_key) == segments.end(),
                     "BatchPipeline: duplicate batch merge key");
          }
          segments[c.first_key] = std::move(c.pairs);
          flush_ready(lock);
        } catch (...) {
          {
            std::lock_guard<std::mutex> lock(mu);
            if (first_error == nullptr) {
              first_error = annotate_exception(
                  std::current_exception(),
                  "assembly of batch key=" + std::to_string(c.first_key));
            }
          }
          failed.store(true);
          pool_.release(std::move(c.pairs));  // no-op if already merged
        }
      }
    });
  }

  // --- Stage 2: kernel workers, one simulated stream each. The kernel and
  // the device sort run on the worker; the device->host result transfer
  // and the hand-off to assembly are enqueued on the stream, so the next
  // batch's kernel overlaps the previous batch's transfer (double
  // buffered per worker).
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(config_.streams));
  for (int w = 0; w < config_.streams; ++w) {
    workers.emplace_back([&, w] {
      gpu::Stream stream(spec_);
      // No buffers in the non-materialising modes.
      WorkerBuffers* mine =
          materialise ? &buffers[static_cast<std::size_t>(w)] : nullptr;
      int flip = 0;
      Task task;
      while (tasks.pop(task)) {
        if (failed.load(std::memory_order_relaxed)) {
          complete_one();  // drain mode: shut down as fast as possible
          continue;
        }
        try {
          // Arm fault injection for exactly this batch's span: every
          // injected fault lands in this try block, classified and
          // recovered by handle_worker_error. All hooks fire BEFORE the
          // operation's side effects, so a retry re-runs a clean batch.
          fault::DeviceScope fault_scope(config_.device_id);
          SJ_FAULT_BATCH(
              config_.device_id,
              batch_ordinal_.fetch_add(1, std::memory_order_relaxed) + 1);
          // Checkpoint seam 1 (queue pop): the task was dequeued but no
          // work has started — the cheapest point to honour a deadline
          // or cancellation. The typed error flows through
          // handle_worker_error's terminal branch into the drain path.
          if (ctl != nullptr) ctl->check("queue pop");
          if (task.is_root) {
            // Root batches expand here, off the seeding thread's
            // critical path.
            mode.expand_root(task);
            task.is_root = false;  // a retry must not re-expand the ids
          }

          if (!materialise) {
            // Count-only / histogram: launch, fold the count, done — no
            // buffer, no overflow, no sort, no transfer.
            gpu::DeviceCounter cursor;
            ResultBufferView result;
            if (req.mode == ResultMode::kHistogram) {
              result.counts = counts.data();
            } else {
              result.cursor = &cursor;
            }
            // Checkpoint seam 2 (pre-launch): last exit before the
            // kernel runs; root expansion above may have taken a while.
            if (ctl != nullptr) ctl->check("pre-launch");
            const gpu::KernelStats ks =
                mode.launch(arena_, task, result, work);
            counted.fetch_add(cursor.load(), std::memory_order_relaxed);
            {
              std::lock_guard<std::mutex> lock(mu);
              acc.kernel_seconds += ks.seconds;
              ++acc.batches_run;
            }
            complete_one();
            continue;
          }

          Slot& slot = mine->slots[static_cast<std::size_t>(flip)];
          flip ^= 1;
          slot.transferred.wait();  // slot's previous transfer has drained

          gpu::DeviceCounter cursor;
          std::atomic<bool> overflow{false};

          ResultBufferView result;
          result.out = slot.buffer.data();
          result.capacity = buffer_pairs;
          result.cursor = &cursor;
          result.overflow = &overflow;

          // Checkpoint seam 2 (pre-launch), materialising path.
          if (ctl != nullptr) ctl->check("pre-launch");
          const gpu::KernelStats ks =
              mode.launch(arena_, task, result, work);

          if (overflow.load()) {
            // The estimate undershot for this batch: split in two and feed
            // both halves back into the SAME queue — no barrier, the other
            // streams never notice.
            {
              std::lock_guard<std::mutex> lock(mu);
              acc.kernel_seconds += ks.seconds;
              ++acc.batches_run;
              ++acc.overflow_retries;
            }
            Task lo, hi;
            if (!mode.split(task, lo, hi)) {
              // A single point's neighbourhood exceeds the buffer —
              // cannot split further. Fail the run with the batch named.
              record_failure(
                  task,
                  std::make_exception_ptr(gpu::DeviceOutOfMemory(
                      buffer_pairs * sizeof(Pair) * 2,
                      buffer_pairs * sizeof(Pair))),
                  " (single query's neighbourhood overflows the result "
                  "buffer)");
              continue;
            }
            {
              // Register the new half's key before either half can run:
              // lo inherits the parent's first key, hi adds one.
              std::lock_guard<std::mutex> lock(mu);
              pending.insert(mode.first_key(hi));
            }
            push_split(std::move(lo), std::move(hi));
            continue;
          }

          const std::uint64_t nres = cursor.load();
          // Device key/value sort of the batch (the paper sorts each batch
          // before transferring it, Section IV-E) — this is also what
          // makes every segment's content deterministic.
          Timer sort_timer;
          gpu::sort_pairs_by_key(slot.buffer.data(), nres,
                                 mine->scratch.data());
          const double sort_s = sort_timer.seconds();

          // Async transfer + hand-off: enqueued on the stream so this
          // worker immediately starts the next kernel in the other slot.
          // The destination is a pooled staging buffer (uninitialised,
          // recycled) — see SegmentPool. shared_ptr because the stream's
          // std::function queue needs a copyable closure.
          // Checkpoint seam 3 (pre-transfer): the kernel and sort ran,
          // but the result has not been shipped or merged — abandoning
          // here discards only device-side work and the drain path
          // releases the staging buffer.
          if (ctl != nullptr) ctl->check("pre-transfer");
          auto host = std::make_shared<SegmentPool::Buffer>(
              pool_.acquire(nres));
          const std::uint32_t first_key = mode.first_key(task);
          if (nres > 0) {
            stream.memcpy_async(host->data.get(), slot.buffer.data(),
                                static_cast<std::size_t>(nres) * sizeof(Pair));
          }
          stream.enqueue([host, first_key, &done, &complete_one] {
            done.push(Completed{first_key, std::move(*host)});
            complete_one();
          });
          slot.transferred.record(stream);

          std::lock_guard<std::mutex> lock(mu);
          acc.kernel_seconds += ks.seconds;
          acc.sort_seconds += sort_s;
          ++acc.batches_run;
        } catch (...) {
          handle_worker_error(task, std::current_exception());
        }
      }
      stream.synchronize();  // pending transfers still read the slots
      std::lock_guard<std::mutex> lock(mu);
      acc.bytes_to_host += stream.bytes_copied();
      acc.modeled_transfer_seconds += stream.modeled_copy_seconds();
    });
  }

  // --- Stage 1: seed the root batches (bounded push: backpressure once
  // the pool is saturated). `outstanding` was pre-charged with all roots,
  // so the queue cannot close before the last root is seeded.
  for (std::size_t b = 0; b < num_roots; ++b) {
    Task t;
    t.root = b;
    tasks.push(std::move(t));
  }

  for (auto& w : workers) w.join();
  done.close();
  if (assembler.joinable()) assembler.join();

  if (first_error != nullptr) std::rethrow_exception(first_error);

  if (req.mode == ResultMode::kCountOnly) {
    output.total_pairs = counted.load();
    if (stats != nullptr) *stats = acc;
    return output;
  }
  if (req.mode == ResultMode::kHistogram) {
    output.histogram.assign(counts.data(), counts.data() + counts.size());
    output.total_pairs =
        std::accumulate(output.histogram.begin(), output.histogram.end(),
                        std::uint64_t{0});
    if (stats != nullptr) *stats = acc;
    return output;
  }
  // Every batch completed and the assembler has emitted every segment
  // whose turn came; the watermark must be drained.
  if (!sinking && ctl != nullptr) ctl->check("final assembly");
  {
    std::unique_lock<std::mutex> lock(mu);
    flush_ready(lock);
  }
  if (contracts::active()) {
    SJ_CHECK(segments.empty() && pending.empty(),
             "BatchPipeline: the watermark must drain every segment");
  }
  output.total_pairs = flushed;
  if (stats != nullptr) *stats = acc;
  return output;
}

}  // namespace sj
