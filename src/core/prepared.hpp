// The single-device staging path: a dataset's grid index and device
// image, staged ONCE, with the result-size estimate, the adjacency, the
// batch plan and the batched pipeline run per call (paper Sections
// IV-V). GpuSelfJoin::run and gpu_join() build one per call; the
// always-on service (api/session.hpp) keeps one alive and amortises the
// index build + upload across its whole query traffic.
//
// Thread safety: after construction, run()/self_join() may be called
// concurrently from many threads. The shared arena's allocation is
// mutex-protected (gpusim/arena.hpp), the staged grid buffers are
// read-only, and each call runs its own stream pool — the only shared
// mutable state is the lazily-built self-join cache, guarded here.
#pragma once

#include <memory>
#include <mutex>

#include "common/dataset.hpp"
#include "core/device_view.hpp"
#include "core/estimator.hpp"
#include "core/join.hpp"
#include "core/kernels.hpp"
#include "core/self_join.hpp"
#include "gpusim/arena.hpp"

namespace sj {

class PreparedJoin {
 public:
  /// Build the data-side image: host grid index (radix-sort binning) +
  /// device staging in `layout`. `data` is referenced, not copied, and
  /// must outlive the PreparedJoin. kCellMajor (the default) feeds the
  /// cell-centric self-join and the grouped join; kLegacy keeps the
  /// paper's point-centric kernels over the original point order.
  PreparedJoin(const Dataset& data, double eps,
               const gpu::DeviceSpec& device = gpu::DeviceSpec::titan_x_pascal(),
               GridLayout layout = GridLayout::kCellMajor);

  /// Restore path: adopt an already-validated index (snapshot restore,
  /// core/snapshot.hpp) instead of rebuilding it. The index must have
  /// been built over `data`.
  PreparedJoin(const Dataset& data, GridIndex index,
               const gpu::DeviceSpec& device = gpu::DeviceSpec::titan_x_pascal(),
               GridLayout layout = GridLayout::kCellMajor);

  const Dataset& data() const { return *data_; }
  const GridIndex& index() const { return index_; }
  double eps() const { return index_.eps(); }
  /// Seconds spent building the host index (0 on the restore path).
  double index_build_seconds() const { return index_build_seconds_; }
  /// Seconds staging the device image.
  double upload_seconds() const { return upload_seconds_; }

  /// Join `queries` against the prepared data grid: the per-call work is
  /// query upload + estimate + (cell-major) per-group adjacency + the
  /// batched pipeline; the index and data staging are amortised.
  /// opt.layout/device are ignored (fixed at construction).
  GpuJoinResult run(const Dataset& queries, const GpuJoinOptions& opt) const;

  /// Self-join over the prepared grid at the index's eps. The
  /// result-size estimate and (cell-major) the cell adjacency are
  /// resolved once per unicomp flag and cached across calls (the
  /// estimate uses the FIRST caller's sample_rate/block_size; the
  /// session issues uniform options); the call that builds the
  /// adjacency reports its seconds and index-search counters.
  /// opt.layout/device are ignored (fixed at construction).
  SelfJoinResult self_join(const GpuSelfJoinOptions& opt) const;

 private:
  struct SelfCache {
    std::unique_ptr<CellAdjacency> adjacency;
    EstimateResult estimate;
    bool estimated = false;
  };

  const Dataset* data_;
  GridIndex index_;
  gpu::DeviceSpec device_;
  GridLayout layout_;
  mutable gpu::GlobalMemoryArena arena_;
  std::unique_ptr<DeviceGrid> dev_;
  double index_build_seconds_ = 0.0;
  double upload_seconds_ = 0.0;

  mutable std::mutex cache_mu_;
  mutable SelfCache self_cache_[2];  // indexed by unicomp flag
};

}  // namespace sj
