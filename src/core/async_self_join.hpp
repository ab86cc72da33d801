// The gpu_async engine: GPU-SJ with its three stages overlapped.
//
// Where GpuSelfJoin runs estimate -> batched kernels -> host assembly
// mostly back to back, AsyncGpuSelfJoin kicks the sampling estimator off
// on its own stream immediately after the upload (batch sizing still
// waits on its event, but in metrics mode the expensive serial Table II
// pass runs concurrently with it), then executes the batches through the
// BatchPipeline: a work queue feeding a pool of kernel streams whose
// completed, device-sorted batches are appended to the output in batch-
// key order by dedicated host-assembly threads while further kernels run.
// Overflow splits feed back into the same queue, so a skewed batch never
// stalls the other streams behind a retry barrier.
//
// Exactness and output order are identical to GpuSelfJoin by
// construction — both engines share the BatchPipeline and its
// deterministic batch-keyed merge.
#pragma once

#include "core/self_join.hpp"

namespace sj {

struct AsyncSelfJoinOptions : GpuSelfJoinOptions {
  /// Host-side assembly workers merging completed batch segments.
  int assembly_threads = 2;
};

class AsyncGpuSelfJoin {
 public:
  explicit AsyncGpuSelfJoin(AsyncSelfJoinOptions opt = {});

  /// Compute the full self-join of `d` with distance threshold eps >= 0.
  SelfJoinResult run(const Dataset& d, double eps) const;

  const AsyncSelfJoinOptions& options() const { return opt_; }

 private:
  AsyncSelfJoinOptions opt_;
};

}  // namespace sj
