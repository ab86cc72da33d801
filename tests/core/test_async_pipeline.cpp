// The asynchronous batch pipeline (core/batch_pipeline.hpp) as
// GpuSelfJoin runs it: parity on skewed data, raw-output determinism
// across stream counts and runs, overflow-split feedback without
// barriers, fatal-overflow behaviour, and the registry's knobs.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "api/registry.hpp"
#include "bruteforce/brute_force.hpp"
#include "common/datagen.hpp"
#include "common/fault.hpp"
#include "core/batch_pipeline.hpp"
#include "core/device_view.hpp"
#include "core/grid_index.hpp"
#include "core/self_join.hpp"
#include "gpusim/arena.hpp"

namespace sj {
namespace {

GpuSelfJoinOptions pipeline_opts(int streams) {
  GpuSelfJoinOptions opt;
  opt.unicomp = false;  // mirror the "gpu" backend
  opt.num_streams = streams;
  return opt;
}

constexpr int kStreamSweep[] = {1, 2, 3, 4};

TEST(AsyncPipeline, ParityWithBruteOnSkewedClusteredData) {
  struct Case {
    const char* name;
    Dataset data;
  };
  const Case cases[] = {
      {"ippp", datagen::ippp(1500, 2, 32.0, 71)},
      {"gaussian_x8", datagen::gaussian_mixture(1500, 2, 8, 2.0, 0.0, 100.0,
                                                72)},
      {"sw_stations", datagen::sw_like(1200, 2, 73)},
  };
  for (const auto& c : cases) {
    const auto want = brute::self_join(c.data, 1.0);
    auto got = GpuSelfJoin(pipeline_opts(3)).run(c.data, 1.0);
    EXPECT_TRUE(ResultSet::equal_normalized(got.pairs, want.pairs)) << c.name;
  }
}

// The registry's "gpu" adapter runs the same pipeline: its raw output is
// the single-stream GpuSelfJoin's, byte for byte.
TEST(AsyncPipeline, IdenticalSortedPairSetAsGpuBackend) {
  const auto d = datagen::ippp(1200, 2, 16.0, 5);
  const auto& registry = api::BackendRegistry::instance();
  for (double eps : {0.25, 1.0, 4.0}) {
    auto gpu = registry.at("gpu").run(d, eps).pairs;
    auto serial = GpuSelfJoin(pipeline_opts(1)).run(d, eps).pairs;
    if (fault::enabled()) {
      // Injected resource exhaustion splits batches differently per run.
      gpu.normalize();
      serial.normalize();
    }
    EXPECT_EQ(gpu.pairs(), serial.pairs()) << "eps=" << eps;
    const auto want = brute::self_join(d, eps).pairs;
    EXPECT_TRUE(ResultSet::equal_normalized(gpu, want)) << "eps=" << eps;
  }
}

// One stream is the serial schedule — and because assembly emits by
// batch key, every other stream count must produce the same RAW pair
// order too (given an identical plan, pinned here via max_buffer_pairs).
TEST(AsyncPipeline, ConfigSweepDegeneratesToSerialRawOutput) {
  const auto d = datagen::ippp(1200, 2, 24.0, 11);
  const double eps = 1.5;
  for (const GridLayout layout : {GridLayout::kCellMajor, GridLayout::kLegacy}) {
    auto serial_opt = pipeline_opts(1);
    serial_opt.layout = layout;
    serial_opt.max_buffer_pairs = 2048;
    serial_opt.min_batches = 5;
    const auto serial = GpuSelfJoin(serial_opt).run(d, eps);
    for (const int streams : kStreamSweep) {
      auto opt = serial_opt;
      opt.num_streams = streams;
      const auto got = GpuSelfJoin(opt).run(d, eps);
      EXPECT_EQ(got.pairs.pairs(), serial.pairs.pairs())
          << streams << " streams, layout "
          << (layout == GridLayout::kCellMajor ? "cell" : "legacy");
    }
  }
}

TEST(AsyncPipeline, DeterministicAcrossRunsUnderOverflowStress) {
  const auto d = datagen::ippp(1500, 2, 32.0, 23);
  const auto want = brute::self_join(d, 1.0);
  ResultSet reference;
  for (const int streams : kStreamSweep) {
    auto opt = pipeline_opts(streams);
    opt.max_buffer_pairs = 64;  // force overflow splits
    opt.safety = 0.01;          // sabotage the estimate too
    auto first = GpuSelfJoin(opt).run(d, 1.0);
    auto second = GpuSelfJoin(opt).run(d, 1.0);
    EXPECT_GT(first.stats.batch.overflow_retries, 0u) << streams;
    if (fault::enabled()) {
      // Under the SJ_FAULTS chaos sweep the runs see different fault
      // placements (draw counters advance across runs), so split
      // patterns and raw segment order differ; compare the normalized
      // content.
      first.pairs.normalize();
      second.pairs.normalize();
    }
    EXPECT_EQ(first.pairs.pairs(), second.pairs.pairs()) << streams;
    if (streams == kStreamSweep[0]) {
      reference = first.pairs;
    } else {
      EXPECT_EQ(first.pairs.pairs(), reference.pairs()) << streams;
    }
    EXPECT_TRUE(ResultSet::equal_normalized(first.pairs, want.pairs))
        << streams;
  }
}

TEST(AsyncPipeline, TinyBuffersStayExactOnSkewedData) {
  const auto d = datagen::ippp(1200, 2, 48.0, 31);
  const auto want = brute::self_join(d, 2.0);
  for (const int streams : kStreamSweep) {
    auto opt = pipeline_opts(streams);
    opt.max_buffer_pairs = 64;
    opt.safety = 0.01;
    const auto got = GpuSelfJoin(opt).run(d, 2.0);
    EXPECT_TRUE(ResultSet::equal_normalized(got.pairs, want.pairs))
        << streams << " streams";
  }
}

TEST(AsyncPipeline, EmptyAndSinglePointDatasets) {
  for (const int streams : kStreamSweep) {
    EXPECT_TRUE(GpuSelfJoin(pipeline_opts(streams))
                    .run(Dataset(2), 1.0)
                    .pairs.empty());
    Dataset one(3, {1.0, 2.0, 3.0});
    auto got = GpuSelfJoin(pipeline_opts(streams)).run(one, 0.5);
    ASSERT_EQ(got.pairs.size(), 1u);
    EXPECT_EQ(got.pairs.pairs()[0], (Pair{0, 0}));
  }
}

TEST(AsyncPipeline, AssemblyStatsArePopulated) {
  const auto d = datagen::uniform(2000, 2, 0.0, 100.0, 41);
  for (const int streams : kStreamSweep) {
    const auto r = GpuSelfJoin(pipeline_opts(streams)).run(d, 2.0);
    EXPECT_GE(r.stats.batch.batches_run, 3u);  // paper minimum
    EXPECT_EQ(r.stats.batch.bytes_to_host, r.pairs.size() * sizeof(Pair));
    EXPECT_GT(r.stats.batch.modeled_transfer_seconds, 0.0);
    EXPECT_GT(r.stats.batch.assembly_seconds, 0.0);
  }
}

TEST(AsyncPipeline, RejectsBadOptions) {
  EXPECT_THROW(GpuSelfJoin(pipeline_opts(0)), std::invalid_argument);
  auto bad_block = pipeline_opts(1);
  bad_block.block_size = 0;
  EXPECT_THROW(GpuSelfJoin{bad_block}, std::invalid_argument);
  PipelineConfig config;
  config.streams = 0;
  gpu::GlobalMemoryArena arena(gpu::DeviceSpec::titan_x_pascal());
  EXPECT_THROW(BatchPipeline(arena, gpu::DeviceSpec::titan_x_pascal(), config),
               std::invalid_argument);
}

// --- Direct BatchPipeline coverage (the machinery GpuSelfJoin, gpu_join
// and the shard engine run on).

// Isolated points: every point's only neighbour is itself.
Dataset isolated_points(std::size_t n, double spacing) {
  Dataset d(2);
  for (std::size_t i = 0; i < n; ++i) {
    double p[2] = {spacing * static_cast<double>(i), 0.0};
    d.push_back(p);
  }
  return d;
}

TEST(BatchPipelineDirect, OnePairBufferRecoversViaSplitsExactly) {
  // A zero estimate with nonzero true pairs and a 1-pair buffer: every
  // multi-point batch overflows and must split all the way down to
  // singletons, which then fit exactly (one self pair each).
  const auto d = isolated_points(64, 10.0);
  const double eps = 1.0;
  GridIndex index(d, eps);
  gpu::GlobalMemoryArena arena(gpu::DeviceSpec::titan_x_pascal());
  DeviceGrid dev(arena, d, index);

  const BatchPlan plan = plan_batches(/*estimated_total=*/0, d.size(),
                                      /*min_batches=*/3, /*buffer_pairs=*/1,
                                      /*safety=*/1.25);
  ASSERT_EQ(plan.buffer_pairs, 1u);

  PipelineConfig config;
  config.streams = 3;
  BatchPipeline pipeline(arena, gpu::DeviceSpec::titan_x_pascal(), config);
  AtomicWork work;
  BatchRunStats stats;
  auto got = pipeline
                 .run(ResultRequest{}, dev.view(), /*unicomp=*/false, plan,
                      &work, &stats)
                 .pairs;

  EXPECT_GT(stats.overflow_retries, 0u);
  got.normalize();
  ASSERT_EQ(got.size(), d.size());
  for (std::uint32_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(got.pairs()[i], (Pair{i, i}));
  }
}

TEST(BatchPipelineDirect, FatalOverflowOnlyOnUnsplittableSinglePoint) {
  // Two co-located points: each singleton batch produces TWO pairs, which
  // cannot fit a 1-pair buffer no matter how far the splits go.
  auto d = isolated_points(16, 10.0);
  double dup[2] = {0.0, 0.0};  // duplicates point 0
  d.push_back(dup);
  const double eps = 1.0;
  GridIndex index(d, eps);
  gpu::GlobalMemoryArena arena(gpu::DeviceSpec::titan_x_pascal());
  DeviceGrid dev(arena, d, index);

  const BatchPlan plan =
      plan_batches(0, d.size(), 3, /*buffer_pairs=*/1, 1.25);
  PipelineConfig config;
  config.streams = 2;
  BatchPipeline pipeline(arena, gpu::DeviceSpec::titan_x_pascal(), config);
  AtomicWork work;
  EXPECT_THROW(
      pipeline.run(ResultRequest{}, dev.view(), false, plan, &work, nullptr),
      gpu::DeviceOutOfMemory);
}

// The overlapped engine is gone with its assembly-worker knob: every
// GPU self-join runs the one single-device pipeline (one assembler), and
// the knob is an unknown key on the engines that remain.
TEST(GpuAsyncBackend, RegistryKnobsAndValidation) {
  const auto& registry = api::BackendRegistry::instance();
  for (const std::string& name : registry.names()) {
    EXPECT_EQ(name.find("async"), std::string::npos) << name;
  }

  const auto d = datagen::uniform(300, 2, 0.0, 50.0, 55);
  for (const char* name : {"gpu", "gpu_unicomp", "gpu_shard"}) {
    api::RunConfig config;
    config.extra = {{"assembly_threads", "2"}};
    EXPECT_THROW(registry.at(name).run(d, 1.0, config), std::invalid_argument)
        << name;
  }
}

}  // namespace
}  // namespace sj
