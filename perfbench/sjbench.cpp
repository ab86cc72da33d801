// End-to-end benchmark driver: runs one self-join workload through the
// public API (api::BackendRegistry, and api::QuerySession in the traced
// pass), checks every output against the independent oracles
// (oracle.hpp) and prints each metric by name with its unit. The last
// line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (untraced run) or, with --trace 1, the
// per-layer metrics of a separate traced pass that rebuilds each engine
// from its layers' public calls and wraps every call in a span.
//
// Usage: sjbench --workload NAME --seed N --seconds S --trace 0|1
//                --out-dir DIR
// Exit status 0 when every operation succeeded and every check passed.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.hpp"
#include "api/session.hpp"
#include "common/io.hpp"
#include "core/batcher.hpp"
#include "core/device_view.hpp"
#include "core/estimator.hpp"
#include "core/grid_index.hpp"
#include "core/kernels.hpp"
#include "core/knn.hpp"
#include "core/prepared.hpp"
#include "core/self_join.hpp"
#include "inputs.hpp"
#include "oracle.hpp"
#include "trace.hpp"

namespace {

using perfbench::Points;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(u.ru_utime) + tv(u.ru_stime);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(p / 100.0 * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

// ---------------------------------------------------------------- workloads

struct Spec {
  std::string name;
  std::size_t n;
  double eps;
  std::function<Points(std::size_t, std::uint64_t)> make;
};

constexpr int kKnnKs[] = {1, 8, 64};
constexpr int kSetupRepeats = 9;
constexpr std::size_t kMinWarmJoins = 3;
constexpr std::size_t kGroupQueries = 64;    // = SessionOptions::coalesce_limit
constexpr std::size_t kWarmupQueries = 64;
constexpr std::size_t kOpenQueries = 2000;   // open-loop samples
/// Open-loop range queries per second: a fixed rate well below the
/// session's capacity on both inputs.
constexpr double kOpenRate = 400.0;
constexpr std::size_t kKnnSample = 10'000;

// The paper's two regimes: dense low-dimensional data, where the result
// set and the batching that carries it dominate, and rising dimension,
// where the index search dominates.
const std::vector<Spec>& specs() {
  static const std::vector<Spec> all = {
      {"selfjoin-ippp2d", 2'000'000, 0.15, perfbench::ippp2d},
      {"selfjoin-uni6d", 200'000, 9.0,
       [](std::size_t n, std::uint64_t s) { return perfbench::uniform(n, 6, s); }},
  };
  return all;
}

sj::Dataset to_dataset(const Points& p) { return sj::Dataset(p.dim, p.xyz); }

// ------------------------------------------------------- operation ledger

/// Counts operations and failures; keeps the first messages for the log.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t check_failures = 0;
  std::vector<std::string> messages;

  void note(const std::string& what, const std::string& msg) {
    if (messages.size() < 20) messages.push_back(what + ": " + msg);
  }

  /// Runs one operation; an exception (exec::Overloaded included) counts
  /// it failed.
  template <class F>
  bool attempt(const std::string& what, F&& op) {
    ++attempted;
    try {
      op();
      return true;
    } catch (const std::exception& e) {
      ++failed;
      note(what, e.what());
      return false;
    }
  }

  /// Records the failures of a check on an operation already attempted.
  void check(const std::string& what, const std::vector<std::string>& fails) {
    if (fails.empty()) return;
    ++failed;
    ++check_failures;
    for (const auto& f : fails) note(what, f);
  }
};

struct Metric {
  double value;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// ------------------------------------------------------------ run context

struct Run {
  const Spec& spec;
  std::uint64_t seed;
  double seconds;
  std::string out_dir;

  Points pts;
  sj::Dataset data;
  Ledger ops;
  Metrics e2e;
  Metrics layers;
  perfbench::JoinTruth truth;
  std::vector<double> warm_join_s;  // untraced warm self-joins
  std::uint64_t join_hash = 0;      // order-dependent hash of the output
  std::uint64_t join_pairs = 0;

  Run(const Spec& s, std::uint64_t sd, double secs, std::string dir)
      : spec(s), seed(sd), seconds(secs), out_dir(std::move(dir)) {}

  std::vector<double> point(std::size_t i) const {
    return std::vector<double>(pts.pt(i), pts.pt(i) + pts.dim);
  }
};

/// Order-dependent hash of a pair vector: equal outputs, byte for byte.
std::uint64_t ordered_hash(const std::vector<sj::Pair>& pairs) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const sj::Pair& p : pairs) {
    h = (h ^ perfbench::pair_digest(p.key, p.value)) * 1099511628211ULL;
  }
  return h;
}

/// Structural checks on a range answer that need no oracle: ascending
/// ids, count agreeing with them, every id within eps of the centre.
std::vector<std::string> range_properties(const Run& r, const double* center,
                                          const sj::api::RangeResult& res) {
  std::vector<std::string> fails;
  if (!std::is_sorted(res.neighbors.begin(), res.neighbors.end())) {
    fails.push_back("range ids are not ascending");
  }
  if (res.count != res.neighbors.size()) {
    fails.push_back("range count disagrees with its ids");
  }
  const double eps2 = r.spec.eps * r.spec.eps;
  for (const std::uint32_t id : res.neighbors) {
    double acc = eps2 + 1.0;
    if (id < r.pts.size()) {
      acc = 0.0;
      for (int j = 0; j < r.pts.dim; ++j) {
        const double d = r.pts.pt(id)[j] - center[j];
        acc += d * d;
      }
    }
    if (acc > eps2) {
      fails.push_back("range id " + std::to_string(id) + " lies beyond eps");
      break;
    }
  }
  return fails;
}

/// Wall and CPU seconds of one operation; nothing when it threw.
using Timing = std::optional<std::pair<double, double>>;

/// One self-join through the registry's default engine, timed with the
/// pairs in the caller's hands, then checked against the oracle.
Timing self_join_op(Run& r) {
  const auto& backend = sj::api::BackendRegistry::instance().at("gpu_unicomp");
  sj::api::JoinOutcome out;
  const double c0 = cpu_seconds();
  const auto t0 = Clock::now();
  if (!r.ops.attempt("self-join", [&] { out = backend.run(r.data, r.spec.eps); })) {
    return std::nullopt;
  }
  const double t = since(t0);
  const double c = cpu_seconds() - c0;
  const auto& pairs = out.pairs.pairs();
  r.ops.check("self-join", perfbench::check_self_join(
                               pairs.data(), pairs.size(), r.pts, r.spec.eps,
                               r.truth));
  r.join_hash = ordered_hash(pairs);
  r.join_pairs = pairs.size();
  return std::make_pair(t, c);
}

// ------------------------------------------------------------- main phase

/// The first self-join of the process (printed, kept out of the figures),
/// then warm ones until the run's budget is spent, at least three.
void main_phase(Run& r) {
  const auto t0 = Clock::now();
  const Timing cold = self_join_op(r);
  std::vector<double> cpu;
  for (std::size_t i = 0; i < kMinWarmJoins || since(t0) < r.seconds; ++i) {
    if (const Timing t = self_join_op(r)) {
      r.warm_join_s.push_back(t->first);
      cpu.push_back(t->second);
    }
  }
  std::cout << "cold self-join " << (cold ? cold->first : 0.0)
            << " s; warm self-joins (s):";
  for (const double w : r.warm_join_s) std::cout << " " << w;
  std::cout << "\n";
  r.e2e["selfjoin_s"] = {median(r.warm_join_s), "s"};
  r.e2e["selfjoin_cpu_s"] = {median(cpu), "s"};

  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  r.e2e["peak_rss_mb"] = {static_cast<double>(u.ru_maxrss) / 1024.0, "MB"};
}

// ----------------------------------------------------------- traced pass

/// Rebuilds the default cell-major UNICOMP self-join from each layer's
/// public call, in the order GpuSelfJoin::run makes them, one span each.
void traced_self_join(Run& r, perfbench::Tracer& tr) {
  const sj::GpuSelfJoinOptions opt;  // the engine's defaults
  const sj::Dataset& d = r.data;
  sj::PipelineOutput out;
  sj::AtomicWork work;
  sj::BatchRunStats bst;
  sj::EstimateResult est;
  std::uint64_t cells_examined = 0;
  int root = 0;
  {
    perfbench::Tracer::Scope join(tr, "selfjoin");
    root = join.id();
    std::unique_ptr<sj::GridIndex> index;
    {
      perfbench::Tracer::Scope s(tr, "grid_index.build");
      index = std::make_unique<sj::GridIndex>(d, r.spec.eps);
    }
    sj::gpu::GlobalMemoryArena arena(opt.device);
    std::unique_ptr<sj::DeviceGrid> dev;
    {
      perfbench::Tracer::Scope s(tr, "device_view.stage");
      dev = std::make_unique<sj::DeviceGrid>(arena, d, *index,
                                             sj::GridLayout::kCellMajor);
    }
    const sj::GridDeviceView grid = dev->view();
    {
      perfbench::Tracer::Scope s(tr, "estimator.sample");
      est = sj::estimate_result_size(grid, opt.unicomp, opt.sample_rate,
                                     opt.block_size);
    }
    sj::CellAdjacency adjacency;
    {
      perfbench::Tracer::Scope s(tr, "kernels.adjacency");
      adjacency = sj::build_cell_adjacency(arena, grid, opt.unicomp);
    }
    cells_examined = adjacency.cells_examined;
    sj::CellBatchPlan plan;
    {
      perfbench::Tracer::Scope s(tr, "batcher.plan");
      const std::uint64_t buffer_pairs = sj::size_buffer_pairs(
          arena, d.size() * 3, est.estimated_total, opt.min_batches,
          opt.num_streams, opt.max_buffer_pairs, opt.safety);
      plan = sj::plan_cell_batches(adjacency.weights, est.estimated_total,
                                   opt.min_batches, buffer_pairs, opt.safety);
    }
    {
      perfbench::Tracer::Scope s(tr, "batch_pipeline.run");
      sj::ResultRequest req;
      req.histogram_keys = d.size();
      sj::Batcher batcher(arena, opt.device, opt.num_streams, opt.block_size,
                          opt.retry);
      out = batcher.run_cells(req, grid, opt.unicomp, plan, &adjacency, &work,
                              &bst);
    }
  }
  ++r.ops.attempted;
  const auto& pairs = out.pairs.pairs();
  r.ops.check("traced self-join",
              perfbench::check_self_join(pairs.data(), pairs.size(), r.pts,
                                         r.spec.eps, r.truth));
  if (ordered_hash(pairs) != r.join_hash) {
    r.ops.check("traced self-join", {"output differs from the untraced run's"});
  }

  sj::gpu::KernelMetrics km;
  work.add_to(km);
  const double total = static_cast<double>(out.total_pairs);
  const double wall = tr.duration(root);
  const double unattributed = tr.self_seconds(root);
  auto& L = r.layers;
  L["grid_index.build_s"] = {tr.total("grid_index.build"), "s"};
  L["device_view.stage_s"] = {tr.total("device_view.stage"), "s"};
  L["estimator.sample_s"] = {tr.total("estimator.sample"), "s"};
  L["estimator.rel_error"] = {
      std::abs(static_cast<double>(est.estimated_total) - total) / total, "ratio"};
  L["kernels.adjacency_s"] = {tr.total("kernels.adjacency"), "s"};
  L["kernels.cells_examined"] = {static_cast<double>(cells_examined), "count"};
  L["kernels.distance_calcs"] = {static_cast<double>(km.distance_calcs), "count"};
  L["kernels.pairs_per_calc"] = {total / static_cast<double>(km.distance_calcs), "ratio"};
  L["batcher.plan_s"] = {tr.total("batcher.plan"), "s"};
  L["batch_pipeline.run_s"] = {tr.total("batch_pipeline.run"), "s"};
  L["batch_pipeline.kernel_busy_s"] = {bst.kernel_seconds, "s"};
  L["batch_pipeline.sort_busy_s"] = {bst.sort_seconds, "s"};
  L["batch_pipeline.assembly_busy_s"] = {bst.assembly_seconds, "s"};
  L["batch_pipeline.bytes_to_host"] = {static_cast<double>(bst.bytes_to_host), "bytes"};
  L["batch_pipeline.batches_run"] = {static_cast<double>(bst.batches_run), "count"};
  L["batch_pipeline.overflow_retries"] = {static_cast<double>(bst.overflow_retries), "count"};
  L["trace.unattributed_s"] = {unattributed, "s"};
  L["trace.overhead_s"] = {wall - median(r.warm_join_s), "s"};
  if (unattributed > 0.05 * wall) {
    r.ops.check("trace", {"layer spans cover less than 95% of the traced join"});
  }
}

/// PreparedJoin: the staged image the session serves from.
void traced_prepared(Run& r, perfbench::Tracer& tr) {
  std::unique_ptr<sj::PreparedJoin> prepared;
  {
    perfbench::Tracer::Scope s(tr, "prepared.build");
    prepared = std::make_unique<sj::PreparedJoin>(r.data, r.spec.eps);
  }
  const sj::GpuJoinOptions opt;
  perfbench::Rng rng(r.seed * 31337 + 5);
  std::vector<double> single;
  for (int i = 0; i < 64; ++i) {
    const std::size_t q = rng.below(r.pts.size());
    const sj::Dataset one(r.pts.dim, r.point(q));
    sj::GpuJoinResult res;
    const auto t0 = Clock::now();
    {
      perfbench::Tracer::Scope s(tr, "prepared.single_query", i);
      r.ops.attempt("prepared single query", [&] { res = prepared->run(one, opt); });
    }
    single.push_back(1e3 * since(t0));
    if (res.total_pairs != perfbench::oracle_range(r.pts, r.pts.pt(q), r.spec.eps).size()) {
      r.ops.check("prepared single query", {"pair count differs from brute force"});
    }
  }
  std::vector<double> grouped;
  for (int g = 0; g < 8; ++g) {
    sj::Dataset group(r.pts.dim);
    std::uint64_t expected = 0;
    for (std::size_t i = 0; i < kGroupQueries; ++i) {
      const std::size_t q = rng.below(r.pts.size());
      group.push_back(r.pts.pt(q));
      if (i == 0) expected = perfbench::oracle_range(r.pts, r.pts.pt(q), r.spec.eps).size();
    }
    sj::GpuJoinResult res;
    const auto t0 = Clock::now();
    {
      perfbench::Tracer::Scope s(tr, "prepared.grouped_query", g);
      r.ops.attempt("prepared grouped query", [&] { res = prepared->run(group, opt); });
    }
    grouped.push_back(1e3 * since(t0) / static_cast<double>(kGroupQueries));
    const auto first_count = static_cast<std::uint64_t>(std::count_if(
        res.pairs.pairs().begin(), res.pairs.pairs().end(),
        [](const sj::Pair& p) { return p.key == 0; }));
    if (first_count != expected) {
      r.ops.check("prepared grouped query", {"query 0's pair count differs from brute force"});
    }
  }
  r.layers["prepared.build_s"] = {tr.total("prepared.build"), "s"};
  r.layers["prepared.single_query_ms"] = {median(single), "ms"};
  r.layers["prepared.grouped_query_ms"] = {median(grouped), "ms"};
}

/// The session layer: a QuerySession (default options) over the input
/// answers a short sequential warm-up, then an open loop. One generator
/// thread sends kOpenQueries single-point range queries at kOpenRate,
/// whatever the answers do. Each request is timed from the moment it was
/// due; it completes when it and every earlier request have been answered
/// (in-order delivery). The latencies are printed, not gated: on a shared
/// 4-vCPU host their run-to-run spread exceeded any allowed bound.
void traced_session(Run& r, perfbench::Tracer& tr) {
  std::unique_ptr<sj::api::QuerySession> session;
  {
    perfbench::Tracer::Scope s(tr, "session.build");
    session = std::make_unique<sj::api::QuerySession>(r.data, r.spec.eps);
  }
  perfbench::Rng rng(r.seed * 15485863 + 1);
  std::vector<std::size_t> picks(kWarmupQueries + kOpenQueries);
  for (auto& q : picks) q = rng.below(r.pts.size());
  std::vector<sj::api::RangeResult> results(picks.size());
  std::vector<std::string> errors(picks.size());

  for (std::size_t i = 0; i < kWarmupQueries; ++i) {
    try {
      results[i] = session->range(r.point(picks[i])).get();
    } catch (const std::exception& e) {
      errors[i] = e.what();
    }
  }

  const auto before = session->stats();
  std::vector<std::future<sj::api::RangeResult>> futs(picks.size());
  std::vector<Clock::time_point> due(picks.size());
  std::vector<double> latency_ms;
  std::atomic<std::size_t> issued{kWarmupQueries};
  double max_lateness_ms = 0.0;
  {
    perfbench::Tracer::Scope s(tr, "session.open_loop");
    std::thread collector([&] {
      for (std::size_t i = kWarmupQueries; i < picks.size(); ++i) {
        for (std::size_t n = issued.load(std::memory_order_acquire); n <= i;
             n = issued.load(std::memory_order_acquire)) {
          issued.wait(n, std::memory_order_acquire);
        }
        if (errors[i].empty()) {
          try {
            results[i] = futs[i].get();
          } catch (const std::exception& e) {
            errors[i] = e.what();
          }
        }
        latency_ms.push_back(1e3 * std::chrono::duration<double>(Clock::now() - due[i]).count());
      }
    });
    const auto period = std::chrono::duration<double>(1.0 / kOpenRate);
    const auto start = Clock::now() + std::chrono::milliseconds(5);
    for (std::size_t i = kWarmupQueries; i < picks.size(); ++i) {
      due[i] = start + std::chrono::duration_cast<Clock::duration>(
                           period * static_cast<double>(i - kWarmupQueries));
      std::this_thread::sleep_until(due[i]);
      max_lateness_ms = std::max(
          max_lateness_ms, 1e3 * std::chrono::duration<double>(Clock::now() - due[i]).count());
      try {
        futs[i] = session->range(r.point(picks[i]));
      } catch (const std::exception& e) {  // exec::Overloaded: shed at admission
        errors[i] = e.what();
      }
      issued.store(i + 1, std::memory_order_release);
      issued.notify_one();
    }
    collector.join();
  }

  for (std::size_t i = 0; i < picks.size(); ++i) {
    ++r.ops.attempted;
    if (!errors[i].empty()) {
      ++r.ops.failed;
      r.ops.note("session range", errors[i]);
      continue;
    }
    auto fails = range_properties(r, r.pts.pt(picks[i]), results[i]);
    if (fails.empty() && i % 128 == 0) {
      fails = perfbench::check_range(
          results[i].neighbors, results[i].count,
          perfbench::oracle_range(r.pts, r.pts.pt(picks[i]), r.spec.eps));
    }
    r.ops.check("session range", fails);
  }
  std::cout << "open loop: " << kOpenQueries << " range queries at " << kOpenRate
            << "/s; latency from due time p50 " << percentile(latency_ms, 50.0)
            << ", p90 " << percentile(latency_ms, 90.0) << ", p99 "
            << percentile(latency_ms, 99.0) << " ms; generator at most "
            << max_lateness_ms << " ms late\n";

  // Launches = multi-query launches + queries that ran alone.
  const auto after = session->stats();
  const double batches = static_cast<double>(after.coalesced_batches - before.coalesced_batches);
  const double grouped = static_cast<double>(after.coalesced_queries - before.coalesced_queries);
  const double launches = batches + (static_cast<double>(kOpenQueries) - grouped);
  r.layers["session.queries_per_launch"] = {
      static_cast<double>(kOpenQueries) / launches, "ratio"};
}

/// The kNN engine under the registry's `gpu` kNN facet, one span per k,
/// over a fixed sample of query points drawn from the data (the two-set
/// form: each query finds itself at distance 0).
void traced_knn(Run& r, perfbench::Tracer& tr) {
  perfbench::Rng rng(r.seed * 7 + 3);
  std::vector<std::size_t> picks;
  sj::Dataset sample(r.pts.dim);
  for (std::size_t i = 0; i < kKnnSample; ++i) {
    picks.push_back(rng.below(r.pts.size()));
    sample.push_back(r.pts.pt(picks.back()));
  }
  double build = 0.0;
  double calcs = 0.0;
  double rings = 0.0;
  for (const int k : kKnnKs) {
    sj::KnnOptions opt;
    opt.k = k;
    sj::KnnResult res;
    {
      perfbench::Tracer::Scope s(tr, "knn.gpu_knn", k);
      r.ops.attempt("traced knn", [&] { res = sj::gpu_knn(sample, r.data, opt); });
    }
    build += res.stats.index_build_seconds;
    calcs += static_cast<double>(res.stats.metrics.distance_calcs);
    rings += static_cast<double>(res.stats.rings_expanded);
    const std::size_t row = rng.below(kKnnSample);
    std::vector<double> truth = perfbench::oracle_knn(r.pts, picks[row], k - 1);
    truth.insert(truth.begin(), 0.0);
    std::vector<double> got;
    for (int j = 0; j < res.count(row); ++j) got.push_back(res.distance(row, j));
    r.ops.check("traced knn", perfbench::check_knn(got, truth));
  }
  r.layers["knn.index_build_s"] = {build, "s"};
  r.layers["knn.distance_calcs"] = {calcs, "count"};
  r.layers["knn.rings_expanded"] = {rings, "count"};
}

void traced_pass(Run& r) {
  perfbench::Tracer tr(r.spec.name);
  traced_self_join(r, tr);
  traced_prepared(r, tr);
  traced_session(r, tr);
  traced_knn(r, tr);
  const std::string path = r.out_dir + "/trace-" + r.spec.name + "-" +
                           std::to_string(r.seed) + ".json";
  tr.write_chrome_trace(path);
  std::cout << "trace: " << path << "\n";
}

// ------------------------------------------------------------------ main

void print_json(const Run& r, const Metrics& m) {
  std::ostringstream o;
  o.precision(17);
  o << "{\"correct\": " << (r.ops.check_failures == 0 ? "true" : "false")
    << ", \"attempted\": " << r.ops.attempted << ", \"failed\": " << r.ops.failed
    << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : m) {
    o << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << metric.value
      << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  o << "}}";
  std::cout << o.str() << std::endl;
}

int run(const Spec& spec, std::uint64_t seed, double seconds, bool traced,
        const std::string& out_dir) {
  Run r(spec, seed, seconds, out_dir);
  r.pts = spec.make(spec.n, seed);

  // Set-up: load the input from disk, repeated; the median is reported.
  const std::string path = out_dir + "/" + spec.name + "-" + std::to_string(seed) + ".sjd";
  sj::io::save_binary(to_dataset(r.pts), path);
  std::vector<double> setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    r.data = sj::io::load_binary(path);
    setup.push_back(since(t0));
  }
  std::remove(path.c_str());
  if (r.data.raw() != r.pts.xyz) {
    throw std::runtime_error("the loaded input differs from the generated one");
  }
  r.e2e["setup_s"] = {median(setup), "s"};
  r.truth = perfbench::oracle_self_join(r.pts, spec.eps);

  main_phase(r);
  if (traced) traced_pass(r);

  std::cout << spec.name << " seed " << seed << ": " << spec.n << " points, eps "
            << spec.eps << ", self-join " << r.join_pairs << " pairs\n";
  for (const auto& [name, m] : traced ? r.layers : r.e2e) {
    std::cout << "  " << name << " = " << m.value << " " << m.unit << "\n";
  }
  std::cout << "operations: " << r.ops.attempted << " attempted, " << r.ops.failed
            << " failed\n";
  for (const auto& msg : r.ops.messages) std::cout << "FAILED " << msg << "\n";
  print_json(r, traced ? r.layers : r.e2e);
  return r.ops.failed == 0 && r.ops.check_failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  const auto need = [&](const std::string& key) {
    const auto it = args.find(key);
    if (it == args.end()) {
      throw std::invalid_argument("missing " + key +
                                  " (usage: sjbench --workload NAME --seed N "
                                  "--seconds S --trace 0|1 --out-dir DIR)");
    }
    return it->second;
  };
  try {
    const std::string name = need("--workload");
    const auto& all = specs();
    const auto spec = std::find_if(all.begin(), all.end(),
                                   [&](const Spec& s) { return s.name == name; });
    if (spec == all.end()) throw std::invalid_argument("unknown workload " + name);
    return run(*spec, std::stoull(need("--seed")), std::stod(need("--seconds")),
               need("--trace") == "1", need("--out-dir"));
  } catch (const std::exception& e) {
    std::cerr << "sjbench: " << e.what() << "\n";
    return 2;
  }
}
