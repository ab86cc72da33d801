// Span recorder for the traced run.
//
// The benchmark wraps each call into a layer of the program in a span
// (name, start, end, parent, workload, repeat). Spans stay in memory and
// are written once, at the end, in the Chrome Trace Event JSON format,
// which opens offline in Perfetto or chrome://tracing. Spans nest by
// scope on the one thread that records them.
#pragma once

#include <chrono>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    double t0 = 0.0;  ///< seconds since the tracer was made
    double t1 = 0.0;
    int parent = -1;  ///< index of the enclosing span, -1 for a root
    int repeat = 0;
  };

  explicit Tracer(std::string workload) : workload_(std::move(workload)) {}

  /// Opens a span for the lifetime of the scope.
  class Scope {
   public:
    Scope(Tracer& t, std::string name, int repeat = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    Tracer& tracer_;
    int id_;
  };

  double duration(int id) const { return spans_[id].t1 - spans_[id].t0; }

  /// The span's duration minus the time its child spans cover.
  double self_seconds(int id) const;

  /// Sum of the durations of the spans named `name`.
  double total(const std::string& name) const;

  /// Writes every span as a complete ("X") trace event; throws on I/O
  /// failure.
  void write_chrome_trace(const std::string& path) const;

 private:
  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  using Clock = std::chrono::steady_clock;
  std::string workload_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
