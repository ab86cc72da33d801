#include "trace.hpp"

#include <fstream>
#include <stdexcept>

namespace perfbench {
namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

Tracer::Scope::Scope(Tracer& t, std::string name, int repeat)
    : tracer_(t), id_(static_cast<int>(t.spans_.size())) {
  Span s;
  s.name = std::move(name);
  s.parent = t.open_.empty() ? -1 : t.open_.back();
  s.repeat = repeat;
  s.t0 = t.now();
  t.spans_.push_back(std::move(s));
  t.open_.push_back(id_);
}

Tracer::Scope::~Scope() {
  tracer_.spans_[id_].t1 = tracer_.now();
  tracer_.open_.pop_back();
}

double Tracer::self_seconds(int id) const {
  double self = duration(id);
  // Spans nest on one thread, so children are disjoint sub-intervals.
  for (std::size_t c = static_cast<std::size_t>(id) + 1; c < spans_.size(); ++c) {
    if (spans_[c].parent == id) self -= duration(static_cast<int>(c));
  }
  return self;
}

double Tracer::total(const std::string& name) const {
  double sum = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) sum += duration(static_cast<int>(i));
  }
  return sum;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  out.setf(std::ios::fixed);
  out.precision(3);  // microseconds to the nanosecond
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const int id = static_cast<int>(i);
    out << (i == 0 ? "" : ",\n") << "{\"name\":" << json_string(s.name)
        << ",\"cat\":" << json_string(workload_)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << s.t0 * 1e6 << ",\"dur\":" << duration(id) * 1e6
        << ",\"args\":{\"id\":" << id << ",\"parent\":" << s.parent
        << ",\"workload\":" << json_string(workload_)
        << ",\"repeat\":" << s.repeat
        << ",\"self_us\":" << self_seconds(id) * 1e6 << "}}";
  }
  out << "\n]}\n";
  out.close();
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

}  // namespace perfbench
