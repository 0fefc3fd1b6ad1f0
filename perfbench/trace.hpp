#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

/// \file trace.hpp
/// \brief Benchmark-side spans: one per public call into a library layer,
/// kept in memory and written out when the run ends.
///
/// A span records its name, start, end, parent span and step id. A layer
/// call may also carry `inner_ms`: time a nested layer spent inside it that
/// the benchmark learns from a counter rather than a span (the integrity
/// armor's audit and seal time inside a transactional operation). The
/// self-time table moves that time from the enclosing layer to "integrity".

#include <chrono>
#include <cstdio>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Span {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;  ///< index into Tracer::spans(), -1 for a step span
  int step = -1;
  double inner_ms = 0.0;
};

class Tracer {
 public:
  void setOn(bool on) { on_ = on; }
  void setStep(int step) { step_ = step; }
  void setOrigin(Clock::time_point t) { origin_ = t; }

  /// Opens a span when tracing is on; returns its id or -1.
  int begin(const char* name) {
    if (!on_) return -1;
    Span s;
    s.name = name;
    s.start = Clock::now();
    s.parent = open_.empty() ? -1 : open_.back();
    s.step = step_;
    spans_.push_back(s);
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void end(int id, double inner_ms = 0.0) {
    if (id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = Clock::now();
    s.inner_ms = inner_ms;
    open_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// JSON list of every span, times in microseconds since the run origin.
  void writeJson(std::ostream& os) const {
    auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin_).count();
    };
    os << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof line,
                    "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                    "\"end_us\":%.3f,\"parent\":%d,\"step\":%d,"
                    "\"inner_ms\":%.6f}%s\n",
                    i, s.name, us(s.start), us(s.end), s.parent, s.step,
                    s.inner_ms, i + 1 < spans_.size() ? "," : "");
      os << line;
    }
    os << "]\n";
  }

 private:
  bool on_ = false;
  int step_ = -1;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span around one call.
class Scope {
 public:
  Scope(Tracer& tr, const char* name) : tr_(tr), id_(tr.begin(name)) {}
  ~Scope() { tr_.end(id_, inner_ms_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void setInner(double ms) { inner_ms_ = ms; }

 private:
  Tracer& tr_;
  int id_;
  double inner_ms_ = 0.0;
};

/// Self time per span name over every step span, plus the step time no
/// layer span covers.
struct SelfTimes {
  struct Row {
    long calls = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> rows;
  double step_ms = 0.0;          ///< summed duration of step spans
  double unattributed_ms = 0.0;  ///< step time outside any child span
};

inline SelfTimes selfTimes(const std::vector<Span>& spans,
                           const char* inner_name) {
  SelfTimes t;
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const Span& s : spans)
    if (s.parent >= 0)
      child_ms[static_cast<std::size_t>(s.parent)] += msBetween(s.start, s.end);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double dur = msBetween(s.start, s.end);
    if (s.parent < 0) {
      t.step_ms += dur;
      t.unattributed_ms += dur - child_ms[i];
      continue;
    }
    auto& row = t.rows[s.name];
    ++row.calls;
    row.total_ms += dur;
    row.self_ms += dur - child_ms[i] - s.inner_ms;
    if (s.inner_ms > 0.0) t.rows[inner_name].self_ms += s.inner_ms;
  }
  return t;
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_HPP
