// In-memory span recorder for the benchmark's traced runs.
//
// A span is opened and closed around one call the benchmark makes into a
// library layer (build_scenario, warm_paths, session, submit, drain,
// replay_trace, the parse pass). Spans nest: the span open when another
// opens is its parent. Nothing is written while the run is timed; the
// spans are serialized to JSON once the run ends.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace runbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Tracer {
 public:
  struct Span {
    std::string name;
    std::string detail;  // e.g. the scheme key a session span belongs to
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
  };

  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int open(std::string name, std::string detail) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{std::move(name), std::move(detail),
                          seconds_between(origin_, Clock::now()), 0.0,
                          open_.empty() ? -1 : open_.back()});
    open_.push_back(id);
    return id;
  }

  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_s =
        seconds_between(origin_, Clock::now());
    open_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name: each span's duration minus the time its
  /// direct children cover, summed over spans of the same name.
  [[nodiscard]] std::map<std::string, double> self_seconds() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[i] = spans_[i].end_s - spans_[i].start_s;
    for (const Span& s : spans_)
      if (s.parent >= 0)
        self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      out[spans_[i].name] += self[i];
    return out;
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span for its lifetime; does nothing when the tracer is null
/// (untraced runs).
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, const std::string& detail = {})
      : tracer_(tracer), id_(tracer ? tracer->open(name, detail) : -1) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Serializes spans as a JSON array, one object per span.
inline void write_spans_json(std::ostream& os,
                             const std::vector<Tracer::Span>& spans) {
  os << "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    os << (i ? ",\n  " : "\n  ") << "{\"id\": " << i << ", \"name\": \""
       << s.name << "\", \"detail\": \"" << s.detail
       << "\", \"start_s\": " << s.start_s << ", \"end_s\": " << s.end_s
       << ", \"parent\": " << s.parent << "}";
  }
  os << "\n]";
}

}  // namespace runbench
