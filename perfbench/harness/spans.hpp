// In-memory wall-clock spans for the traced benchmark run.
//
// The harness opens a span around each call it makes into a module's
// public functions. Spans on one recorder nest strictly (one thread,
// stack discipline), so a span's self time is its duration minus the
// durations of its direct children. Every span is kept in memory; the
// Chrome trace and the per-name table are written once, at exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::int32_t parent = -1;  ///< index of the enclosing span, -1 = none
    double start = 0.0;
    double end = 0.0;
    double child = 0.0;  ///< summed duration of direct children
    bool closed = false;
  };
  struct Totals {
    std::uint64_t calls = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  explicit SpanRecorder(std::uint32_t tid = 0) : tid_(tid) {}

  std::uint32_t intern(const std::string& name) {
    for (std::uint32_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return i;
    }
    names_.push_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  void begin(std::uint32_t name, double at) {
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start = at;
    spans_.push_back(span);
    open_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
  }
  void begin(std::uint32_t name) { begin(name, now_s()); }

  void end(double at) {
    Span& span = spans_[static_cast<std::size_t>(open_.back())];
    open_.pop_back();
    span.end = at;
    span.closed = true;
    if (span.parent >= 0) {
      spans_[static_cast<std::size_t>(span.parent)].child +=
          span.end - span.start;
    }
  }
  void end() { end(now_s()); }

  /// Records an already-finished span as a child of the innermost open
  /// span (used where the harness sees a call's start and end from two
  /// separate hooks).
  void add(std::uint32_t name, double start, double end_at) {
    begin(name, start);
    end(end_at);
  }

  /// Per-name calls, total time and self time over every closed span.
  std::map<std::string, Totals> totals() const {
    std::map<std::string, Totals> out;
    for (const Span& span : spans_) {
      if (!span.closed) continue;
      Totals& row = out[names_[span.name]];
      ++row.calls;
      row.total_s += span.end - span.start;
      row.self_s += span.end - span.start - span.child;
    }
    return out;
  }

  /// Wall time covered by closed top-level spans.
  double top_level_s() const {
    double sum = 0.0;
    for (const Span& span : spans_) {
      if (span.parent < 0 && span.closed) {
        sum += span.end - span.start;
      }
    }
    return sum;
  }

  /// Appends this recorder's spans as Chrome trace "X" events (µs,
  /// relative to `origin`).
  void append_chrome(std::string& out, double origin) const {
    char buffer[256];
    for (const Span& span : spans_) {
      if (!span.closed) continue;
      std::snprintf(buffer, sizeof(buffer),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f}",
                    out.empty() ? "" : ",\n", names_[span.name].c_str(),
                    tid_, (span.start - origin) * 1e6,
                    (span.end - span.start) * 1e6);
      out += buffer;
    }
  }

 private:
  std::uint32_t tid_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span on a recorder; a null recorder makes it a no-op, so the
/// untraced path pays one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::uint32_t name)
      : recorder_(recorder) {
    if (recorder_ != nullptr) recorder_->begin(name);
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
};

/// Writes the recorders' spans as one Chrome trace-event JSON file.
inline bool write_chrome_trace(const std::string& path,
                               const std::vector<const SpanRecorder*>& all,
                               double origin) {
  std::string events;
  for (const SpanRecorder* recorder : all) {
    recorder->append_chrome(events, origin);
  }
  std::ofstream file(path);
  file << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
       << events << "\n]}\n";
  return static_cast<bool>(file);
}

}  // namespace perfbench
