// perfbench/trace — spans recorded around the benchmark's calls into each
// layer's public functions, kept in memory and written out at the end.
//
// A span is (id, parent, request, name, start, end).  Names are
// "<layer>.<call>", e.g. "model.load_any_model" or "serve.submit"; the
// layer is the part before the first dot.  Spans of one request share its
// request id (the submit span plus the wait span of a serve request).  A
// span's self time is its duration minus the part of it that its child
// spans cover.  When tracing is off, Sink::add is a no-op, so the
// untraced run pays only the clock reads it needs for its own metrics.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< 0 = not tied to a request
  std::uint32_t name = 0;     ///< index into Trace::names()
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Trace {
 public:
  /// Per-thread span buffer.  Each recording thread takes its own Sink
  /// from sink() before it starts; the Trace owns it.
  class Sink {
   public:
    explicit Sink(Trace& trace) : trace_(&trace) {}
    /// A fresh span id (for a parent recorded after its children).
    [[nodiscard]] std::uint64_t new_id() { return trace_->next_id_++; }
    void add(const Span& span) {
      if (trace_->enabled_) spans_.push_back(span);
    }

   private:
    friend class Trace;
    Trace* trace_;
    std::vector<Span> spans_;
  };

  explicit Trace(bool enabled) : enabled_(enabled) {}
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Interns a span name.  Not thread-safe: call before threads start.
  [[nodiscard]] std::uint32_t name(std::string_view name);
  [[nodiscard]] const std::vector<std::string>& names() const noexcept {
    return names_;
  }

  /// A new sink with a stable address.  Not thread-safe: call before the
  /// thread that uses it starts.
  [[nodiscard]] Sink& sink() { return sinks_.emplace_back(*this); }

  /// Every span of every sink.
  [[nodiscard]] std::vector<Span> spans() const;

  /// Durations in seconds of the spans called `name`.
  [[nodiscard]] std::vector<double> durations_s(std::string_view name) const;

  /// Writes the spans as CSV (id,parent,request,name,start_ns,end_ns);
  /// returns false on I/O failure.
  bool write_csv(const std::string& path) const;

 private:
  bool enabled_;
  std::atomic<std::uint64_t> next_id_{1};
  std::vector<std::string> names_;
  std::deque<Sink> sinks_;
};

/// Records `f()` as a span named `name` under `parent`.
template <typename F>
void timed(Trace::Sink& sink, std::uint32_t name, std::uint64_t parent, F&& f) {
  Span span;
  span.id = sink.new_id();
  span.parent = parent;
  span.name = name;
  span.start_ns = now_ns();
  f();
  span.end_ns = now_ns();
  sink.add(span);
}

/// Self time in seconds summed per layer: each span's duration minus the
/// union of its children's intervals (clipped to the span).
[[nodiscard]] std::map<std::string, double> self_seconds_by_layer(
    const std::vector<Span>& spans, const std::vector<std::string>& names);

}  // namespace perfbench
