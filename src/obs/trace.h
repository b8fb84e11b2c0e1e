#ifndef SUBEX_OBS_TRACE_H_
#define SUBEX_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/span_collector.h"

namespace subex {

/// Per-request (or per-run) span tree: each finished `TraceSpan` contributes
/// one named interval with a wall-anchorable start timestamp, a span id and
/// its parent's span id (parentage follows open-span nesting order). Closed
/// spans are forwarded to the process `SpanCollector` when it is enabled.
/// Not thread-safe — one trace belongs to one request/thread at a time;
/// cross-request aggregation is the registry's histograms' job.
class Trace {
 public:
  struct Span {
    std::string name;
    std::uint64_t span_id = 0;
    std::uint64_t parent_id = 0;
    std::uint64_t start_ns = 0;  ///< Steady-clock ns.
    std::uint64_t duration_ns = 0;
  };

  /// The id every span of this trace carries; 0 until set. For served
  /// requests this is the client-propagated id from the wire header.
  void set_trace_id(std::uint64_t id) { trace_id_ = id; }
  std::uint64_t trace_id() const { return trace_id_; }

  /// Starts a span (child of the innermost still-open span) and returns its
  /// index for `CloseSpan`.
  std::size_t OpenSpan(std::string name, std::uint64_t start_ns);
  /// Finishes the span at `index`, popping it from the open stack and
  /// forwarding it to the enabled `SpanCollector`. Spans must close in
  /// reverse open order (RAII nesting guarantees this).
  void CloseSpan(std::size_t index, std::uint64_t duration_ns);
  /// Records an already-measured interval as a closed child of the
  /// innermost open span.
  void Record(std::string name, std::uint64_t start_ns,
              std::uint64_t duration_ns);

  const std::vector<Span>& spans() const { return spans_; }
  /// Drops all spans but keeps the allocation, so pooled traces reuse their
  /// capacity across requests. Resets the trace id to 0.
  void Clear();

  /// Sum over root spans (ns) — nested children are already counted inside
  /// their parents.
  std::uint64_t TotalNs() const;

  /// `{"trace_id":"0x..","spans":[{"name":..,"span_id":..,"parent_id":..,
  ///   "start_ms":..,"dur_ms":..},...]}` in recording order.
  std::string ToJson() const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_stack_;
  std::uint64_t trace_id_ = 0;
};

/// The trace the calling thread is currently serving, or nullptr. Installed
/// by `TraceContext`; `TraceSpan`s with a stage name attach to it
/// automatically, so deep call sites (detectors, chunk loads) need no
/// plumbed-through trace parameter.
Trace* CurrentTrace();

/// RAII installer for `CurrentTrace` — scopes a request's trace to the
/// handler call, restoring the previous (usually null) trace on exit.
class TraceContext {
 public:
  explicit TraceContext(Trace* trace);
  ~TraceContext();
  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

 private:
  Trace* previous_;
};

/// Attaches an already-measured interval to the thread's current trace, or
/// (with no current trace) to the enabled collector as an orphan span. For
/// code that must keep its own chrono timing, e.g. because the measurement
/// also feeds non-obs stats.
void RecordCompletedSpan(const char* name,
                         std::chrono::steady_clock::time_point start,
                         std::uint64_t duration_ns);

/// RAII stage timer: reads the clock at construction and, at destruction
/// (or an explicit `Stop`), records the elapsed nanoseconds into an
/// optional `Histogram` (cross-request aggregate) and — when a stage name
/// is given — into a `Trace` as a nested span (the explicit one, or the
/// thread's `CurrentTrace`). A named span with no trace still reaches an
/// enabled `SpanCollector` as an orphan. With nothing to feed, the
/// constructor skips even the clock read, so spans can stay in the code
/// unconditionally.
class TraceSpan {
 public:
  explicit TraceSpan(Histogram* histogram, Trace* trace = nullptr,
                     const char* stage = nullptr)
      : histogram_(histogram), stage_(stage) {
    trace_ = trace != nullptr
                 ? trace
                 : (stage_ != nullptr ? CurrentTrace() : nullptr);
    const bool orphan_wanted =
        trace_ == nullptr && stage_ != nullptr && SpanCollector::Global().enabled();
    if (histogram_ != nullptr || trace_ != nullptr || orphan_wanted) {
      start_ = std::chrono::steady_clock::now();
      armed_ = true;
      if (trace_ != nullptr && stage_ != nullptr) {
        span_index_ = trace_->OpenSpan(stage_, StartNs());
        open_ = true;
      }
    }
  }

  ~TraceSpan() { Stop(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Ends the span early and records; the destructor then does nothing.
  /// Returns the elapsed nanoseconds (0 when disarmed or already stopped).
  std::uint64_t Stop() {
    if (!armed_) return 0;
    armed_ = false;
    const std::uint64_t elapsed_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
    if (histogram_ != nullptr) histogram_->Record(elapsed_ns);
    if (open_) {
      trace_->CloseSpan(span_index_, elapsed_ns);
    } else if (trace_ == nullptr && stage_ != nullptr) {
      SpanCollector& collector = SpanCollector::Global();
      if (collector.enabled()) {
        SpanRecord record;
        record.name = stage_;
        record.span_id = NextSpanId();
        record.start_ns = StartNs();
        record.duration_ns = elapsed_ns;
        collector.Record(std::move(record));
      }
    }
    return elapsed_ns;
  }

 private:
  std::uint64_t StartNs() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            start_.time_since_epoch())
            .count());
  }

  Histogram* histogram_;
  Trace* trace_;
  const char* stage_;
  std::chrono::steady_clock::time_point start_;
  std::size_t span_index_ = 0;
  bool armed_ = false;
  bool open_ = false;
};

}  // namespace subex

#endif  // SUBEX_OBS_TRACE_H_
