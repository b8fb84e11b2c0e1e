#ifndef SUBEX_OBS_SPAN_COLLECTOR_H_
#define SUBEX_OBS_SPAN_COLLECTOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace subex {

/// One finished span: a named interval on some thread, keyed into a trace
/// by (trace_id, span_id, parent_id). `start_ns` is steady-clock
/// nanoseconds; exporters convert to wall time through `SteadyToWallNs`.
/// trace_id 0 marks an orphan span recorded outside any request trace.
struct SpanRecord {
  std::string name;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  std::uint32_t tid = 0;  ///< Collector-assigned small thread id.
};

/// Process-unique non-zero trace id: random base mixed with a counter so
/// ids from concurrently started clients don't collide.
std::uint64_t NextTraceId();
/// Process-unique non-zero span id.
std::uint64_t NextSpanId();

/// Converts a steady-clock timestamp (ns) to wall-clock ns using a
/// process-wide anchor captured once; monotonic deltas stay exact.
std::uint64_t SteadyToWallNs(std::uint64_t steady_ns);

/// Process-wide sink for finished spans. Disabled by default — `Record` is
/// one relaxed load and returns. When enabled, each recording thread owns a
/// bounded ring (oldest spans overwritten, overwrites counted as dropped)
/// that grows on demand up to its capacity, so the hot path takes only
/// that thread's uncontended ring mutex.
/// `Snapshot`/`ToChromeTraceJson` gather every ring for export.
class SpanCollector {
 public:
  /// The collector the built-in instrumentation records into.
  static SpanCollector& Global();

  /// Starts collecting; per-thread rings hold `ring_capacity_per_thread`
  /// spans. Re-enabling discards previously collected spans.
  void Enable(std::size_t ring_capacity_per_thread = 4096);
  /// Stops collecting; already-collected spans remain snapshottable.
  void Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Record(SpanRecord record);

  /// Every collected span, ordered by start time.
  std::vector<SpanRecord> Snapshot() const;
  /// Spans overwritten before they could be exported.
  std::uint64_t dropped() const;
  /// Discards collected spans (rings stay registered).
  void Clear();

  /// `{"displayTimeUnit":"ms","traceEvents":[...]}` — Chrome trace-event
  /// JSON ("X" complete events, wall-clock µs timestamps) loadable in
  /// Perfetto / chrome://tracing.
  std::string ToChromeTraceJson() const;

 private:
  struct ThreadRing {
    std::mutex mutex;
    std::vector<SpanRecord> slots;  ///< Valid spans; full once wrapped.
    std::size_t capacity = 0;  ///< Slots the ring may grow to.
    std::size_t next = 0;  ///< Ring write cursor.
    std::uint64_t dropped = 0;
    std::uint32_t tid = 0;
  };

  ThreadRing* RingForThisThread();

  std::atomic<bool> enabled_{false};
  // Bumped on Enable so threads re-register their cached ring.
  std::atomic<std::uint64_t> generation_{0};
  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<ThreadRing>> rings_;
  std::size_t ring_capacity_ = 4096;
  std::uint32_t next_tid_ = 0;
};

}  // namespace subex

#endif  // SUBEX_OBS_SPAN_COLLECTOR_H_
