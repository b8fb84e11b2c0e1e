#ifndef SUBEX_OBS_EVENT_LOG_H_
#define SUBEX_OBS_EVENT_LOG_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace subex {

enum class EventSeverity : std::uint8_t { kDebug = 0, kInfo, kWarn, kError };

const char* EventSeverityName(EventSeverity severity);

/// One structured event: a machine-greppable key ("serve.busy",
/// "mem.overcommit"), a severity, a wall-clock timestamp and a free-form
/// JSON-object payload of fields.
struct EventRecord {
  std::uint64_t wall_ns = 0;
  std::uint64_t sequence = 0;
  EventSeverity severity = EventSeverity::kInfo;
  std::string key;
  std::string fields_json;  ///< A JSON object, "{}" when field-less.

  /// One JSON-lines record:
  /// `{"ts_ms":..,"seq":..,"severity":"warn","key":"serve.busy","fields":{..}}`.
  std::string ToJsonLine() const;
};

struct EventLogOptions {
  std::size_t ring_capacity = 1024;  ///< Most recent events retained.
  /// Token-bucket refill rate per event key; 0 disables refill so only the
  /// initial `burst` ever passes (deterministic for tests).
  double tokens_per_second = 10.0;
  double burst = 20.0;  ///< Bucket depth: events admitted back-to-back.
};

/// Bounded, rate-limited structured log for the events metrics can't carry
/// (why was *this* connection dropped?). The hot path is the two-phase
/// `Admit` (token-bucket check; suppressed events are only counted) then
/// `Append` — callers build the fields JSON only after admission, which is
/// what the `SUBEX_EVENT` macro packages. Events land in one in-memory
/// ring, surfaced through `kStats` as JSON and exportable as JSON lines.
/// Thread-safe; one mutex, touched only when an event actually fires.
class EventLog {
 public:
  /// The process-wide log every built-in emit site uses.
  static EventLog& Global();

  EventLog() = default;
  explicit EventLog(EventLogOptions options) : options_(options) {}

  /// Replaces options; the ring and rate-limiter buckets restart empty
  /// (emitted/suppressed totals stay).
  void Configure(EventLogOptions options);

  /// True when an event for `key` passes its rate limit; consumes a token.
  /// On false the event is counted as suppressed and must not be appended.
  bool Admit(EventSeverity severity, std::string_view key);
  /// Unconditionally appends (call only after a true `Admit`).
  /// `fields_json` must be a JSON object.
  void Append(EventSeverity severity, std::string_view key,
              std::string fields_json);
  /// `Admit` + `Append` in one call; returns whether the event was kept.
  bool Emit(EventSeverity severity, std::string_view key,
            std::string fields_json = "{}");

  std::vector<EventRecord> Snapshot() const;
  std::uint64_t emitted() const;
  std::uint64_t suppressed() const;

  /// `{"emitted":..,"suppressed":..,"recent":[{..},...]}` (oldest first).
  std::string ToJson() const;
  /// One `EventRecord::ToJsonLine` per line, oldest first.
  std::string ToJsonLines() const;

  /// Drops events and counters; rate-limiter buckets reset too.
  void Clear();

 private:
  struct Bucket {
    double tokens = 0;
    std::uint64_t last_refill_ns = 0;
    bool initialized = false;
  };

  mutable std::mutex mutex_;
  EventLogOptions options_;
  std::unordered_map<std::string, Bucket> buckets_;
  std::vector<EventRecord> ring_;
  std::size_t next_ = 0;
  std::size_t size_ = 0;
  std::uint64_t emitted_ = 0;
  std::uint64_t suppressed_ = 0;
  std::uint64_t sequence_ = 0;
};

/// Retains the full span breakdown of requests slower than a threshold —
/// the bridge from "p99 is high" to "this request spent 80 ms in
/// detect.score". Bounded ring, newest kept. Thread-safe.
class SlowRequestCapture {
 public:
  SlowRequestCapture(std::uint64_t threshold_ns, std::size_t capacity);

  /// Stores the trace's JSON when `total_ns` crosses the threshold.
  /// `trace_json` is `Trace::ToJson()` output, captured lazily by the
  /// caller only on admission via the returned decision of `WouldCapture`.
  bool WouldCapture(std::uint64_t total_ns) const {
    return total_ns >= threshold_ns_;
  }
  void Capture(std::string label, std::uint64_t request_id,
               std::uint64_t trace_id, std::uint64_t total_ns,
               std::string trace_json);

  std::uint64_t captured() const;

  /// `{"threshold_ms":..,"captured":..,"recent":[{"label":..,
  ///   "request_id":..,"trace_id":"0x..","total_ms":..,"trace":{..}},..]}`.
  std::string ToJson() const;

 private:
  struct Entry {
    std::uint64_t wall_ns = 0;
    std::uint64_t request_id = 0;
    std::uint64_t trace_id = 0;
    std::uint64_t total_ns = 0;
    std::string label;
    std::string trace_json;
  };

  const std::uint64_t threshold_ns_;
  mutable std::mutex mutex_;
  std::vector<Entry> ring_;
  std::size_t next_ = 0;
  std::size_t size_ = 0;
  std::uint64_t captured_ = 0;
};

/// Emit-site macro: evaluates `fields_expr` (a JSON-object string) only
/// when the event passes its rate limit.
#define SUBEX_EVENT(severity, key, fields_expr)                     \
  do {                                                              \
    ::subex::EventLog& subex_event_log = ::subex::EventLog::Global(); \
    if (subex_event_log.Admit((severity), (key))) {                 \
      subex_event_log.Append((severity), (key), (fields_expr));     \
    }                                                               \
  } while (0)

}  // namespace subex

#endif  // SUBEX_OBS_EVENT_LOG_H_
