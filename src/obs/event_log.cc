#include "obs/event_log.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "common/json.h"

namespace subex {

const char* EventSeverityName(EventSeverity severity) {
  switch (severity) {
    case EventSeverity::kDebug:
      return "debug";
    case EventSeverity::kInfo:
      return "info";
    case EventSeverity::kWarn:
      return "warn";
    case EventSeverity::kError:
      return "error";
  }
  return "unknown";
}

std::string EventRecord::ToJsonLine() const {
  JsonObject object;
  object.Add("ts_ms", static_cast<double>(wall_ns) / 1e6)
      .Add("seq", sequence)
      .Add("severity", EventSeverityName(severity))
      .Add("key", key)
      .AddRaw("fields", fields_json.empty() ? "{}" : fields_json);
  return object.Build();
}

namespace {

std::uint64_t WallNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

std::uint64_t SteadyNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

EventLog& EventLog::Global() {
  // Never destructed: emit sites may fire from detached threads at exit.
  static EventLog* log = new EventLog();
  return *log;
}

void EventLog::Configure(EventLogOptions options) {
  std::lock_guard<std::mutex> lock(mutex_);
  options_ = options;
  // New rates apply from a full bucket and the ring restarts at the new
  // capacity — Configure is a startup-time call, losing early events is fine.
  buckets_.clear();
  ring_.clear();
  next_ = 0;
  size_ = 0;
}

bool EventLog::Admit(EventSeverity severity, std::string_view key) {
  (void)severity;
  const std::uint64_t now_ns = SteadyNowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  Bucket& bucket = buckets_[std::string(key)];
  if (!bucket.initialized) {
    bucket.tokens = options_.burst;
    bucket.last_refill_ns = now_ns;
    bucket.initialized = true;
  } else if (options_.tokens_per_second > 0) {
    const double elapsed_s =
        static_cast<double>(now_ns - bucket.last_refill_ns) / 1e9;
    bucket.tokens = std::min(options_.burst,
                             bucket.tokens +
                                 elapsed_s * options_.tokens_per_second);
    bucket.last_refill_ns = now_ns;
  }
  if (bucket.tokens < 1.0) {
    ++suppressed_;
    return false;
  }
  bucket.tokens -= 1.0;
  return true;
}

void EventLog::Append(EventSeverity severity, std::string_view key,
                      std::string fields_json) {
  EventRecord record;
  record.wall_ns = WallNowNs();
  record.severity = severity;
  record.key = std::string(key);
  record.fields_json = std::move(fields_json);
  std::lock_guard<std::mutex> lock(mutex_);
  record.sequence = sequence_++;
  ++emitted_;
  if (ring_.size() < options_.ring_capacity) {
    ring_.push_back(std::move(record));
    ++size_;
    next_ = size_ % options_.ring_capacity;
  } else {
    ring_[next_] = std::move(record);
    next_ = (next_ + 1) % options_.ring_capacity;
  }
}

bool EventLog::Emit(EventSeverity severity, std::string_view key,
                    std::string fields_json) {
  if (!Admit(severity, key)) return false;
  Append(severity, key, std::move(fields_json));
  return true;
}

std::vector<EventRecord> EventLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<EventRecord> events;
  events.reserve(size_);
  const std::size_t capacity = ring_.size();
  if (capacity == 0) return events;
  const std::size_t first = size_ == capacity ? next_ : 0;
  for (std::size_t i = 0; i < size_; ++i) {
    events.push_back(ring_[(first + i) % capacity]);
  }
  return events;
}

std::uint64_t EventLog::emitted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return emitted_;
}

std::uint64_t EventLog::suppressed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return suppressed_;
}

std::string EventLog::ToJson() const {
  std::uint64_t emitted_count;
  std::uint64_t suppressed_count;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    emitted_count = emitted_;
    suppressed_count = suppressed_;
  }
  JsonArray recent;
  for (const EventRecord& event : Snapshot()) {
    recent.AddRaw(event.ToJsonLine());
  }
  JsonObject object;
  object.Add("emitted", emitted_count)
      .Add("suppressed", suppressed_count)
      .AddRaw("recent", recent.Build());
  return object.Build();
}

std::string EventLog::ToJsonLines() const {
  std::string lines;
  for (const EventRecord& event : Snapshot()) {
    lines += event.ToJsonLine();
    lines += '\n';
  }
  return lines;
}

void EventLog::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  buckets_.clear();
  ring_.clear();
  next_ = 0;
  size_ = 0;
  emitted_ = 0;
  suppressed_ = 0;
  sequence_ = 0;
}

SlowRequestCapture::SlowRequestCapture(std::uint64_t threshold_ns,
                                       std::size_t capacity)
    : threshold_ns_(threshold_ns) {
  ring_.resize(capacity == 0 ? 1 : capacity);
}

void SlowRequestCapture::Capture(std::string label, std::uint64_t request_id,
                                 std::uint64_t trace_id,
                                 std::uint64_t total_ns,
                                 std::string trace_json) {
  Entry entry;
  entry.wall_ns = WallNowNs();
  entry.request_id = request_id;
  entry.trace_id = trace_id;
  entry.total_ns = total_ns;
  entry.label = std::move(label);
  entry.trace_json = std::move(trace_json);
  std::lock_guard<std::mutex> lock(mutex_);
  ++captured_;
  ring_[next_] = std::move(entry);
  next_ = (next_ + 1) % ring_.size();
  if (size_ < ring_.size()) ++size_;
}

std::uint64_t SlowRequestCapture::captured() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return captured_;
}

std::string SlowRequestCapture::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  JsonArray recent;
  char hex[32];
  const std::size_t capacity = ring_.size();
  const std::size_t first = size_ == capacity ? next_ : 0;
  for (std::size_t i = 0; i < size_; ++i) {
    const Entry& entry = ring_[(first + i) % capacity];
    std::snprintf(hex, sizeof(hex), "0x%016llx",
                  static_cast<unsigned long long>(entry.trace_id));
    JsonObject object;
    object.Add("ts_ms", static_cast<double>(entry.wall_ns) / 1e6)
        .Add("label", entry.label)
        .Add("request_id", entry.request_id)
        .Add("trace_id", hex)
        .Add("total_ms", static_cast<double>(entry.total_ns) / 1e6)
        .AddRaw("trace", entry.trace_json.empty() ? "{}" : entry.trace_json);
    recent.AddRaw(object.Build());
  }
  JsonObject object;
  object.Add("threshold_ms", static_cast<double>(threshold_ns_) / 1e6)
      .Add("captured", captured_)
      .AddRaw("recent", recent.Build());
  return object.Build();
}

}  // namespace subex
