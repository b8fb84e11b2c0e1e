#include "obs/trace.h"

#include <cstdio>

#include "common/json.h"

namespace subex {

std::size_t Trace::OpenSpan(std::string name, std::uint64_t start_ns) {
  Span span;
  span.name = std::move(name);
  span.span_id = NextSpanId();
  span.parent_id =
      open_stack_.empty() ? 0 : spans_[open_stack_.back()].span_id;
  span.start_ns = start_ns;
  spans_.push_back(std::move(span));
  open_stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Trace::CloseSpan(std::size_t index, std::uint64_t duration_ns) {
  Span& span = spans_[index];
  span.duration_ns = duration_ns;
  if (!open_stack_.empty() && open_stack_.back() == index) {
    open_stack_.pop_back();
  }
  SpanCollector& collector = SpanCollector::Global();
  if (collector.enabled()) {
    SpanRecord record;
    record.name = span.name;
    record.trace_id = trace_id_;
    record.span_id = span.span_id;
    record.parent_id = span.parent_id;
    record.start_ns = span.start_ns;
    record.duration_ns = span.duration_ns;
    collector.Record(std::move(record));
  }
}

void Trace::Record(std::string name, std::uint64_t start_ns,
                   std::uint64_t duration_ns) {
  CloseSpan(OpenSpan(std::move(name), start_ns), duration_ns);
}

void Trace::Clear() {
  spans_.clear();
  open_stack_.clear();
  trace_id_ = 0;
}

std::uint64_t Trace::TotalNs() const {
  std::uint64_t total = 0;
  for (const Span& span : spans_) {
    if (span.parent_id == 0) total += span.duration_ns;
  }
  return total;
}

std::string Trace::ToJson() const {
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%016llx",
                static_cast<unsigned long long>(trace_id_));
  JsonArray spans;
  for (const Span& span : spans_) {
    JsonObject object;
    object.Add("name", span.name)
        .Add("span_id", span.span_id)
        .Add("parent_id", span.parent_id)
        .Add("start_ms", static_cast<double>(span.start_ns) / 1e6)
        .Add("dur_ms", static_cast<double>(span.duration_ns) / 1e6);
    spans.AddRaw(object.Build());
  }
  JsonObject document;
  document.Add("trace_id", hex).AddRaw("spans", spans.Build());
  return document.Build();
}

namespace {
thread_local Trace* t_current_trace = nullptr;
}  // namespace

Trace* CurrentTrace() { return t_current_trace; }

TraceContext::TraceContext(Trace* trace) : previous_(t_current_trace) {
  t_current_trace = trace;
}

TraceContext::~TraceContext() { t_current_trace = previous_; }

void RecordCompletedSpan(const char* name,
                         std::chrono::steady_clock::time_point start,
                         std::uint64_t duration_ns) {
  const std::uint64_t start_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          start.time_since_epoch())
          .count());
  if (Trace* trace = CurrentTrace()) {
    trace->Record(name, start_ns, duration_ns);
    return;
  }
  SpanCollector& collector = SpanCollector::Global();
  if (collector.enabled()) {
    SpanRecord record;
    record.name = name;
    record.span_id = NextSpanId();
    record.start_ns = start_ns;
    record.duration_ns = duration_ns;
    collector.Record(std::move(record));
  }
}

}  // namespace subex
