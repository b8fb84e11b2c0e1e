#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <unordered_map>

namespace perfbench {
namespace {

// The innermost open span of this thread, its op, and the time its
// finished children have covered so far (for in-flight self time).
thread_local std::uint64_t tl_parent = 0;
thread_local std::uint64_t tl_op = 0;
thread_local std::int64_t tl_child_ns = 0;

std::atomic<double> g_detect_delay{0.0};

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kRoot: return "root";
    case Layer::kCore: return "core";
    case Layer::kExplain: return "explain";
    case Layer::kServe: return "serve";
    case Layer::kDetect: return "detect";
    case Layer::kNet: return "net";
    case Layer::kCount: break;
  }
  return "?";
}

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder recorder;
  return recorder;
}

SpanRecorder::Buffer& SpanRecorder::ThreadBuffer() {
  // The shared_ptr keeps a finished thread's spans alive until TakeAll.
  thread_local std::shared_ptr<Buffer> buffer;
  if (buffer == nullptr) {
    buffer = std::make_shared<Buffer>();
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(buffer);
  }
  return *buffer;
}

void SpanRecorder::Record(const Span& span) {
  ThreadBuffer().spans.push_back(span);
}

std::vector<Span> SpanRecorder::TakeAll() {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const std::shared_ptr<Buffer>& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
  }
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return all;
}

const char* Intern(const std::string& name) {
  static std::mutex mutex;
  static std::deque<std::string> names;
  std::lock_guard<std::mutex> lock(mutex);
  for (const std::string& existing : names) {
    if (existing == name) return existing.c_str();
  }
  names.push_back(name);
  return names.back().c_str();
}

std::uint32_t ThreadNumber() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t number = next.fetch_add(1) + 1;
  return number;
}

void SetDetectDelay(double fraction) { g_detect_delay.store(fraction); }

void SpinUntil(std::int64_t until_ns) {
  while (NowNs() < until_ns) {
  }
}

ScopedSpan::ScopedSpan(Layer layer, const char* name, bool new_op,
                       std::int64_t start_ns) {
  SpanRecorder& recorder = SpanRecorder::Get();
  recording_ = recorder.recording();
  if (layer == Layer::kDetect) {
    delay_ = g_detect_delay.load(std::memory_order_relaxed);
  }
  if (!recording_ && delay_ == 0.0) return;
  timing_ = true;
  span_.layer = layer;
  span_.name = name;
  saved_parent_ = tl_parent;
  saved_op_ = tl_op;
  saved_child_ns_ = tl_child_ns;
  tl_child_ns = 0;
  if (recording_) {
    span_.id = recorder.NextId();
    span_.parent = tl_parent != 0 ? tl_parent
                                  : recorder.cross_thread_parent.load(
                                        std::memory_order_relaxed);
    span_.op = (new_op || tl_op == 0) ? span_.id : tl_op;
    span_.thread = ThreadNumber();
    tl_parent = span_.id;
    tl_op = span_.op;
  }
  span_.start_ns = start_ns != 0 ? start_ns : NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!timing_) return;
  std::int64_t end = NowNs();
  if (delay_ > 0.0) {
    const std::int64_t self = (end - span_.start_ns) - tl_child_ns;
    end += static_cast<std::int64_t>(delay_ * static_cast<double>(self));
    SpinUntil(end);
  }
  span_.end_ns = end;
  if (recording_) {
    SpanRecorder::Get().Record(span_);
    tl_parent = saved_parent_;
    tl_op = saved_op_;
  }
  tl_child_ns = saved_child_ns_ + (end - span_.start_ns);
}

TimedDetector::TimedDetector(const subex::Detector& inner)
    : inner_(inner), span_name_(Intern(inner.name())) {}

std::vector<double> TimedDetector::Score(const subex::Dataset& data,
                                         const subex::Subspace& subspace) const {
  std::vector<double> scores;
  {
    ScopedSpan span(Layer::kDetect, span_name_);
    scores = inner_.Score(data, subspace);
  }
  if (SpanRecorder::Get().recording()) {
    // The data's shape and corner values stand in for its identity: an
    // online window that moved is new data, not a recompute.
    const std::size_t n = data.num_points();
    char corners[96] = "";
    if (n > 0 && data.num_features() > 0) {
      const auto last = static_cast<subex::FeatureId>(data.num_features() - 1);
      std::snprintf(corners, sizeof corners, "%zu:%a:%a:", n, data.Value(0, 0),
                    data.Value(n - 1, last));
    }
    std::string key = corners;
    key += subspace.ToString();
    std::lock_guard<std::mutex> lock(mutex_);
    ++computes_;
    if (!seen_.insert(std::move(key)).second) ++recomputes_;
  }
  return scores;
}

std::uint64_t TimedDetector::computes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return computes_;
}

std::uint64_t TimedDetector::recomputes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recomputes_;
}

std::vector<double> TimedLookup::Score(const subex::Dataset& data,
                                       const subex::Subspace& subspace) const {
  static const char* const kName = Intern("lookup");
  ScopedSpan span(Layer::kServe, kName);
  return inner_.Score(data, subspace);
}

TimedExplainer::TimedExplainer(const subex::PointExplainer& inner)
    : inner_(inner), span_name_(Intern(inner.name())) {}

subex::RankedSubspaces TimedExplainer::Explain(const subex::Dataset& data,
                                               const subex::Detector& detector,
                                               int point,
                                               int target_dim) const {
  subex::RankedSubspaces ranking;
  {
    ScopedSpan span(Layer::kExplain, span_name_, /*new_op=*/true);
    const TimedLookup lookup(detector);
    ranking = inner_.Explain(data, lookup, point, target_dim);
  }
  if (sink_) sink_(point, ranking);
  return ranking;
}

TimedSummarizer::TimedSummarizer(const subex::Summarizer& inner)
    : inner_(inner), span_name_(Intern(inner.name())) {}

subex::RankedSubspaces TimedSummarizer::Summarize(
    const subex::Dataset& data, const subex::Detector& detector,
    const std::vector<int>& points, int target_dim) const {
  subex::RankedSubspaces ranking;
  {
    ScopedSpan span(Layer::kExplain, span_name_, /*new_op=*/true);
    const TimedLookup lookup(detector);
    ranking = inner_.Summarize(data, lookup, points, target_dim);
  }
  if (sink_) sink_(-1, ranking);
  return ranking;
}

namespace {

/// Length of the union of `intervals` clipped to [lo, hi].
std::int64_t CoveredNs(std::vector<std::pair<std::int64_t, std::int64_t>>& intervals,
                       std::int64_t lo, std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t cursor = lo;
  for (const auto& [start, end] : intervals) {
    const std::int64_t s = std::max(start, cursor);
    const std::int64_t e = std::min(end, hi);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

}  // namespace

TraceSummary Summarize(const std::vector<Span>& spans) {
  TraceSummary summary;
  summary.spans = spans.size();
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent == 0) continue;
    const auto it = index.find(span.parent);
    if (it == index.end()) continue;
    children[it->second].emplace_back(span.start_ns, span.end_ns);
    if (span.layer == Layer::kServe &&
        spans[it->second].layer == Layer::kExplain) {
      ++summary.lookups_under_explain;
    }
  }
  double root_ns = 0.0;
  double root_covered_ns = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const std::int64_t duration = span.end_ns - span.start_ns;
    const std::int64_t covered =
        CoveredNs(children[i], span.start_ns, span.end_ns);
    if (span.layer == Layer::kRoot) {
      root_ns += static_cast<double>(duration);
      root_covered_ns += static_cast<double>(covered);
      continue;
    }
    LayerTotals& totals = summary.layers[static_cast<int>(span.layer)];
    const double ms = static_cast<double>(duration) * 1e-6;
    ++totals.calls;
    totals.busy_ms += ms;
    totals.self_ms += static_cast<double>(duration - covered) * 1e-6;
    totals.call_ms.push_back(ms);
    totals.busy_ms_by_name[span.name] += ms;
  }
  if (root_ns > 0.0) summary.tiling_gap_ratio = 1.0 - root_covered_ns / root_ns;
  return summary;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "id\tparent\top\tlayer\tname\tthread\tstart_ns\tend_ns\n");
  for (const Span& s : spans) {
    std::fprintf(file, "%llu\t%llu\t%llu\t%s\t%s\t%u\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op), LayerName(s.layer),
                 s.name, s.thread, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
