// In-memory span recorder and the layer wrappers the benchmark installs
// around the program's own interfaces (`Detector`, `PointExplainer`,
// `Summarizer`). Nothing here reaches into the program: every span is taken
// around a call the program already makes through one of those interfaces,
// or around a call the benchmark itself makes (pipelines, client round
// trips).
//
// With recording off (end-to-end runs) a wrapper forwards straight to the
// wrapped object; the extra work is a few relaxed atomic loads. The
// injected `detect` delay (the sensitivity self-check) applies in both modes.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "detect/detector.h"
#include "explain/point_explainer.h"
#include "explain/summarizer.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// The layers spans are attributed to. `kRoot` is the benchmark's own
/// operation (a grid pass, a request from its due time, an online query);
/// the others are named after the `src/` module whose public interface the
/// span surrounds.
enum class Layer : std::uint8_t {
  kRoot,
  kCore,     // RunPointExplanationPipeline / RunSummarizationPipeline
  kExplain,  // PointExplainer::Explain / Summarizer::Summarize
  kServe,    // score lookups through the Detector& an explainer receives
  kDetect,   // the raw detector's Score
  kNet,      // one client round trip
  kCount,
};

const char* LayerName(Layer layer);

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = none
  std::uint64_t op = 0;      // shared by the spans of one request/explanation
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  const char* name = "";     // interned; stable for the process lifetime
  std::uint32_t thread = 0;
  Layer layer = Layer::kRoot;
};

/// Process-wide recorder: per-thread append-only buffers, merged when the
/// run ends (callers guarantee no thread is still recording by then).
class SpanRecorder {
 public:
  static SpanRecorder& Get();

  bool recording() const { return recording_.load(std::memory_order_relaxed); }
  void SetRecording(bool on) { recording_.store(on, std::memory_order_relaxed); }

  std::uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Record(const Span& span);
  /// Moves every buffered span out (all threads), oldest id first.
  std::vector<Span> TakeAll();

  /// Parent for spans opened on threads that have no open span of their
  /// own (pool workers running the points of the current pipeline call).
  std::atomic<std::uint64_t> cross_thread_parent{0};

 private:
  struct Buffer {
    std::vector<Span> spans;
  };
  Buffer& ThreadBuffer();

  std::atomic<bool> recording_{false};
  std::atomic<std::uint64_t> next_id_{0};
  std::mutex mutex_;
  std::vector<std::shared_ptr<Buffer>> buffers_;
};

/// Interns `name` so spans can carry a stable `const char*`.
const char* Intern(const std::string& name);

/// Small sequential thread number for span records.
std::uint32_t ThreadNumber();

/// Injected per-call delay of the `detect` layer, as a fraction of each
/// call's measured duration (0 = off). Only the sensitivity self-check sets
/// it.
void SetDetectDelay(double fraction);
/// Busy-waits until `until_ns` (a spin keeps the delay on the CPU, like
/// the layer's own work).
void SpinUntil(std::int64_t until_ns);

/// RAII span. Records only while the recorder is on; a `detect` span applies
/// the injected delay either way. `new_op` starts a new operation id (one
/// explanation, one request); otherwise the thread's current op carries on.
/// `start_ns` backdates the start (an open-loop request starts at its due
/// time); 0 means now.
class ScopedSpan {
 public:
  ScopedSpan(Layer layer, const char* name, bool new_op = false,
             std::int64_t start_ns = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }

 private:
  Span span_;
  bool recording_ = false;
  bool timing_ = false;
  double delay_ = 0.0;
  std::uint64_t saved_parent_ = 0;
  std::uint64_t saved_op_ = 0;
  std::int64_t saved_child_ns_ = 0;
};

/// `detect` wrapper around a raw detector handed to the program. Forwards
/// `name()` and `ReturnsStandardizedScores()`, so cache keys and result bits
/// do not change. While recording, it also logs which subspaces were
/// computed, for `mem.recompute_ratio`.
class TimedDetector final : public subex::Detector {
 public:
  explicit TimedDetector(const subex::Detector& inner);
  std::string name() const override { return inner_.name(); }
  bool ReturnsStandardizedScores() const override {
    return inner_.ReturnsStandardizedScores();
  }
  std::vector<double> Score(const subex::Dataset& data,
                            const subex::Subspace& subspace) const override;

  /// Fresh computations logged while recording, and how many of them were
  /// of a subspace this wrapper had computed before.
  std::uint64_t computes() const;
  std::uint64_t recomputes() const;

 private:
  const subex::Detector& inner_;
  const char* span_name_;
  mutable std::mutex mutex_;
  mutable std::unordered_set<std::string> seen_;
  mutable std::uint64_t computes_ = 0;
  mutable std::uint64_t recomputes_ = 0;
};

/// `serve` wrapper around the `Detector&` an explainer receives (a
/// `CachingDetector` over a `ScoringService`): one span per score lookup.
class TimedLookup final : public subex::Detector {
 public:
  explicit TimedLookup(const subex::Detector& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  bool ReturnsStandardizedScores() const override {
    return inner_.ReturnsStandardizedScores();
  }
  std::vector<double> Score(const subex::Dataset& data,
                            const subex::Subspace& subspace) const override;

 private:
  const subex::Detector& inner_;
};

/// Optional sink for the rankings an explainer wrapper produced (the
/// output checks compare cached and direct paths). Keyed by point; a
/// summarizer stores its single ranking under -1.
using RankingSink =
    std::function<void(int point, const subex::RankedSubspaces& ranking)>;

/// `explain` wrapper around a point explainer; every call is one
/// explanation (a new op id) and its score lookups are `serve` spans.
class TimedExplainer final : public subex::PointExplainer {
 public:
  explicit TimedExplainer(const subex::PointExplainer& inner);
  std::string name() const override { return inner_.name(); }
  subex::RankedSubspaces Explain(const subex::Dataset& data,
                                 const subex::Detector& detector, int point,
                                 int target_dim) const override;
  /// Installs (or, with an empty function, removes) the ranking sink. Not
  /// thread-safe against concurrent `Explain`; the sink itself must be.
  void set_sink(RankingSink sink) { sink_ = std::move(sink); }

 private:
  const subex::PointExplainer& inner_;
  const char* span_name_;
  RankingSink sink_;
};

/// `explain` wrapper around a summarizer.
class TimedSummarizer final : public subex::Summarizer {
 public:
  explicit TimedSummarizer(const subex::Summarizer& inner);
  std::string name() const override { return inner_.name(); }
  subex::RankedSubspaces Summarize(const subex::Dataset& data,
                                   const subex::Detector& detector,
                                   const std::vector<int>& points,
                                   int target_dim) const override;
  void set_sink(RankingSink sink) { sink_ = std::move(sink); }

 private:
  const subex::Summarizer& inner_;
  const char* span_name_;
  RankingSink sink_;
};

/// Per-layer totals computed from a run's spans.
struct LayerTotals {
  std::uint64_t calls = 0;
  double busy_ms = 0.0;  // sum of span durations
  double self_ms = 0.0;  // sum of durations minus the time children cover
  std::vector<double> call_ms;  // per-span durations
  std::map<std::string, double> busy_ms_by_name;
};

struct TraceSummary {
  LayerTotals layers[static_cast<int>(Layer::kCount)];
  /// Share of the roots' time covered by no layer span (0 when no roots).
  double tiling_gap_ratio = 0.0;
  /// Score lookups (`serve` spans) whose parent is an `explain` span.
  std::uint64_t lookups_under_explain = 0;
  std::size_t spans = 0;

  const LayerTotals& at(Layer layer) const {
    return layers[static_cast<int>(layer)];
  }
};

/// Self times, per-layer totals and the tiling gap of `spans`.
TraceSummary Summarize(const std::vector<Span>& spans);

/// Writes `spans` as tab-separated lines (id, parent, op, layer, name,
/// thread, start_ns, end_ns). Returns false when the file cannot be written.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
