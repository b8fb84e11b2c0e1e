#ifndef SUBEX_PROF_SAMPLING_PROFILER_H_
#define SUBEX_PROF_SAMPLING_PROFILER_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace subex {

/// Knobs of one profiling session.
struct SamplingProfilerOptions {
  /// SIGPROF delivery rate per registered thread. 97 (a prime, so the
  /// timer never phase-locks with millisecond-periodic work) keeps the
  /// enabled-but-idle overhead well under the 2% budget.
  int sample_hz = 97;
  /// Deepest stack recorded per sample; deeper frames are truncated at
  /// the leaf end (the root-side frames are the ones flamegraphs need).
  std::size_t max_stack_depth = 32;
  /// Samples retained per thread. The ring is fill-once (no wraparound —
  /// overwriting racing the exporter is not worth a seqlock); once full,
  /// further samples tick the drop counter. 4096 at 97 Hz ≈ 42 s of
  /// capture per thread between `Clear()`s.
  std::size_t ring_capacity = 4096;
};

/// Wall-clock sampling profiler: every registered thread gets a
/// `timer_create(CLOCK_MONOTONIC, SIGEV_THREAD_ID)` POSIX timer delivering
/// SIGPROF at `sample_hz`; the async-signal-safe handler captures a
/// `backtrace()` into that thread's bounded ring. `ToCollapsedText()`
/// symbolizes (dladdr + demangle — link with `-rdynamic` so static
/// executables resolve their own symbols) and aggregates into collapsed
/// flamegraph lines (`frame;frame;frame count`).
///
/// Thread coverage: `Start()` sweeps `/proc/self/task` and attaches a
/// timer to every thread alive at that moment; `ThreadPool` workers
/// additionally register/unregister through the `common` thread lifecycle
/// hooks (installed by this translation unit), so pools created *after*
/// `Start()` are sampled too. Other threads spawned later can opt in with
/// `RegisterCurrentThread()`.
///
/// Degradation: when `timer_create` with SIGEV_THREAD_ID is unavailable
/// (exotic kernels, `SUBEX_PROF_NO_TIMER=1`), `Start()` returns false with
/// an explanation and the profiler stays a no-op — callers keep working,
/// dumps are empty.
class SamplingProfiler {
 public:
  /// The process-wide profiler (one SIGPROF disposition per process, so
  /// one profiler per process).
  static SamplingProfiler& Global();

  /// Arms timers for every known thread. False + `*error` when sampling
  /// is unsupported or already running. Previously collected samples are
  /// kept (call `Clear()` for a fresh capture).
  bool Start(const SamplingProfilerOptions& options = {},
             std::string* error = nullptr);
  /// Disarms and deletes all timers; samples stay readable.
  void Stop();
  bool running() const;

  /// Attach (create a timer for) the calling thread. A no-op while
  /// stopped — `Start()`'s process sweep covers threads that already
  /// exist. Idempotent per thread.
  void RegisterCurrentThread();
  /// Detach the calling thread (its collected samples are kept).
  void UnregisterCurrentThread();

  /// True when this kernel can deliver per-thread SIGPROF timers
  /// (`SUBEX_PROF_NO_TIMER=1` forces false).
  static bool SupportedOnThisSystem();

  std::uint64_t samples() const;        ///< Stacks captured since Clear().
  std::uint64_t dropped() const;        ///< Samples lost to full rings.
  int sample_hz() const;                ///< 0 when not running.

  /// Collapsed-stack flamegraph text, one `frame;frame;... count` line per
  /// distinct stack, root-first, highest count first, newline-terminated.
  /// Empty string when nothing was captured.
  std::string ToCollapsedText() const;
  /// Drops all captured samples and resets the sample/drop counters.
  void Clear();

 private:
  SamplingProfiler() = default;
};

}  // namespace subex

#endif  // SUBEX_PROF_SAMPLING_PROFILER_H_
