#ifndef SUBEX_PROF_PERF_COUNTERS_H_
#define SUBEX_PROF_PERF_COUNTERS_H_

#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "obs/registry.h"

namespace subex {

/// One group read of the hardware counters a `PerfCounterGroup` tracks.
/// Members whose event could not be opened (missing PMU, perf denied) read
/// as 0; `valid` is false when no counter at all is live, in which case the
/// whole struct is zeros.
struct PerfCounterValues {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t llc_misses = 0;
  std::uint64_t branch_misses = 0;
  bool valid = false;

  /// Instructions retired per cycle ×1000 (0 when cycles is 0), the
  /// integer form the `Gauge`-based registry can carry.
  std::int64_t IpcMilli() const {
    if (cycles == 0) return 0;
    return static_cast<std::int64_t>(instructions * 1000 / cycles);
  }
  /// LLC misses per 1000 instructions (0 when instructions is 0).
  std::int64_t LlcMissPerKiloInst() const {
    if (instructions == 0) return 0;
    return static_cast<std::int64_t>(llc_misses * 1000 / instructions);
  }
};

/// A per-thread group of `perf_event_open` hardware counters (cycles,
/// instructions, LLC misses, branch misses; userspace only). Construction
/// probes each event and keeps whatever the kernel grants — on a denied
/// syscall (perf_event_paranoid, seccomp) or an absent PMU (VMs, most CI
/// containers) the group degrades to `available() == false` and every
/// `Read()` returns zeros. Counters follow the thread that opened them, so
/// keep the group thread-local (see `ThisThread()`); reads are one
/// `read(2)` of the group leader.
class PerfCounterGroup {
 public:
  PerfCounterGroup();
  ~PerfCounterGroup();
  PerfCounterGroup(const PerfCounterGroup&) = delete;
  PerfCounterGroup& operator=(const PerfCounterGroup&) = delete;

  /// True when at least the cycle counter opened.
  bool available() const { return leader_fd_ >= 0; }
  /// Current group values (monotonic since construction); zeros with
  /// `valid == false` when unavailable.
  PerfCounterValues Read() const;

  /// The calling thread's lazily-opened group.
  static PerfCounterGroup& ThisThread();
  /// Process-wide probe: true when opening a cycle counter succeeds (or
  /// has succeeded once). `SUBEX_PROF_NO_PERF=1` forces false — CI uses it
  /// to exercise the denied path deterministically.
  static bool SupportedOnThisSystem();

 private:
  int leader_fd_ = -1;       // cycles; < 0 when the group is dead.
  int instructions_fd_ = -1;
  int llc_misses_fd_ = -1;
  int branch_misses_fd_ = -1;
  // Position of each member in the PERF_FORMAT_GROUP read buffer, -1 when
  // that event failed to open.
  int slot_instructions_ = -1;
  int slot_llc_misses_ = -1;
  int slot_branch_misses_ = -1;
  int slots_ = 0;
};

/// Pre-resolved registry instruments for one profiled code region (a
/// "kernel"), so the hot path never takes the registry mutex. Construct
/// once (service constructor, bench setup) and hand to `CounterSpan`s.
/// Registration happens even when perf is unavailable — the series exist
/// with value 0, which keeps scrapes and `--require` checks stable across
/// environments.
struct ProfCounterSet {
  Counter* cycles = nullptr;
  Counter* instructions = nullptr;
  Counter* llc_misses = nullptr;
  Counter* branch_misses = nullptr;
  Counter* spans = nullptr;       ///< Completed CounterSpans.
  Gauge* ipc_milli = nullptr;     ///< Cumulative IPC ×1000.
  Gauge* llc_miss_per_kilo_inst = nullptr;  ///< Cumulative misses/kinst.

  /// Instruments named `prof.<metric>.<label>` in `registry` (the global
  /// one by default), e.g. label "detect.LOF" →
  /// `subex_prof_cycles_detect_LOF_total` on /metrics.
  static ProfCounterSet ForKernel(const std::string& label,
                                  MetricsRegistry* registry = nullptr);
};

/// RAII hardware-counter span: snapshots the calling thread's
/// `PerfCounterGroup` at construction and publishes the delta into a
/// `ProfCounterSet` at destruction. Nests freely with `TraceSpan` (and
/// with other `CounterSpan`s — the counters are monotonic, so inner spans
/// simply subtract out of outer ones' wall coverage). When perf is
/// unavailable only the `spans` counter ticks.
class CounterSpan {
 public:
  explicit CounterSpan(const ProfCounterSet* set);
  ~CounterSpan();
  CounterSpan(const CounterSpan&) = delete;
  CounterSpan& operator=(const CounterSpan&) = delete;

 private:
  const ProfCounterSet* set_;
  PerfCounterValues start_;
};

/// Registers the process-level prof gauges (`prof.perf_available`,
/// `prof.sampler_supported`) and sets them from the runtime probes.
/// Idempotent and cheap; called from server startup and bench mains so
/// the series are scrapeable before any span runs.
void RegisterProfProcessMetrics(MetricsRegistry* registry = nullptr);

}  // namespace subex

#endif  // SUBEX_PROF_PERF_COUNTERS_H_
