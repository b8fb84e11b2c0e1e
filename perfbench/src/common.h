// Shared pieces of the workloads: run configuration, the phase result the
// workloads fill in, percentile helpers and the open/closed-loop load
// generators.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "trace.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the run's files (WAL, span dump); inside the checkout.
  std::string work_dir;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one measured phase of a workload produced.
struct PhaseResult {
  std::map<std::string, Metric> metrics;  // end-to-end and layer metrics
  /// The end-to-end metric `trace.overhead_ratio` compares between the
  /// untraced and the traced phase: `cpu_ms_per_op`, so traced / untraced
  /// >= 1 means overhead.
  double primary = 0.0;
  /// Operations the layer totals are divided by ("per operation" metrics).
  double ops = 0.0;
  /// Size of the `ThreadPool` explanations run on (`core.pool_utilization`).
  int pool_threads = 0;
  /// Detector whose `detect` spans are the online re-index
  /// (`online.reindex_busy_ms`); empty when the workload has none.
  std::string reindex_detector;
  /// Samples behind `p50_ms` / `p99_ms`.
  std::size_t latency_samples = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Output checks run and failed (a failed check also counts in `failed`).
  std::uint64_t checks = 0;
  std::uint64_t check_failures = 0;
  std::vector<std::string> defects;  // one line per failure kind seen
  /// Counts from the `detect` wrappers, for `mem.recompute_ratio`.
  std::uint64_t detect_computes = 0;
  std::uint64_t detect_recomputes = 0;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Fail(const std::string& what) {
    ++failed;
    if (std::find(defects.begin(), defects.end(), what) == defects.end()) {
      defects.push_back(what);
    }
  }
  void Check(bool ok, const std::string& what) {
    ++checks;
    ++attempted;
    if (!ok) {
      ++check_failures;
      Fail("output check failed: " + what);
    }
  }
};

/// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
double Quantile(std::vector<double>& values, double q);
double Median(std::vector<double> values);

/// Peak resident set size of this process, MB, since the last
/// ResetPeakRss.
double PeakRssMb();
/// Restarts the peak at the current resident set size (Linux
/// /proc/self/clear_refs; without it the peak keeps counting from process
/// start). Workloads call it once set-up is done, so `rss_mb` is the peak
/// of the measured phase, whatever the number of set-up repetitions.
void ResetPeakRss();

double MsBetween(std::int64_t from_ns, std::int64_t to_ns);

/// Sleeps until `until_ns`. No spinning: load threads must not take the
/// cores the server under test runs on; the wake-up delay shows up in
/// `gen.late_p99_ms` instead.
void SleepUntil(std::int64_t until_ns);

/// CPU time used so far by every thread of this process, in nanoseconds
/// (CLOCK_PROCESS_CPUTIME_ID). The gated time metrics are differences of
/// it: on a shared host a vCPU the host takes away stops this clock but not
/// the wall clock, so CPU time repeats where wall time follows the
/// neighbours' load. The benchmark runs no thread of its own that spins.
std::int64_t CpuNs();

/// Keeps at most `capacity` items of a stream, each with equal chance
/// (reservoir sampling), so the replies kept for the output checks span the
/// whole run without memory growing with throughput.
template <class T>
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed)
      : capacity_(capacity), state_(seed | 1) {}

  /// Whether the next item of the stream should be kept; if so, `slot()`
  /// says where.
  bool Offer() {
    ++seen_;
    if (items_.size() < capacity_) {
      slot_ = items_.size();
      items_.emplace_back();
      return true;
    }
    state_ ^= state_ << 13;  // xorshift64
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    slot_ = static_cast<std::size_t>(state_ % seen_);
    return slot_ < capacity_;
  }
  T& slot() { return items_[slot_]; }
  std::vector<T>& items() { return items_; }

 private:
  std::size_t capacity_;
  std::uint64_t state_;
  std::uint64_t seen_ = 0;
  std::size_t slot_ = 0;
  std::vector<T> items_;
};

/// Per-request outcome of a load generator.
struct LoadResult {
  std::vector<double> latency_ms;  // successful requests only
  std::vector<double> late_ms;     // open loop: send time - due time
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;
};

/// Adds `from`'s counts, wall time and lateness to `into` (one phase
/// measured in several slices). Latencies are not copied: each slice's go
/// to a SliceStats, so memory does not grow with throughput.
void Append(LoadResult* into, const LoadResult& from);

/// Open loop: request `i` is due at start + i / rate, whatever happened to
/// earlier ones. The workers take the next due request in order, so a stall
/// delays later requests and that delay is counted: latency runs from the
/// due time, and `late_ms` records how late each was sent. There is one
/// worker per thread of `pool`, or, with no pool, the calling thread alone.
/// `issue(worker, i, due_ns)` sends request i on the worker's own
/// connection and returns whether it succeeded.
template <class Issue>
LoadResult RunOpenLoop(subex::ThreadPool* pool, double rate, double seconds,
                       Issue&& issue) {
  static const char* const kRootName = Intern("request");
  const std::int64_t start = NowNs() + 1'000'000;  // let workers reach it
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  const double interval_ns = 1e9 / rate;
  std::atomic<std::uint64_t> next{0};
  std::vector<LoadResult> per_worker(pool != nullptr ? pool->num_threads() : 1);
  auto work = [&](int w) {
    LoadResult& out = per_worker[static_cast<std::size_t>(w)];
    for (;;) {
      const std::uint64_t i = next.fetch_add(1);
      const std::int64_t due =
          start + static_cast<std::int64_t>(static_cast<double>(i) * interval_ns);
      if (due >= end) break;
      SleepUntil(due);
      const std::int64_t sent = NowNs();
      bool ok = false;
      {
        ScopedSpan root(Layer::kRoot, kRootName, /*new_op=*/true, due);
        ok = issue(w, i, due);
      }
      const std::int64_t done = NowNs();
      ++out.attempted;
      out.late_ms.push_back(MsBetween(due, sent));
      if (ok) {
        out.latency_ms.push_back(MsBetween(due, done));
      } else {
        ++out.failed;
      }
    }
  };
  if (pool == nullptr) {
    work(0);
  } else {
    for (std::size_t w = 0; w < per_worker.size(); ++w) {
      pool->Submit([&work, w] { work(static_cast<int>(w)); });
    }
    pool->Wait();
  }
  LoadResult all;
  for (LoadResult& r : per_worker) {
    all.latency_ms.insert(all.latency_ms.end(), r.latency_ms.begin(),
                          r.latency_ms.end());
    Append(&all, r);
  }
  all.wall_s = MsBetween(start, std::max(end, NowNs())) * 1e-3;
  return all;
}

/// Closed loop: each of the pool's threads sends its next request only
/// when the previous reply arrived; latency runs from the send.
/// `issue(client, i)` sends the client's i-th request of this call.
template <class Issue>
LoadResult RunClosedLoop(subex::ThreadPool& pool, double seconds,
                         Issue&& issue) {
  static const char* const kRootName = Intern("request");
  const std::int64_t start = NowNs();
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<LoadResult> per_client(pool.num_threads());
  for (std::size_t c = 0; c < per_client.size(); ++c) {
    pool.Submit([&, c] {
      LoadResult& out = per_client[c];
      for (std::uint64_t i = 0; NowNs() < end; ++i) {
        const std::int64_t sent = NowNs();
        bool ok = false;
        {
          ScopedSpan root(Layer::kRoot, kRootName, /*new_op=*/true);
          ok = issue(static_cast<int>(c), i);
        }
        ++out.attempted;
        if (ok) {
          out.latency_ms.push_back(MsBetween(sent, NowNs()));
        } else {
          ++out.failed;
        }
      }
    });
  }
  pool.Wait();
  LoadResult all;
  for (LoadResult& r : per_client) {
    all.latency_ms.insert(all.latency_ms.end(), r.latency_ms.begin(),
                          r.latency_ms.end());
    Append(&all, r);
  }
  all.wall_s = MsBetween(start, NowNs()) * 1e-3;
  return all;
}

/// Figures of a phase measured in slices. The slices' latencies, slice
/// after slice, are cut into windows of `kMinWindowSamples`, so each
/// window's p99 has ten or more samples beyond it. The phase reports the
/// median over windows of each window's p50/p99, and the median over slices
/// of the closed-loop rate: a stall that hits most windows moves the
/// figure, while one burst of host preemption in a single window does not.
struct SliceStats {
  static constexpr std::size_t kMinWindowSamples = 1000;

  /// Adds one slice's latencies. Only the last two windows' latencies are
  /// kept, so memory does not grow with throughput.
  void AddLatencies(const std::vector<double>& latency_ms);
  std::size_t samples() const { return samples_; }
  void AddRate(const LoadResult& closed);
  /// Adds one slice's CPU time (CpuNs difference) and the operations it
  /// completed; `cpu_ms_per_op` is the median over slices.
  void AddCpu(std::int64_t cpu_ns, double ops);
  /// Sets the windowed p50/p99 (named `p50_name`/`p99_name`),
  /// capacity_rps/batch_s (seconds per 1000 requests at capacity) and
  /// cpu_ms_per_op for the figures this object holds.
  void AddTo(PhaseResult* out, const char* p50_name = "p50_ms",
             const char* p99_name = "p99_ms") const;

 private:
  std::size_t samples_ = 0;
  std::vector<double> p50_, p99_;  // of every window before `full_`
  std::vector<double> full_;  // last full window; a short remainder joins it
  std::vector<double> open_;  // the window being filled
  std::vector<double> rate_;
  std::vector<double> cpu_ms_per_op_;
};

/// Open-loop generator metrics: `gen.late_p99_ms` and `gen.behind_ratio`
/// (share of requests sent more than 1 ms after they were due).
void AddGeneratorMetrics(LoadResult& load, PhaseResult* out);

/// `net.*` metrics of a served phase: mean client round trip, the
/// registry's `serve.queue_wait` / `serve.request` / `net.write`
/// histograms and byte counters (reset when the phase began), and the
/// server's busy rejections during the phase.
void AddNetMetrics(double rtt_mean_ms, double requests,
                   std::uint64_t busy_rejections, PhaseResult* out);

/// CPU time of the repeated set-ups (CpuNs differences), in seconds. Each
/// workload sets up a fixed number of times, chosen so that set-up takes
/// about a second on a 4-vCPU x86-64 VM; `setup_s` is the median. The
/// count is fixed rather than time-bound so that anything a set-up leaves
/// behind (it shows in `rss_mb`) does not grow when set-up gets faster.
struct SetupTimes {
  explicit SetupTimes(std::size_t repeats) : repeats(repeats) {}
  std::size_t repeats;
  std::vector<double> total_s, data_s, warmup_s;
  bool Again() const { return total_s.size() < repeats; }
  void AddTo(PhaseResult* out) const;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
