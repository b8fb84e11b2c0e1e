#ifndef SUBEX_OBS_METRICS_H_
#define SUBEX_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace subex {

/// Monotonic event counter. `Increment` is one relaxed fetch_add — cheap
/// enough for per-byte accounting on the network hot path.
class Counter {
 public:
  void Increment(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (open connections, queue depth): settable and
/// relatively adjustable, may go negative transiently under relaxed
/// interleavings of Add(-1)/Add(+1) observers.
class Gauge {
 public:
  void Set(std::int64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  void Add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Point-in-time copy of a `Histogram`: plain data, mergeable across
/// histograms (shards, processes) because every histogram shares the same
/// fixed bucket layout. Values are nanoseconds; the JSON view reports
/// milliseconds, the unit latency dashboards read.
struct HistogramSnapshot {
  std::vector<std::uint64_t> counts;  ///< One slot per histogram bucket.
  std::uint64_t count = 0;            ///< Total recorded values.
  std::uint64_t sum = 0;              ///< Sum of recorded values (ns).
  std::uint64_t max = 0;              ///< Largest recorded value (ns).

  /// Element-wise accumulation of `other` into this snapshot.
  void Merge(const HistogramSnapshot& other);

  /// Value (ns) at quantile `q` in [0, 1]: the representative value of the
  /// bucket holding the ceil(q * count)-th smallest sample (0 when empty).
  /// Bucket geometry bounds the relative error at 1/8 = 12.5%.
  double ValueAtQuantile(double q) const;

  double MeanNs() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Count-weighted mean over bucket midpoints (ns) — the mean a merge of
  /// bucket-only snapshots can still compute, and a cross-check on `MeanNs`
  /// (they diverge by at most the 12.5% bucket error).
  double WeightedMeanNs() const;

  /// `{"count":N,"mean_ms":...,"wmean_ms":...,"p50_ms":...,"p90_ms":...,
  ///   "p99_ms":...,"p999_ms":...,"max_ms":...}` — the shape the `kStats`
  /// endpoint and the benches' `--json` reports embed.
  std::string ToJson() const;
};

/// Fixed-bucket log-scale latency histogram. `Record` is lock-free — one
/// relaxed fetch_add on the value's bucket, one on the running sum, and a
/// relaxed CAS loop for the max — so it can sit on the request hot path of
/// every server thread at once.
///
/// Bucket scheme (HdrHistogram-style log-linear): values below 8 ns get
/// exact unit buckets; above that, each power-of-two range splits into 8
/// linear sub-buckets, so any recorded value lands in a bucket whose width
/// is at most 1/8th of its lower bound (<= 12.5% relative error on
/// percentiles). 496 buckets cover the full uint64 range in ~4 KiB.
class Histogram {
 public:
  /// log2 of the linear sub-buckets per power-of-two range.
  static constexpr int kSubBits = 3;
  static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBits;
  static constexpr std::size_t kNumBuckets =
      kSubBuckets + (64 - kSubBits) * kSubBuckets;

  void Record(std::uint64_t value_ns) {
    buckets_[BucketIndex(value_ns)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value_ns, std::memory_order_relaxed);
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    while (seen < value_ns &&
           !max_.compare_exchange_weak(seen, value_ns,
                                       std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
    }
  }

  /// The bucket `value` falls into.
  static constexpr std::size_t BucketIndex(std::uint64_t value) {
    if (value < kSubBuckets) return static_cast<std::size_t>(value);
    const int exponent = std::bit_width(value) - 1;  // floor(log2), >= kSubBits
    const int shift = exponent - kSubBits;
    const std::size_t sub =
        static_cast<std::size_t>(value >> shift) - kSubBuckets;
    return kSubBuckets + static_cast<std::size_t>(shift) * kSubBuckets + sub;
  }

  /// Smallest value mapping to bucket `index`.
  static constexpr std::uint64_t BucketLowerBound(std::size_t index) {
    if (index < kSubBuckets) return index;
    const std::size_t shift = (index - kSubBuckets) / kSubBuckets;
    const std::size_t sub = (index - kSubBuckets) % kSubBuckets;
    return (kSubBuckets + sub) << shift;
  }

  /// Width of bucket `index` (1 for the exact unit buckets).
  static constexpr std::uint64_t BucketWidth(std::size_t index) {
    return index < kSubBuckets
               ? 1
               : std::uint64_t{1} << ((index - kSubBuckets) / kSubBuckets);
  }

  /// Consistent-enough copy of the counters (buckets are read one by one;
  /// concurrent recording may straddle the read, which reporting tolerates).
  HistogramSnapshot snapshot() const;

  /// Zeroes every bucket (e.g. between benchmark phases).
  void Reset();

 private:
  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

}  // namespace subex

#endif  // SUBEX_OBS_METRICS_H_
