#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace subex {
namespace {

// --------------------------------------------------------------------------
// Histogram bucket geometry.

TEST(HistogramTest, SmallValuesGetExactUnitBuckets) {
  for (std::uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    EXPECT_EQ(Histogram::BucketIndex(v), v);
    EXPECT_EQ(Histogram::BucketLowerBound(v), v);
    EXPECT_EQ(Histogram::BucketWidth(v), 1u);
  }
}

TEST(HistogramTest, BucketIndexIsMonotoneAndContiguous) {
  // Every value maps into a bucket whose [lower, lower + width) range
  // contains it, and indices never decrease with the value.
  std::size_t previous = 0;
  for (std::uint64_t v = 0; v < 100000; v = v < 256 ? v + 1 : v + v / 7) {
    const std::size_t index = Histogram::BucketIndex(v);
    EXPECT_GE(index, previous);
    EXPECT_LT(index, Histogram::kNumBuckets);
    EXPECT_GE(v, Histogram::BucketLowerBound(index));
    EXPECT_LT(v, Histogram::BucketLowerBound(index) +
                     Histogram::BucketWidth(index));
    previous = index;
  }
}

TEST(HistogramTest, LargestValueFitsInLastBucket) {
  const std::uint64_t max = ~std::uint64_t{0};
  EXPECT_EQ(Histogram::BucketIndex(max), Histogram::kNumBuckets - 1);
}

TEST(HistogramTest, RelativeBucketWidthIsBounded) {
  // The log-linear scheme promises width <= lower_bound / 8 above the
  // exact range — i.e. <= 12.5% relative error.
  for (std::size_t i = Histogram::kSubBuckets; i < Histogram::kNumBuckets;
       ++i) {
    EXPECT_LE(Histogram::BucketWidth(i) * Histogram::kSubBuckets,
              Histogram::BucketLowerBound(i))
        << "bucket " << i;
  }
}

// --------------------------------------------------------------------------
// Recording and snapshots.

TEST(HistogramTest, SnapshotCountsSumAndMax) {
  Histogram h;
  h.Record(3);
  h.Record(3);
  h.Record(1000);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.sum, 1006u);
  EXPECT_EQ(snap.max, 1000u);
  EXPECT_DOUBLE_EQ(snap.MeanNs(), 1006.0 / 3.0);
}

TEST(HistogramTest, QuantilesOfExactValuesAreExact) {
  Histogram h;
  for (std::uint64_t v = 0; v < Histogram::kSubBuckets; ++v) h.Record(v);
  const HistogramSnapshot snap = h.snapshot();
  // 8 samples 0..7: the median (rank 4) is 3, p99 (rank 8) is 7.
  EXPECT_DOUBLE_EQ(snap.ValueAtQuantile(0.50), 3.0);
  EXPECT_DOUBLE_EQ(snap.ValueAtQuantile(0.99), 7.0);
  EXPECT_DOUBLE_EQ(snap.ValueAtQuantile(1.0), 7.0);
}

TEST(HistogramTest, QuantilesOfLargeValuesWithinBucketError) {
  Histogram h;
  constexpr std::uint64_t kValue = 1234567;  // ~1.23 ms in ns.
  for (int i = 0; i < 100; ++i) h.Record(kValue);
  const HistogramSnapshot snap = h.snapshot();
  for (double q : {0.5, 0.9, 0.99}) {
    const double estimate = snap.ValueAtQuantile(q);
    EXPECT_NEAR(estimate, static_cast<double>(kValue), kValue * 0.125)
        << "q=" << q;
  }
  // The observed max is tracked exactly, not bucketed.
  EXPECT_EQ(snap.max, kValue);
}

TEST(HistogramTest, EmptySnapshotReportsZeros) {
  const HistogramSnapshot snap = Histogram().snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.ValueAtQuantile(0.5), 0.0);
  EXPECT_NE(snap.ToJson().find("\"count\":0"), std::string::npos);
}

TEST(HistogramTest, MergeAccumulatesSnapshots) {
  Histogram a;
  Histogram b;
  a.Record(5);
  a.Record(100);
  b.Record(7);
  b.Record(200000);
  HistogramSnapshot merged = a.snapshot();
  merged.Merge(b.snapshot());
  EXPECT_EQ(merged.count, 4u);
  EXPECT_EQ(merged.sum, 5u + 100u + 7u + 200000u);
  EXPECT_EQ(merged.max, 200000u);
  // Merging an empty snapshot is a no-op.
  merged.Merge(HistogramSnapshot{});
  EXPECT_EQ(merged.count, 4u);
}

TEST(HistogramTest, ResetZeroesEverything) {
  Histogram h;
  h.Record(42);
  h.Reset();
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0u);
  EXPECT_EQ(snap.max, 0u);
}

TEST(HistogramTest, ToJsonCarriesPercentileKeys) {
  Histogram h;
  h.Record(2000000);  // 2 ms.
  const std::string json = h.snapshot().ToJson();
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"p50_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"p90_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"max_ms\":2"), std::string::npos);
}

// The TSan target: many threads hammering one histogram (and counter)
// concurrently must lose no events and trip no data-race reports.
TEST(HistogramTest, ConcurrentRecordingLosesNothing) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  Histogram histogram;
  Counter counter;
  Gauge gauge;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.Record(static_cast<std::uint64_t>(t * kPerThread + i));
        counter.Increment();
        gauge.Add(t % 2 == 0 ? 1 : -1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.max,
            static_cast<std::uint64_t>(kThreads) * kPerThread - 1);
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(gauge.value(), 0);
}

// --------------------------------------------------------------------------
// Registry.

TEST(MetricsRegistryTest, GetReturnsStableInstruments) {
  MetricsRegistry registry;
  Counter& c1 = registry.GetCounter("requests");
  c1.Increment(3);
  // Registering more instruments must not move existing ones.
  for (int i = 0; i < 100; ++i) {
    registry.GetCounter("filler." + std::to_string(i));
  }
  Counter& c2 = registry.GetCounter("requests");
  EXPECT_EQ(&c1, &c2);
  EXPECT_EQ(c2.value(), 3u);
}

TEST(MetricsRegistryTest, ToJsonGroupsByKindSorted) {
  MetricsRegistry registry;
  registry.GetCounter("b.count").Increment(2);
  registry.GetCounter("a.count").Increment(1);
  registry.GetGauge("depth").Set(-4);
  registry.GetHistogram("latency").Record(1000);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"counters\":{\"a.count\":1,\"b.count\":2}"),
            std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{\"depth\":-4}"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{\"latency\":{\"count\":1"),
            std::string::npos);
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsRegistrations) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("n");
  Histogram& histogram = registry.GetHistogram("h");
  counter.Increment(5);
  histogram.Record(9);
  registry.Reset();
  EXPECT_EQ(counter.value(), 0u);  // Same instrument, zeroed in place.
  EXPECT_EQ(histogram.snapshot().count, 0u);
  EXPECT_EQ(&registry.GetCounter("n"), &counter);
}

TEST(MetricsRegistryTest, ConcurrentGetAndRecordIsSafe) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Threads race registration of overlapping names with recording.
      for (int i = 0; i < 500; ++i) {
        registry.GetCounter("shared." + std::to_string(i % 10)).Increment();
        registry.GetHistogram("hist." + std::to_string(t % 3))
            .Record(static_cast<std::uint64_t>(i));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::uint64_t total = 0;
  for (int i = 0; i < 10; ++i) {
    total += registry.GetCounter("shared." + std::to_string(i)).value();
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * 500);
}

TEST(MetricsRegistryTest, GlobalIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
}

// --------------------------------------------------------------------------
// Trace spans.

TEST(TraceSpanTest, RecordsIntoHistogramOnDestruction) {
  Histogram histogram;
  { TraceSpan span(&histogram); }
  EXPECT_EQ(histogram.snapshot().count, 1u);
}

TEST(TraceSpanTest, StopIsExplicitAndIdempotent) {
  Histogram histogram;
  TraceSpan span(&histogram);
  span.Stop();
  EXPECT_EQ(histogram.snapshot().count, 1u);
  EXPECT_EQ(span.Stop(), 0u);                   // Second stop: no-op.
  EXPECT_EQ(histogram.snapshot().count, 1u);    // Destructor won't re-record.
}

TEST(TraceSpanTest, NullTargetsDisarmTheSpan) {
  TraceSpan span(nullptr);  // No histogram, no trace: nothing to do.
  EXPECT_EQ(span.Stop(), 0u);
}

TEST(TraceSpanTest, FeedsTraceSpansInOrder) {
  Trace trace;
  Histogram histogram;
  { TraceSpan span(&histogram, &trace, "decode"); }
  { TraceSpan span(nullptr, &trace, "compute"); }
  ASSERT_EQ(trace.spans().size(), 2u);
  EXPECT_EQ(trace.spans()[0].name, "decode");
  EXPECT_EQ(trace.spans()[1].name, "compute");
  // Both are roots (opened and closed sequentially, never nested).
  EXPECT_EQ(trace.spans()[0].parent_id, 0u);
  EXPECT_EQ(trace.spans()[1].parent_id, 0u);
  EXPECT_EQ(histogram.snapshot().count, 1u);
  EXPECT_GE(trace.TotalNs(), trace.spans()[0].duration_ns);
}

TEST(TraceSpanTest, NestedSpansGetParentIds) {
  Trace trace;
  {
    TraceSpan outer(nullptr, &trace, "request");
    TraceSpan inner(nullptr, &trace, "score");
  }  // inner closes first (reverse declaration order), then outer.
  ASSERT_EQ(trace.spans().size(), 2u);
  const Trace::Span& outer = trace.spans()[0];
  const Trace::Span& inner = trace.spans()[1];
  EXPECT_EQ(outer.name, "request");
  EXPECT_EQ(outer.parent_id, 0u);
  EXPECT_NE(outer.span_id, 0u);
  EXPECT_EQ(inner.parent_id, outer.span_id);
  // TotalNs counts roots only — the child is inside its parent.
  EXPECT_EQ(trace.TotalNs(), outer.duration_ns);
}

TEST(TraceSpanTest, TraceToJsonListsSpans) {
  Trace trace;
  trace.set_trace_id(0xabcdef);
  trace.Record("queue_wait", 1000, 1500000);  // 1.5 ms.
  trace.Record("score", 2000, 250000);
  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"trace_id\":\"0x0000000000abcdef\""),
            std::string::npos);
  EXPECT_NE(json.find("\"queue_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"dur_ms\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"dur_ms\":0.25"), std::string::npos);
  trace.Clear();
  EXPECT_TRUE(trace.spans().empty());
  EXPECT_EQ(trace.trace_id(), 0u);  // Clear resets the id for pooling.
}

TEST(TraceSpanTest, CurrentTraceFollowsContextScopes) {
  EXPECT_EQ(CurrentTrace(), nullptr);
  Trace trace;
  {
    TraceContext context(&trace);
    EXPECT_EQ(CurrentTrace(), &trace);
    // A named span with no explicit trace attaches to the current one.
    { TraceSpan span(nullptr, nullptr, "detect.score"); }
    ASSERT_EQ(trace.spans().size(), 1u);
    EXPECT_EQ(trace.spans()[0].name, "detect.score");
  }
  EXPECT_EQ(CurrentTrace(), nullptr);  // Restored on scope exit.
}

TEST(TraceSpanTest, IdGeneratorsNeverReturnZeroOrRepeat) {
  const std::uint64_t a = NextTraceId();
  const std::uint64_t b = NextTraceId();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
  EXPECT_NE(NextSpanId(), NextSpanId());
}

// --------------------------------------------------------------------------
// Snapshot extensions (p99.9 + count-weighted mean).

TEST(HistogramTest, SnapshotCarriesP999AndWeightedMean) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(1000);
  h.Record(50000000);  // One 50 ms outlier among a hundred 1 us samples.
  const HistogramSnapshot snap = h.snapshot();
  // Rank ceil(0.999 * 101) = 101 — the outlier's bucket; p50 stays at the
  // bulk. Both within the 12.5% bucket error.
  EXPECT_NEAR(snap.ValueAtQuantile(0.999), 50000000.0, 50000000.0 * 0.125);
  EXPECT_NEAR(snap.ValueAtQuantile(0.5), 1000.0, 1000.0 * 0.125);
  // The weighted mean approximates the true mean within bucket error.
  const double true_mean = (100.0 * 1000.0 + 50000000.0) / 101.0;
  EXPECT_NEAR(snap.WeightedMeanNs(), true_mean, true_mean * 0.125);
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"p999_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"wmean_ms\""), std::string::npos);
}

TEST(HistogramTest, WeightedMeanOfEmptySnapshotIsZero) {
  EXPECT_DOUBLE_EQ(Histogram().snapshot().WeightedMeanNs(), 0.0);
}

}  // namespace
}  // namespace subex
