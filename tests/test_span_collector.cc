#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "obs/span_collector.h"

namespace subex {
namespace {

SpanRecord MakeSpan(const char* name, std::uint64_t trace_id,
                    std::uint64_t start_ns, std::uint64_t duration_ns) {
  SpanRecord record;
  record.name = name;
  record.trace_id = trace_id;
  record.span_id = NextSpanId();
  record.start_ns = start_ns;
  record.duration_ns = duration_ns;
  return record;
}

TEST(SpanCollectorTest, DisabledCollectorDropsRecordsSilently) {
  SpanCollector collector;
  EXPECT_FALSE(collector.enabled());
  collector.Record(MakeSpan("ignored", 1, 10, 5));
  EXPECT_TRUE(collector.Snapshot().empty());
}

TEST(SpanCollectorTest, SnapshotOrdersByStartTime) {
  SpanCollector collector;
  collector.Enable(16);
  collector.Record(MakeSpan("late", 7, 3000, 10));
  collector.Record(MakeSpan("early", 7, 1000, 10));
  collector.Record(MakeSpan("middle", 7, 2000, 10));
  const std::vector<SpanRecord> spans = collector.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "early");
  EXPECT_EQ(spans[1].name, "middle");
  EXPECT_EQ(spans[2].name, "late");
}

TEST(SpanCollectorTest, RingOverwritesOldestAndCountsDrops) {
  SpanCollector collector;
  collector.Enable(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    collector.Record(MakeSpan("s", 1, i, 1));
  }
  const std::vector<SpanRecord> spans = collector.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // The survivors are the newest four, still in start order.
  EXPECT_EQ(spans[0].start_ns, 6u);
  EXPECT_EQ(spans[3].start_ns, 9u);
  EXPECT_EQ(collector.dropped(), 6u);
}

TEST(SpanCollectorTest, ReEnableDiscardsOldSpans) {
  SpanCollector collector;
  collector.Enable(8);
  collector.Record(MakeSpan("old", 1, 1, 1));
  collector.Enable(8);
  collector.Record(MakeSpan("new", 2, 2, 1));
  const std::vector<SpanRecord> spans = collector.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "new");
}

TEST(SpanCollectorTest, ThreadsGetDistinctTids) {
  SpanCollector collector;
  collector.Enable(8);
  collector.Record(MakeSpan("main", 1, 1, 1));
  std::thread other(
      [&collector] { collector.Record(MakeSpan("worker", 1, 2, 1)); });
  other.join();
  const std::vector<SpanRecord> spans = collector.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_NE(spans[0].tid, spans[1].tid);
}

// The TSan-relevant shape: many threads recording while another snapshots.
TEST(SpanCollectorTest, ConcurrentRecordAndSnapshotIsSafe) {
  SpanCollector collector;
  collector.Enable(64);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&collector, t] {
      for (std::uint64_t i = 0; i < 2000; ++i) {
        collector.Record(
            MakeSpan("hot", static_cast<std::uint64_t>(t) + 1, i, 1));
      }
    });
  }
  for (int i = 0; i < 50; ++i) (void)collector.Snapshot();
  for (std::thread& thread : threads) thread.join();
  // 4 rings of 64: everything past the ring capacity counts as dropped.
  EXPECT_EQ(collector.Snapshot().size(), 4u * 64u);
  EXPECT_EQ(collector.dropped(), 4u * (2000u - 64u));
}

TEST(SpanCollectorTest, ChromeTraceJsonIsValidAndCarriesTraceIds) {
  SpanCollector collector;
  collector.Enable(8);
  collector.Record(MakeSpan("serve.request", 0xdeadbeef, 5000, 2500));
  const std::string json = collector.ToChromeTraceJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"serve.request\""), std::string::npos);
  EXPECT_NE(json.find("0x00000000deadbeef"), std::string::npos);
}

TEST(SpanCollectorTest, ClearKeepsCollectingAfterwards) {
  SpanCollector collector;
  collector.Enable(4);
  collector.Record(MakeSpan("before", 1, 1, 1));
  collector.Clear();
  EXPECT_TRUE(collector.Snapshot().empty());
  collector.Record(MakeSpan("after", 1, 2, 1));
  EXPECT_EQ(collector.Snapshot().size(), 1u);

  // Clear the partly filled ring, then wrap it: the capacity, the drop
  // count and the oldest-first order (equal starts keep ring order) hold.
  collector.Clear();
  const char* names[] = {"0", "1", "2", "3", "4", "5"};
  for (const char* name : names) collector.Record(MakeSpan(name, 1, 7, 1));
  const std::vector<SpanRecord> spans = collector.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].name, names[i + 2]);
  }
  EXPECT_EQ(collector.dropped(), 2u);
}

TEST(SpanCollectorTest, SteadyToWallPreservesDeltas) {
  const std::uint64_t a = SteadyToWallNs(1000000);
  const std::uint64_t b = SteadyToWallNs(4000000);
  EXPECT_EQ(b - a, 3000000u);
}

}  // namespace
}  // namespace subex
