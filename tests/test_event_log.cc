#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "obs/event_log.h"

namespace subex {
namespace {

EventLogOptions DeterministicOptions(std::size_t ring, double burst) {
  EventLogOptions options;
  options.ring_capacity = ring;
  options.tokens_per_second = 0.0;  // No refill: only the burst passes.
  options.burst = burst;
  return options;
}

TEST(EventLogTest, EmitStoresRecordInOrder) {
  EventLog log(DeterministicOptions(8, 4));
  EXPECT_TRUE(log.Emit(EventSeverity::kWarn, "serve.busy", "{\"fd\":3}"));
  EXPECT_TRUE(log.Emit(EventSeverity::kInfo, "serve.idle_timeout"));
  const std::vector<EventRecord> events = log.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].key, "serve.busy");
  EXPECT_EQ(events[0].severity, EventSeverity::kWarn);
  EXPECT_EQ(events[0].fields_json, "{\"fd\":3}");
  EXPECT_EQ(events[1].key, "serve.idle_timeout");
  EXPECT_LT(events[0].sequence, events[1].sequence);
  EXPECT_EQ(log.emitted(), 2u);
  EXPECT_EQ(log.suppressed(), 0u);
}

TEST(EventLogTest, TokenBucketSuppressesPerKey) {
  EventLog log(DeterministicOptions(32, 2));
  // Two pass per key, the rest are suppressed — independently per key.
  for (int i = 0; i < 5; ++i) log.Emit(EventSeverity::kWarn, "a");
  for (int i = 0; i < 5; ++i) log.Emit(EventSeverity::kWarn, "b");
  EXPECT_EQ(log.emitted(), 4u);
  EXPECT_EQ(log.suppressed(), 6u);
  EXPECT_EQ(log.Snapshot().size(), 4u);
}

TEST(EventLogTest, RefillAdmitsAgainAfterTime) {
  EventLogOptions options;
  options.ring_capacity = 8;
  options.tokens_per_second = 1000.0;  // 1 token per ms.
  options.burst = 1.0;
  EventLog log(options);
  EXPECT_TRUE(log.Emit(EventSeverity::kInfo, "k"));
  EXPECT_FALSE(log.Emit(EventSeverity::kInfo, "k"));  // Bucket empty.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(log.Emit(EventSeverity::kInfo, "k"));  // Refilled.
}

TEST(EventLogTest, RingKeepsNewestEvents) {
  EventLog log(DeterministicOptions(3, 100));
  for (int i = 0; i < 7; ++i) {
    log.Emit(EventSeverity::kInfo, "k" + std::to_string(i));
  }
  const std::vector<EventRecord> events = log.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].key, "k4");  // Oldest survivor first.
  EXPECT_EQ(events[2].key, "k6");
  EXPECT_EQ(log.emitted(), 7u);  // Overwritten events still count emitted.
}

TEST(EventLogTest, JsonExportsAreValidJson) {
  EventLog log(DeterministicOptions(8, 8));
  log.Emit(EventSeverity::kError, "net.max_frame",
           "{\"frame_bytes\":9999999}");
  log.Emit(EventSeverity::kDebug, "cache.single_flight_join");
  EXPECT_TRUE(IsValidJson(log.ToJson())) << log.ToJson();
  const std::vector<EventRecord> events = log.Snapshot();
  for (const EventRecord& event : events) {
    EXPECT_TRUE(IsValidJson(event.ToJsonLine())) << event.ToJsonLine();
  }
  EXPECT_NE(log.ToJson().find("\"severity\":\"error\""), std::string::npos);
  EXPECT_NE(log.ToJson().find("\"key\":\"net.max_frame\""), std::string::npos);
  // JSON lines: one line per event, each independently parseable.
  const std::string lines = log.ToJsonLines();
  EXPECT_NE(lines.find('\n'), std::string::npos);
}

TEST(EventLogTest, SeverityNamesAreStable) {
  EXPECT_STREQ(EventSeverityName(EventSeverity::kDebug), "debug");
  EXPECT_STREQ(EventSeverityName(EventSeverity::kInfo), "info");
  EXPECT_STREQ(EventSeverityName(EventSeverity::kWarn), "warn");
  EXPECT_STREQ(EventSeverityName(EventSeverity::kError), "error");
}

TEST(EventLogTest, ClearResetsEverything) {
  EventLog log(DeterministicOptions(4, 1));
  log.Emit(EventSeverity::kInfo, "k");
  log.Emit(EventSeverity::kInfo, "k");  // Suppressed.
  log.Clear();
  EXPECT_EQ(log.emitted(), 0u);
  EXPECT_EQ(log.suppressed(), 0u);
  EXPECT_TRUE(log.Snapshot().empty());
  // Buckets reset too: the burst is available again.
  EXPECT_TRUE(log.Emit(EventSeverity::kInfo, "k"));
}

TEST(EventLogTest, ConcurrentEmittersLoseNoCounts) {
  EventLog log(DeterministicOptions(64, 1e9));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        log.Emit(EventSeverity::kInfo, "thread." + std::to_string(t));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(log.emitted() + log.suppressed(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// --------------------------------------------------------------------------
// Slow-request capture.

TEST(SlowRequestCaptureTest, CapturesOnlyAboveThreshold) {
  SlowRequestCapture capture(/*threshold_ns=*/1000000, /*capacity=*/4);
  EXPECT_FALSE(capture.WouldCapture(999999));
  EXPECT_TRUE(capture.WouldCapture(1000000));
  capture.Capture("explain", 42, 0xabc, 2000000,
                  "{\"trace_id\":\"0x0\",\"spans\":[]}");
  EXPECT_EQ(capture.captured(), 1u);
  const std::string json = capture.ToJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"label\":\"explain\""), std::string::npos);
  EXPECT_NE(json.find("\"request_id\":42"), std::string::npos);
}

TEST(SlowRequestCaptureTest, RingKeepsNewestCaptures) {
  SlowRequestCapture capture(1, 2);
  for (std::uint64_t i = 0; i < 5; ++i) {
    capture.Capture("score", i, 0, 10, "{}");
  }
  EXPECT_EQ(capture.captured(), 5u);
  const std::string json = capture.ToJson();
  // Only the two newest request ids survive in the ring.
  EXPECT_EQ(json.find("\"request_id\":2"), std::string::npos);
  EXPECT_NE(json.find("\"request_id\":3"), std::string::npos);
  EXPECT_NE(json.find("\"request_id\":4"), std::string::npos);
}

}  // namespace
}  // namespace subex
