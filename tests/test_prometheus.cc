#include <gtest/gtest.h>

#include <string>

#include "obs/build_info.h"
#include "obs/prometheus.h"
#include "obs/registry.h"

#include "common/json.h"

namespace subex {
namespace {

TEST(PrometheusTest, EmptyRegistryRendersEmptyBody) {
  MetricsRegistry registry;
  EXPECT_EQ(RenderPrometheusText(registry), "");
}

TEST(BuildInfoTest, BuildInfoIsValidJson) {
  const std::string json = BuildInfoJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"obs_enabled\""), std::string::npos);
  EXPECT_NE(json.find("\"compiler\""), std::string::npos);
}

TEST(PrometheusTest, CountersGetTotalSuffixAndTypeLine) {
  MetricsRegistry registry;
  registry.GetCounter("net.bytes_sent").Increment(123);
  const std::string text = RenderPrometheusText(registry);
  EXPECT_NE(text.find("# TYPE subex_net_bytes_sent_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("\nsubex_net_bytes_sent_total 123\n"),
            std::string::npos);
}

TEST(PrometheusTest, GaugesKeepSignedValues) {
  MetricsRegistry registry;
  registry.GetGauge("queue.depth").Set(-7);
  const std::string text = RenderPrometheusText(registry);
  EXPECT_NE(text.find("# TYPE subex_queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("subex_queue_depth -7\n"), std::string::npos);
}

TEST(PrometheusTest, HistogramsBecomeSecondsSummaries) {
  MetricsRegistry registry;
  // 1 ms recorded in nanoseconds must surface as 0.001-ish seconds.
  registry.GetHistogram("serve.request").Record(1000000);
  const std::string text = RenderPrometheusText(registry);
  EXPECT_NE(text.find("# TYPE subex_serve_request_seconds summary\n"),
            std::string::npos);
  for (const char* q : {"0.5", "0.9", "0.99", "0.999"}) {
    EXPECT_NE(text.find("subex_serve_request_seconds{quantile=\"" +
                        std::string(q) + "\"} "),
              std::string::npos)
        << q;
  }
  EXPECT_NE(text.find("subex_serve_request_seconds_sum 0.001\n"),
            std::string::npos);
  EXPECT_NE(text.find("subex_serve_request_seconds_count 1\n"),
            std::string::npos);
}

TEST(PrometheusTest, MetricNamesAreSanitized) {
  MetricsRegistry registry;
  registry.GetCounter("detect.score.kNN-5").Increment();
  const std::string text = RenderPrometheusText(registry);
  EXPECT_NE(text.find("subex_detect_score_kNN_5_total 1\n"),
            std::string::npos);
}

TEST(PrometheusTest, SnapshotOverloadMatchesRegistryOverload) {
  MetricsRegistry registry;
  registry.GetCounter("a").Increment(5);
  registry.GetGauge("b").Set(2);
  registry.GetHistogram("c").Record(10);
  EXPECT_EQ(RenderPrometheusText(registry),
            RenderPrometheusText(registry.Snapshot()));
}

}  // namespace
}  // namespace subex
