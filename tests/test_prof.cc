// Tests for the src/prof profiling layer: hardware-counter groups and
// spans (graceful when perf_event_open is denied, as in most CI
// containers), the SIGPROF sampling profiler, and the standalone
// GET /metrics listener bench binaries use.
//
// The ProfDegradation suite only runs when CI sets SUBEX_PROF_NO_PERF=1 /
// SUBEX_PROF_NO_TIMER=1 — the env overrides are latched at first probe, so
// forcing them from inside an already-probed process would be a lie.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/prometheus.h"
#include "obs/registry.h"
#include "obs/metrics_http.h"
#include "prof/perf_counters.h"
#include "prof/sampling_profiler.h"

// External linkage + noinline so -rdynamic puts the symbol where dladdr
// finds it and the sampler's leaf frame names this function.
__attribute__((noinline)) double SubexProfTestBurn(int spins) {
  volatile double acc = 1.0;
  for (int i = 0; i < spins; ++i) acc = acc * 1.0000001 + 0.5;
  return acc;
}

// Call through a volatile pointer: otherwise GCC const-propagates the spin
// counts into local `.constprop` clones that are absent from the dynamic
// symbol table, and the sampled frames come back as bare addresses.
double (*volatile SubexProfBurn)(int) = &SubexProfTestBurn;

namespace subex {
namespace {

TEST(PerfCounterValuesTest, RatioMathHandlesZeroDenominators) {
  PerfCounterValues values;
  EXPECT_EQ(values.IpcMilli(), 0);
  EXPECT_EQ(values.LlcMissPerKiloInst(), 0);
  values.cycles = 1000;
  values.instructions = 2500;
  values.llc_misses = 5;
  EXPECT_EQ(values.IpcMilli(), 2500);
  EXPECT_EQ(values.LlcMissPerKiloInst(), 2);
}

TEST(PerfCounterGroupTest, UnavailableGroupReadsInvalidZeros) {
  PerfCounterGroup& group = PerfCounterGroup::ThisThread();
  const PerfCounterValues values = group.Read();
  if (!group.available()) {
    // Denied perf (containers, SUBEX_PROF_NO_PERF): everything is zeros,
    // nothing crashes.
    EXPECT_FALSE(values.valid);
    EXPECT_EQ(values.cycles, 0u);
  } else {
    EXPECT_TRUE(values.valid);
    // Monotonic: a later read can't go backwards.
    SubexProfBurn(10000);
    const PerfCounterValues later = group.Read();
    EXPECT_GE(later.cycles, values.cycles);
  }
}

TEST(ProfCounterSetTest, ForKernelRegistersAllSeriesEvenWhenPerfDenied) {
  MetricsRegistry registry;
  ProfCounterSet set = ProfCounterSet::ForKernel("test.kernel", &registry);
  ASSERT_NE(set.cycles, nullptr);
  ASSERT_NE(set.spans, nullptr);
  // The series exist (as zeros) regardless of perf availability, so
  // check_prometheus --require stays stable across environments.
  const std::string text = RenderPrometheusText(registry.Snapshot());
  EXPECT_NE(text.find("subex_prof_cycles_test_kernel_total"), std::string::npos)
      << text;
  EXPECT_NE(text.find("subex_prof_spans_test_kernel_total"), std::string::npos);
  EXPECT_NE(text.find("subex_prof_ipc_milli_test_kernel"), std::string::npos);
}

TEST(ProfCounterSetTest, CounterSpanAlwaysTicksSpansAndPublishesDeltas) {
  MetricsRegistry registry;
  ProfCounterSet set = ProfCounterSet::ForKernel("span.kernel", &registry);
  {
    CounterSpan span(&set);
    SubexProfBurn(200000);
  }
  {
    CounterSpan span(&set);
    SubexProfBurn(200000);
  }
  EXPECT_EQ(set.spans->value(), 2);
  if (PerfCounterGroup::ThisThread().available()) {
    EXPECT_GT(set.cycles->value(), 0);
    EXPECT_GT(set.instructions->value(), 0);
    EXPECT_GT(set.ipc_milli->value(), 0);
  } else {
    EXPECT_EQ(set.cycles->value(), 0);
    EXPECT_EQ(set.instructions->value(), 0);
  }
}

TEST(ProfCounterSetTest, NullSetIsANoOp) {
  CounterSpan span(nullptr);  // Must not crash.
}

TEST(ProfProcessMetricsTest, GaugesReflectRuntimeProbes) {
  MetricsRegistry registry;
  RegisterProfProcessMetrics(&registry);
  EXPECT_EQ(registry.GetGauge("prof.perf_available").value(),
            PerfCounterGroup::SupportedOnThisSystem() ? 1 : 0);
  EXPECT_EQ(registry.GetGauge("prof.sampler_supported").value(),
            SamplingProfiler::SupportedOnThisSystem() ? 1 : 0);
}

TEST(SamplingProfilerTest, StartSampleStopCollapse) {
  SamplingProfiler& profiler = SamplingProfiler::Global();
  if (!SamplingProfiler::SupportedOnThisSystem()) {
    GTEST_SKIP() << "per-thread SIGPROF timers unavailable here";
  }
  profiler.Clear();
  SamplingProfilerOptions options;
  options.sample_hz = 997;  // Fast so the test stays short.
  std::string error;
  ASSERT_TRUE(profiler.Start(options, &error)) << error;
  EXPECT_TRUE(profiler.running());
  EXPECT_EQ(profiler.sample_hz(), 997);

  // A second Start must refuse, not double-arm timers.
  EXPECT_FALSE(profiler.Start(options, &error));
  EXPECT_FALSE(error.empty());

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (profiler.samples() < 20 &&
         std::chrono::steady_clock::now() < deadline) {
    SubexProfBurn(500000);
  }
  profiler.Stop();
  EXPECT_FALSE(profiler.running());
  ASSERT_GT(profiler.samples(), 0u);

  const std::string collapsed = profiler.ToCollapsedText();
  ASSERT_FALSE(collapsed.empty());
  // Collapsed-stack shape: "frame;frame;... count\n" and the burn loop
  // symbolized (requires the -rdynamic link the build adds).
  EXPECT_NE(collapsed.find(';'), std::string::npos);
  EXPECT_NE(collapsed.find("SubexProfTestBurn"), std::string::npos)
      << collapsed.substr(0, 2000);

  profiler.Clear();
  EXPECT_EQ(profiler.samples(), 0u);
  EXPECT_TRUE(profiler.ToCollapsedText().empty());
}

TEST(SamplingProfilerTest, StopWithoutStartIsSafe) {
  SamplingProfiler& profiler = SamplingProfiler::Global();
  profiler.Stop();
  EXPECT_FALSE(profiler.running());
  EXPECT_EQ(profiler.sample_hz(), 0);
  profiler.RegisterCurrentThread();  // No-op while stopped.
  profiler.UnregisterCurrentThread();
}

namespace {

/// One blocking HTTP GET against 127.0.0.1:`port`, returning the raw
/// response text ("" on connect failure).
std::string HttpGet(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  ::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  ssize_t got;
  while ((got = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(got));
  }
  ::close(fd);
  return response;
}

}  // namespace

TEST(MetricsHttpServerTest, ServesPrometheusTextAndCountsScrapes) {
  RegisterProfProcessMetrics();  // Guarantees at least the prof gauges.
  MetricsHttpServer server;
  std::string error;
  ASSERT_TRUE(server.Start(0, &error)) << error;
  ASSERT_NE(server.port(), 0);
  EXPECT_TRUE(server.running());

  const std::string metrics = HttpGet(server.port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("subex_prof_perf_available"), std::string::npos);

  const std::string missing = HttpGet(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos) << missing;

  // requests() counts served scrapes only, not 404s.
  EXPECT_EQ(server.requests(), 1u);
  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // Idempotent.
}

// --- Deterministic denial assertions (run by CI with the env set) -------

TEST(ProfDegradation, PerfForcedOffByEnvironment) {
  if (std::getenv("SUBEX_PROF_NO_PERF") == nullptr) {
    GTEST_SKIP() << "set SUBEX_PROF_NO_PERF=1 to exercise the denied path";
  }
  EXPECT_FALSE(PerfCounterGroup::SupportedOnThisSystem());
  PerfCounterGroup& group = PerfCounterGroup::ThisThread();
  EXPECT_FALSE(group.available());
  EXPECT_FALSE(group.Read().valid);
  // Spans still tick so span-rate dashboards keep working without a PMU.
  MetricsRegistry registry;
  ProfCounterSet set = ProfCounterSet::ForKernel("denied", &registry);
  { CounterSpan span(&set); }
  EXPECT_EQ(set.spans->value(), 1);
  EXPECT_EQ(set.cycles->value(), 0);
  RegisterProfProcessMetrics(&registry);
  EXPECT_EQ(registry.GetGauge("prof.perf_available").value(), 0);
}

TEST(ProfDegradation, SamplerForcedOffByEnvironment) {
  if (std::getenv("SUBEX_PROF_NO_TIMER") == nullptr) {
    GTEST_SKIP() << "set SUBEX_PROF_NO_TIMER=1 to exercise the denied path";
  }
  EXPECT_FALSE(SamplingProfiler::SupportedOnThisSystem());
  SamplingProfiler& profiler = SamplingProfiler::Global();
  std::string error;
  EXPECT_FALSE(profiler.Start({}, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(profiler.running());
  EXPECT_TRUE(profiler.ToCollapsedText().empty());
}

}  // namespace
}  // namespace subex
