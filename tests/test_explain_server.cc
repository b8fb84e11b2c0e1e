#include "net/explain_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <initializer_list>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/generators.h"
#include "detect/isolation_forest.h"
#include "detect/lof.h"
#include "explain/beam.h"
#include "explain/refout.h"
#include "net/explain_client.h"
#include "obs/registry.h"
#include "prof/sampling_profiler.h"
#include "subspace/enumeration.h"

namespace subex {
namespace {

SyntheticDataset SmallHics(std::uint64_t seed = 77) {
  HicsGeneratorConfig config;
  config.num_points = 150;
  config.subspace_dims = {2, 2, 3};  // 7 features.
  config.seed = seed;
  return GenerateHicsDataset(config);
}

/// Blocks every `Score` call while the gate is closed — makes "a request
/// is in flight right now" a deterministic state instead of a race.
class GateDetector : public Detector {
 public:
  GateDetector(const Detector& inner, std::atomic<bool>* gate)
      : inner_(inner), gate_(gate) {}
  std::string name() const override { return inner_.name(); }
  std::vector<double> Score(const Dataset& data,
                            const Subspace& subspace) const override {
    while (!gate_->load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    return inner_.Score(data, subspace);
  }

 private:
  const Detector& inner_;
  std::atomic<bool>* gate_;
};

/// Polls `predicate` until true or the deadline passes.
bool WaitFor(const std::function<bool()>& predicate, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return predicate();
}

/// One dataset + LOF/iForest services + Beam/RefOut explainers behind a
/// started server, the fixture most tests share.
class ExplainServerTest : public ::testing::Test {
 protected:
  void StartServer(const ExplainServerOptions& options = {},
                   std::size_t pool_threads = 2) {
    pool_ = std::make_unique<ThreadPool>(pool_threads);
    lof_service_ =
        std::make_unique<ScoringService>(lof_, data_.dataset,
                                         ScoringServiceOptions{}, pool_.get());
    forest_service_ =
        std::make_unique<ScoringService>(forest_, data_.dataset,
                                         ScoringServiceOptions{}, pool_.get());
    server_ = std::make_unique<ExplainServer>(options, pool_.get());
    server_->RegisterService(*lof_service_);
    server_->RegisterService(*forest_service_);
    server_->RegisterExplainer("Beam", beam_);
    server_->RegisterExplainer("RefOut", refout_);
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
  }

  /// A failed assertion must not leave a pool thread gated: `Stop` waits
  /// for every admitted request.
  void TearDown() override { gate_.store(true, std::memory_order_release); }

  /// A one-thread pool behind a cached LOF service whose detector is
  /// `gated_`: while `gate_` is closed, one miss holds the pool's only
  /// thread, so a reply that arrives then was computed on the loop thread.
  void StartGatedServer() {
    pool_ = std::make_unique<ThreadPool>(1);
    lof_service_ = std::make_unique<ScoringService>(
        gated_, data_.dataset, ScoringServiceOptions{}, pool_.get());
    server_ = std::make_unique<ExplainServer>(ExplainServerOptions{},
                                              pool_.get());
    server_->RegisterService(*lof_service_);
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
  }

  /// Scores `s` on a new connection from another thread; with the gate
  /// closed and `s` uncached, that request holds the pool until it opens.
  std::thread ScoreOnAnotherConnection(const Subspace& s) {
    return std::thread([this, s] {
      ExplainClient client = MakeClient();
      const ExplainClient::ScoreReply reply = client.Score("LOF", s);
      EXPECT_TRUE(reply.ok()) << reply.error;
      EXPECT_EQ(reply.scores, ScoreStandardized(lof_, data_.dataset, s));
    });
  }

  ExplainClient MakeClient(ExplainClientOptions options = {}) {
    ExplainClient client(options);
    std::string error;
    EXPECT_TRUE(client.Connect("127.0.0.1", server_->port(), &error)) << error;
    return client;
  }

  SyntheticDataset data_ = SmallHics();
  Lof lof_{15};
  IsolationForest forest_{[] {
    IsolationForest::Options options;
    options.num_trees = 20;
    options.num_repetitions = 2;
    return options;
  }()};
  std::atomic<bool> gate_{true};
  GateDetector gated_{lof_, &gate_};
  Beam beam_;
  RefOut refout_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<ScoringService> lof_service_;
  std::unique_ptr<ScoringService> forest_service_;
  std::unique_ptr<ExplainServer> server_;
};

TEST_F(ExplainServerTest, StartBindsEphemeralPortAndStopIsIdempotent) {
  StartServer();
  EXPECT_TRUE(server_->running());
  EXPECT_NE(server_->port(), 0);
  server_->Stop();
  EXPECT_FALSE(server_->running());
  server_->Stop();  // Second Stop is a no-op.
}

TEST_F(ExplainServerTest, ScoreMatchesInProcessBitwise) {
  StartServer();
  ExplainClient client = MakeClient();
  for (const Subspace& s : EnumerateSubspaces(7, 2)) {
    const ExplainClient::ScoreReply reply = client.Score("LOF", s);
    ASSERT_TRUE(reply.ok()) << reply.error;
    EXPECT_EQ(reply.scores, ScoreStandardized(lof_, data_.dataset, s))
        << s.ToString();
  }
  // Stochastic detector: seeded per subspace, so served == direct too.
  const Subspace s({1, 4, 6});
  const ExplainClient::ScoreReply reply = client.Score("iForest", s);
  ASSERT_TRUE(reply.ok()) << reply.error;
  EXPECT_EQ(reply.scores, ScoreStandardized(forest_, data_.dataset, s));
}

TEST_F(ExplainServerTest, ExplainMatchesInProcessBitwise) {
  StartServer();
  ExplainClient client = MakeClient();
  const int point = data_.dataset.outlier_indices().front();
  const RankedSubspaces direct = beam_.Explain(data_.dataset, lof_, point, 2);
  const ExplainClient::ExplainReply reply =
      client.Explain("LOF", "Beam", point, 2);
  ASSERT_TRUE(reply.ok()) << reply.error;
  EXPECT_EQ(reply.ranking.subspaces, direct.subspaces);
  EXPECT_EQ(reply.ranking.scores, direct.scores);
}

TEST_F(ExplainServerTest, ExplainTruncatesToMaxResults) {
  StartServer();
  ExplainClient client = MakeClient();
  const int point = data_.dataset.outlier_indices().front();
  const ExplainClient::ExplainReply reply =
      client.Explain("LOF", "Beam", point, 2, /*max_results=*/3);
  ASSERT_TRUE(reply.ok()) << reply.error;
  EXPECT_EQ(reply.ranking.size(), 3u);
  const RankedSubspaces direct = beam_.Explain(data_.dataset, lof_, point, 2);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(reply.ranking.subspaces[i], direct.subspaces[i]);
  }
}

TEST_F(ExplainServerTest, StatsEndpointReportsServerAndServiceCounters) {
  StartServer();
  ExplainClient client = MakeClient();
  ASSERT_TRUE(client.Score("LOF", Subspace({0, 1})).ok());
  const ExplainClient::StatsReply reply = client.Stats();
  ASSERT_TRUE(reply.ok()) << reply.error;
  EXPECT_NE(reply.json.find("\"server\""), std::string::npos);
  EXPECT_NE(reply.json.find("\"services\""), std::string::npos);
  EXPECT_NE(reply.json.find("\"LOF\""), std::string::npos);
  EXPECT_NE(reply.json.find("\"iForest\""), std::string::npos);
  EXPECT_NE(reply.json.find("\"requests_admitted\""), std::string::npos);
  EXPECT_NE(reply.json.find("\"hit_rate\""), std::string::npos);
}

TEST_F(ExplainServerTest, StatsEndpointCarriesLatencyHistograms) {
  StartServer();
  ExplainClient client = MakeClient();
  // The score round trip feeds serve.request (end-to-end, recorded by the
  // server) and detect.score (compute time, recorded by the service).
  ASSERT_TRUE(client.Score("LOF", Subspace({0, 1})).ok());
  const ExplainClient::StatsReply reply = client.Stats();
  ASSERT_TRUE(reply.ok()) << reply.error;
  EXPECT_NE(reply.json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(reply.json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(reply.json.find("\"serve.request\""), std::string::npos);
  EXPECT_NE(reply.json.find("\"serve.queue_wait\""), std::string::npos);
  EXPECT_NE(reply.json.find("\"detect.score\""), std::string::npos);
  EXPECT_NE(reply.json.find("\"p50_ms\""), std::string::npos);
  EXPECT_NE(reply.json.find("\"p90_ms\""), std::string::npos);
  EXPECT_NE(reply.json.find("\"p99_ms\""), std::string::npos);
  // Byte counters and the connection gauge ride along in the registry.
  EXPECT_NE(reply.json.find("\"net.bytes_received\""), std::string::npos);
  EXPECT_NE(reply.json.find("\"serve.connections\""), std::string::npos);
}

TEST_F(ExplainServerTest, InvalidRequestsGetErrorRepliesNotDisconnects) {
  StartServer();
  ExplainClient client = MakeClient();

  ExplainClient::ScoreReply score = client.Score("NoSuch", Subspace({0, 1}));
  EXPECT_EQ(score.status, ClientStatus::kServerError);
  EXPECT_NE(score.error.find("unknown detector"), std::string::npos);

  score = client.Score("LOF", Subspace({0, 99}));
  EXPECT_EQ(score.status, ClientStatus::kServerError);
  EXPECT_NE(score.error.find("out of range"), std::string::npos);

  ExplainClient::ExplainReply explain =
      client.Explain("LOF", "NoSuch", 0, 2);
  EXPECT_EQ(explain.status, ClientStatus::kServerError);
  EXPECT_NE(explain.error.find("unknown explainer"), std::string::npos);

  explain = client.Explain("LOF", "Beam", -1, 2);
  EXPECT_EQ(explain.status, ClientStatus::kServerError);
  explain = client.Explain("LOF", "Beam", 0, 1);
  EXPECT_EQ(explain.status, ClientStatus::kServerError);

  // The connection survived all five rejections.
  EXPECT_TRUE(client.Score("LOF", Subspace({0, 1})).ok());
}

TEST_F(ExplainServerTest, InlineModeWithoutPoolServesRequests) {
  // pool == nullptr runs handlers on the event-loop thread.
  lof_service_ = std::make_unique<ScoringService>(lof_, data_.dataset);
  server_ = std::make_unique<ExplainServer>(ExplainServerOptions{}, nullptr);
  server_->RegisterService(*lof_service_);
  std::string error;
  ASSERT_TRUE(server_->Start(&error)) << error;
  ExplainClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), &error)) << error;
  const Subspace s({2, 5});
  const ExplainClient::ScoreReply reply = client.Score("LOF", s);
  ASSERT_TRUE(reply.ok()) << reply.error;
  EXPECT_EQ(reply.scores, ScoreStandardized(lof_, data_.dataset, s));
}

// The acceptance-criterion test: N concurrent clients, mixed kScore and
// kExplain, every result bitwise identical to the direct in-process call.
TEST_F(ExplainServerTest, ConcurrentMixedClientsMatchInProcessBitwise) {
  StartServer(ExplainServerOptions{}, /*pool_threads=*/3);
  const std::vector<Subspace> subspaces = EnumerateSubspaces(7, 2);
  std::vector<std::vector<double>> expected_scores;
  for (const Subspace& s : subspaces) {
    expected_scores.push_back(ScoreStandardized(lof_, data_.dataset, s));
  }
  const int point = data_.dataset.outlier_indices().front();
  const RankedSubspaces expected_ranking =
      beam_.Explain(data_.dataset, lof_, point, 2);

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 30;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      ExplainClient client;
      std::string error;
      if (!client.Connect("127.0.0.1", server_->port(), &error)) {
        failures.fetch_add(1);
        return;
      }
      for (int r = 0; r < kRequestsPerClient; ++r) {
        if (r % 10 == 9) {
          const ExplainClient::ExplainReply reply =
              client.Explain("LOF", "Beam", point, 2);
          if (!reply.ok()) {
            failures.fetch_add(1);
          } else if (reply.ranking.subspaces != expected_ranking.subspaces ||
                     reply.ranking.scores != expected_ranking.scores) {
            mismatches.fetch_add(1);
          }
        } else {
          const std::size_t i = (r + t * 7) % subspaces.size();
          const ExplainClient::ScoreReply reply =
              client.Score("LOF", subspaces[i]);
          if (!reply.ok()) {
            failures.fetch_add(1);
          } else if (reply.scores != expected_scores[i]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0)
      << "served results must be bitwise identical to in-process calls";
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kClients) * kRequestsPerClient;
  EXPECT_EQ(server_->stats().requests_admitted, expected);
  // The loop thread increments responses_sent just after the final send(),
  // so a client can observe its reply marginally before the counter.
  EXPECT_TRUE(
      WaitFor([&] { return server_->stats().responses_sent == expected; }));
  EXPECT_EQ(server_->stats().protocol_errors, 0u);
}

TEST_F(ExplainServerTest, FullQueueRepliesBusyImmediately) {
  std::atomic<bool> gate{false};
  GateDetector gated(lof_, &gate);
  pool_ = std::make_unique<ThreadPool>(2);
  ScoringServiceOptions no_cache;
  no_cache.enable_cache = false;
  ScoringService service(gated, data_.dataset, no_cache, pool_.get());
  ExplainServerOptions options;
  options.queue_capacity = 1;  // One admitted request fills the queue.
  server_ = std::make_unique<ExplainServer>(options, pool_.get());
  server_->RegisterService(service);
  std::string error;
  ASSERT_TRUE(server_->Start(&error)) << error;

  // Client A's request is admitted, then blocks on the gate.
  const Subspace s1({0, 1});
  std::thread blocked([&] {
    ExplainClient client;
    std::string connect_error;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), &connect_error));
    const ExplainClient::ScoreReply reply = client.Score("LOF", s1);
    EXPECT_TRUE(reply.ok()) << reply.error;
    EXPECT_EQ(reply.scores, ScoreStandardized(lof_, data_.dataset, s1));
  });
  ASSERT_TRUE(
      WaitFor([&] { return server_->stats().requests_admitted == 1; }));

  // Client B is rejected instantly: no retries configured.
  ExplainClientOptions no_retry;
  no_retry.max_busy_retries = 0;
  ExplainClient rejected = MakeClient(no_retry);
  const ExplainClient::ScoreReply busy = rejected.Score("LOF", Subspace({2, 3}));
  EXPECT_EQ(busy.status, ClientStatus::kBusy);
  EXPECT_GE(server_->stats().busy_rejections, 1u);

  // With retries, the same request succeeds once the gate opens.
  gate.store(true, std::memory_order_release);
  blocked.join();
  ExplainClientOptions with_retry;
  with_retry.max_busy_retries = 20;
  ExplainClient retrying = MakeClient(with_retry);
  const Subspace s2({2, 3});
  const ExplainClient::ScoreReply reply = retrying.Score("LOF", s2);
  ASSERT_TRUE(reply.ok()) << reply.error;
  EXPECT_EQ(reply.scores, ScoreStandardized(lof_, data_.dataset, s2));
}

TEST_F(ExplainServerTest, GracefulShutdownDrainsInFlightRequests) {
  std::atomic<bool> gate{false};
  GateDetector gated(lof_, &gate);
  pool_ = std::make_unique<ThreadPool>(2);
  ScoringService service(gated, data_.dataset, ScoringServiceOptions{},
                         pool_.get());
  server_ = std::make_unique<ExplainServer>(ExplainServerOptions{},
                                            pool_.get());
  server_->RegisterService(service);
  std::string error;
  ASSERT_TRUE(server_->Start(&error)) << error;

  const Subspace s({3, 4});
  std::thread requester([&] {
    ExplainClient client;
    std::string connect_error;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), &connect_error));
    const ExplainClient::ScoreReply reply = client.Score("LOF", s);
    // The in-flight request must complete with the real result, not an
    // aborted connection.
    ASSERT_TRUE(reply.ok()) << reply.error;
    EXPECT_EQ(reply.scores, ScoreStandardized(lof_, data_.dataset, s));
  });
  ASSERT_TRUE(
      WaitFor([&] { return server_->stats().requests_admitted == 1; }));

  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    gate.store(true, std::memory_order_release);
  });
  server_->Stop();  // Must block until the response above is flushed.
  EXPECT_FALSE(server_->running());
  requester.join();
  releaser.join();
  const ServerStatsSnapshot stats = server_->stats();
  EXPECT_EQ(stats.requests_admitted, 1u);
  EXPECT_EQ(stats.responses_sent, 1u);
}

TEST_F(ExplainServerTest, OversizedFrameClosesConnection) {
  StartServer();
  std::string error;
  Socket raw = ConnectTcp("127.0.0.1", server_->port(), 2000, &error);
  ASSERT_TRUE(raw.valid()) << error;
  // Length prefix far above max_frame_bytes: unrecoverable protocol error.
  const std::uint8_t huge[4] = {0xFF, 0xFF, 0xFF, 0x7F};
  ASSERT_TRUE(SendAll(raw.fd(), huge, sizeof(huge), 1000, &error)) << error;
  // The server answers kError and closes; eventually we observe EOF.
  std::uint8_t buf[256];
  bool saw_eof = false;
  for (int i = 0; i < 100 && !saw_eof; ++i) {
    std::size_t received = 0;
    if (!RecvSome(raw.fd(), buf, sizeof(buf), 100, &received, &error)) break;
    if (received == 0) saw_eof = true;
  }
  EXPECT_TRUE(saw_eof);
  EXPECT_TRUE(WaitFor([&] { return server_->stats().protocol_errors >= 1; }));
}

TEST_F(ExplainServerTest, IdleConnectionsAreTimedOut) {
  ExplainServerOptions options;
  options.idle_timeout_ms = 50;
  StartServer(options);
  ExplainClient client = MakeClient();
  ASSERT_TRUE(client.Score("LOF", Subspace({0, 1})).ok());
  EXPECT_TRUE(WaitFor([&] { return server_->stats().timeouts >= 1; }))
      << "an idle connection should be reaped";
}

TEST_F(ExplainServerTest, MalformedTraceHeaderGetsErrorNotCrash) {
  StartServer();
  std::string error;
  Socket raw = ConnectTcp("127.0.0.1", server_->port(), 2000, &error);
  ASSERT_TRUE(raw.valid()) << error;
  // A 10-byte kScore header with the trace flag set but no trace id bytes:
  // the header decoder must reject it (sticky reader error), the server
  // must answer kError and close — never read past the frame.
  WireWriter writer;
  writer.PutU8(kProtocolVersion);
  writer.PutU8(static_cast<std::uint8_t>(MessageType::kScore) | kTraceIdFlag);
  writer.PutU64(1);
  const std::vector<std::uint8_t> frame = EncodeFrame(writer.bytes());
  ASSERT_TRUE(SendAll(raw.fd(), frame.data(), frame.size(), 1000, &error))
      << error;
  std::uint8_t buf[256];
  bool saw_eof = false;
  for (int i = 0; i < 100 && !saw_eof; ++i) {
    std::size_t received = 0;
    if (!RecvSome(raw.fd(), buf, sizeof(buf), 100, &received, &error)) break;
    if (received == 0) saw_eof = true;
  }
  EXPECT_TRUE(saw_eof);
  EXPECT_TRUE(WaitFor([&] { return server_->stats().protocol_errors >= 1; }));
  // The server survived: a well-formed client still gets served.
  ExplainClient client = MakeClient();
  EXPECT_TRUE(client.Score("LOF", Subspace({0, 1})).ok());
}

/// Sends `method path` to the server's HTTP metrics listener and returns
/// the raw response (empty on connect failure).
std::string HttpRequest(std::uint16_t port, const std::string& method,
                        const std::string& path) {
  std::string error;
  Socket sock = ConnectTcp("127.0.0.1", port, 2000, &error);
  if (!sock.valid()) return "";
  const std::string request =
      method + " " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  if (!SendAll(sock.fd(), reinterpret_cast<const std::uint8_t*>(request.data()),
               request.size(), 1000, &error)) {
    return "";
  }
  std::string response;
  std::uint8_t buf[4096];
  for (int i = 0; i < 100; ++i) {
    std::size_t received = 0;
    if (!RecvSome(sock.fd(), buf, sizeof(buf), 500, &received, &error)) break;
    if (received == 0) break;  // Connection: close.
    response.append(reinterpret_cast<const char*>(buf), received);
  }
  return response;
}

TEST_F(ExplainServerTest, MetricsEndpointServesPrometheusText) {
  ExplainServerOptions options;
  options.metrics_port = 0;  // Ephemeral.
  StartServer(options);
  ASSERT_NE(server_->metrics_port(), 0);

  ExplainClient client = MakeClient();
  ASSERT_TRUE(client.Score("LOF", Subspace({0, 1})).ok());

  const std::string response =
      HttpRequest(server_->metrics_port(), "GET", "/metrics");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("subex_serve_request_seconds_count"),
            std::string::npos);
  EXPECT_NE(response.find("subex_server_uptime_seconds"), std::string::npos);

  // Unknown paths 404, non-GET methods 405; both leave the server healthy.
  EXPECT_NE(HttpRequest(server_->metrics_port(), "GET", "/nope").find("404"),
            std::string::npos);
  EXPECT_NE(HttpRequest(server_->metrics_port(), "POST", "/metrics")
                .find("HTTP/1.1 405"),
            std::string::npos);
  EXPECT_TRUE(client.Score("LOF", Subspace({0, 2})).ok());
}

TEST_F(ExplainServerTest, StatsCarriesUptimeAndBuildInfo) {
  StartServer();
  ExplainClient client = MakeClient();
  const ExplainClient::StatsReply reply = client.Stats();
  ASSERT_TRUE(reply.ok()) << reply.error;
  EXPECT_NE(reply.json.find("\"uptime_seconds\""), std::string::npos);
  EXPECT_NE(reply.json.find("\"build_info\""), std::string::npos);
  EXPECT_NE(reply.json.find("\"obs_enabled\""), std::string::npos);
  EXPECT_NE(reply.json.find("\"events\""), std::string::npos);
}

/// Formats an id the way the exporters do ("0x%016llx").
std::string HexId(std::uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

// The tentpole acceptance test: a client-generated trace id propagates over
// the wire and reappears verbatim in the server's Chrome-trace export, on
// spans covering the whole server-side pipeline.
TEST_F(ExplainServerTest, ClientTraceIdSurfacesInTraceDump) {
  StartServer();
  ExplainClient client = MakeClient();
  ASSERT_TRUE(client.Score("LOF", Subspace({0, 1})).ok());
  const std::uint64_t trace_id = client.last_trace_id();
  ASSERT_NE(trace_id, 0u);

  const ExplainClient::TraceDumpReply dump = client.TraceDump();
  ASSERT_TRUE(dump.ok()) << dump.error;
  EXPECT_NE(dump.json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(dump.json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(dump.json.find(HexId(trace_id)), std::string::npos)
      << "client trace id " << HexId(trace_id)
      << " missing from server export";
  // The request's server-side stages are all present.
  EXPECT_NE(dump.json.find("\"serve.request\""), std::string::npos);
  EXPECT_NE(dump.json.find("\"serve.queue_wait\""), std::string::npos);
  EXPECT_NE(dump.json.find("\"detect.score\""), std::string::npos);
  EXPECT_NE(dump.json.find("\"net.write\""), std::string::npos);
}

TEST_F(ExplainServerTest, TraceDumpWithClearResetsTheCollector) {
  StartServer();
  ExplainClient client = MakeClient();
  ASSERT_TRUE(client.Score("LOF", Subspace({0, 1})).ok());
  const std::uint64_t first_id = client.last_trace_id();
  ASSERT_TRUE(client.TraceDump(/*clear=*/true).ok());

  ASSERT_TRUE(client.Score("LOF", Subspace({0, 2})).ok());
  const std::uint64_t second_id = client.last_trace_id();
  const ExplainClient::TraceDumpReply dump = client.TraceDump();
  ASSERT_TRUE(dump.ok()) << dump.error;
  EXPECT_EQ(dump.json.find(HexId(first_id)), std::string::npos)
      << "cleared spans must not reappear";
  EXPECT_NE(dump.json.find(HexId(second_id)), std::string::npos);
}

TEST_F(ExplainServerTest, DistinctRequestsGetDistinctTraceIds) {
  // Per-connection Trace objects are pooled and reused; ids must not leak
  // from one request into the next.
  StartServer();
  ExplainClient client = MakeClient();
  ASSERT_TRUE(client.Score("LOF", Subspace({0, 1})).ok());
  const std::uint64_t first = client.last_trace_id();
  ASSERT_TRUE(client.Score("LOF", Subspace({0, 2})).ok());
  const std::uint64_t second = client.last_trace_id();
  EXPECT_NE(first, second);
  const ExplainClient::TraceDumpReply dump = client.TraceDump();
  ASSERT_TRUE(dump.ok());
  EXPECT_NE(dump.json.find(HexId(first)), std::string::npos);
  EXPECT_NE(dump.json.find(HexId(second)), std::string::npos);
}

TEST_F(ExplainServerTest, UntracedClientsStillGetServerSideSpans) {
  StartServer();
  ExplainClientOptions no_tracing;
  no_tracing.enable_tracing = false;
  ExplainClient client = MakeClient(no_tracing);
  ASSERT_TRUE(client.Score("LOF", Subspace({0, 1})).ok());
  EXPECT_EQ(client.last_trace_id(), 0u);
  // The server assigns its own trace id when the wire header carries none.
  const ExplainClient::TraceDumpReply dump = client.TraceDump();
  ASSERT_TRUE(dump.ok()) << dump.error;
  EXPECT_NE(dump.json.find("\"serve.request\""), std::string::npos);
}

TEST_F(ExplainServerTest, CachedScoreIsAnsweredWhileThePoolIsBlocked) {
  StartGatedServer();
  const Subspace cached({0, 1});
  ExplainClientOptions short_wait;
  short_wait.request_timeout_ms = 2000;  // A queued hit fails, not hangs.
  ExplainClient client = MakeClient(short_wait);
  ASSERT_TRUE(client.Score("LOF", cached).ok());

  gate_.store(false, std::memory_order_release);
  std::thread blocked = ScoreOnAnotherConnection(Subspace({2, 3}));
  EXPECT_TRUE(
      WaitFor([&] { return server_->stats().requests_admitted == 2; }));
  const ExplainClient::ScoreReply reply = client.Score("LOF", cached);
  EXPECT_TRUE(reply.ok()) << reply.error;
  EXPECT_EQ(reply.scores, ScoreStandardized(lof_, data_.dataset, cached));

  gate_.store(true, std::memory_order_release);
  blocked.join();
}

/// One byte stream of LOF kScore frames, one per (request id, subspace).
std::vector<std::uint8_t> PipelinedLofScores(
    std::initializer_list<std::pair<std::uint64_t, Subspace>> requests) {
  std::vector<std::uint8_t> stream;
  for (const auto& [id, subspace] : requests) {
    ScoreRequest request;
    request.detector = "LOF";
    request.subspace = subspace;
    const std::vector<std::uint8_t> frame =
        EncodeFrame(EncodeScoreRequest(id, request));
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  return stream;
}

/// Reads the next kScoreResult frame off `fd` into `*request_id` and
/// `*scores`.
void ReadScoreReply(int fd, FrameDecoder& decoder, std::uint64_t* request_id,
                    std::vector<double>* scores) {
  std::vector<std::uint8_t> payload;
  std::uint8_t buf[4096];
  std::string error;
  while (!decoder.Next(&payload)) {
    std::size_t received = 0;
    ASSERT_TRUE(RecvSome(fd, buf, sizeof(buf), 5000, &received, &error))
        << error;
    ASSERT_GT(received, 0u) << "server closed the connection";
    decoder.Feed(buf, received);
  }
  WireReader reader(payload);
  MessageHeader header;
  ASSERT_TRUE(DecodeHeader(reader, &header));
  ASSERT_EQ(header.type, MessageType::kScoreResult);
  ScoreResult result;
  ASSERT_TRUE(DecodeScoreResult(reader, &result));
  *request_id = header.request_id;
  *scores = std::move(result.scores);
}

TEST_F(ExplainServerTest, HitPipelinedBehindAMissRepliesAfterIt) {
  StartGatedServer();
  const Subspace cached({0, 1});
  const Subspace uncached({2, 3});
  ASSERT_TRUE(MakeClient().Score("LOF", cached).ok());

  gate_.store(false, std::memory_order_release);
  std::string error;
  Socket raw = ConnectTcp("127.0.0.1", server_->port(), 2000, &error);
  ASSERT_TRUE(raw.valid()) << error;
  const std::vector<std::uint8_t> stream =
      PipelinedLofScores({{1, uncached}, {2, cached}});
  ASSERT_TRUE(SendAll(raw.fd(), stream.data(), stream.size(), 2000, &error))
      << error;
  // Both admitted while the miss holds the pool: a hit answered on the
  // loop now would overtake it.
  ASSERT_TRUE(
      WaitFor([&] { return server_->stats().requests_admitted == 3; }));
  gate_.store(true, std::memory_order_release);

  FrameDecoder decoder;
  std::uint64_t id = 0;
  std::vector<double> scores;
  ReadScoreReply(raw.fd(), decoder, &id, &scores);
  EXPECT_EQ(id, 1u) << "response out of order";
  EXPECT_EQ(scores, ScoreStandardized(lof_, data_.dataset, uncached));
  ReadScoreReply(raw.fd(), decoder, &id, &scores);
  EXPECT_EQ(id, 2u);
  EXPECT_EQ(scores, ScoreStandardized(lof_, data_.dataset, cached));
}

/// Every count one kScore moves: the service's, the server's and the
/// registry histograms `kStats` serves.
struct ScoreCounts {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t admitted = 0;
  std::uint64_t responses = 0;
  std::uint64_t score_requests = 0;  ///< serve.request.score count.
  std::uint64_t writes = 0;          ///< net.write count.

  bool operator==(const ScoreCounts&) const = default;
  ScoreCounts operator-(const ScoreCounts& o) const {
    return {hits - o.hits,           misses - o.misses,
            admitted - o.admitted,   responses - o.responses,
            score_requests - o.score_requests, writes - o.writes};
  }
};

std::ostream& operator<<(std::ostream& os, const ScoreCounts& c) {
  return os << "{hits " << c.hits << ", misses " << c.misses << ", admitted "
            << c.admitted << ", responses " << c.responses
            << ", serve.request.score " << c.score_requests << ", net.write "
            << c.writes << "}";
}

ScoreCounts CountsOf(const ExplainServer& server,
                     const ScoringService& service) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  const ServiceStatsSnapshot service_stats = service.stats();
  const ServerStatsSnapshot server_stats = server.stats();
  return {service_stats.hits,
          service_stats.misses,
          server_stats.requests_admitted,
          server_stats.responses_sent,
          registry.GetHistogram("serve.request.score").snapshot().count,
          registry.GetHistogram("net.write").snapshot().count};
}

/// True when `json` (a Chrome trace) has a span `name` in trace `trace_id`.
bool HasSpan(const std::string& json, const std::string& name,
             const std::string& trace_id) {
  const std::string event = "{\"name\":\"" + name + "\"";
  const std::string id = "\"trace_id\":\"" + trace_id + "\"";
  for (std::size_t at = json.find(event); at != std::string::npos;
       at = json.find(event, at + 1)) {
    const std::size_t end = json.find("{\"name\":", at + 1);
    if (json.substr(at, end - at).find(id) != std::string::npos) return true;
  }
  return false;
}

TEST_F(ExplainServerTest, InlineHitCountsLikeAPooledHit) {
  StartGatedServer();
  const Subspace cached({0, 1});
  ExplainClientOptions short_wait;
  short_wait.request_timeout_ms = 2000;  // A queued hit fails, not hangs.
  ExplainClient client = MakeClient(short_wait);
  ASSERT_TRUE(client.Score("LOF", cached).ok());
  ASSERT_TRUE(WaitFor([&] { return server_->stats().responses_sent == 1; }));

  // Inline: the pool is held by another connection's miss.
  gate_.store(false, std::memory_order_release);
  std::thread blocked = ScoreOnAnotherConnection(Subspace({2, 3}));
  EXPECT_TRUE(
      WaitFor([&] { return server_->stats().requests_admitted == 2; }));
  const ScoreCounts before_inline = CountsOf(*server_, *lof_service_);
  EXPECT_TRUE(client.Score("LOF", cached).ok());
  const std::uint64_t inline_trace = client.last_trace_id();
  EXPECT_TRUE(WaitFor([&] { return server_->stats().responses_sent == 2; }));
  const ScoreCounts inline_hit =
      CountsOf(*server_, *lof_service_) - before_inline;
  gate_.store(true, std::memory_order_release);
  blocked.join();
  ASSERT_TRUE(WaitFor([&] { return server_->stats().responses_sent == 3; }));

  // Pooled: the same hit pipelined behind a gated miss on one connection,
  // so it queues behind the miss on the pool. The pair moves a miss's
  // counts plus the pooled hit's.
  const ScoreCounts before_pair = CountsOf(*server_, *lof_service_);
  std::string error;
  Socket raw = ConnectTcp("127.0.0.1", server_->port(), 2000, &error);
  ASSERT_TRUE(raw.valid()) << error;
  gate_.store(false, std::memory_order_release);
  const std::vector<std::uint8_t> stream =
      PipelinedLofScores({{1, Subspace({4, 5})}, {2, cached}});
  ASSERT_TRUE(SendAll(raw.fd(), stream.data(), stream.size(), 2000, &error))
      << error;
  ASSERT_TRUE(
      WaitFor([&] { return server_->stats().requests_admitted == 5; }));
  gate_.store(true, std::memory_order_release);
  FrameDecoder decoder;
  std::uint64_t id = 0;
  std::vector<double> scores;
  ReadScoreReply(raw.fd(), decoder, &id, &scores);
  ReadScoreReply(raw.fd(), decoder, &id, &scores);
  ASSERT_TRUE(WaitFor([&] { return server_->stats().responses_sent == 5; }));
  const ScoreCounts pair = CountsOf(*server_, *lof_service_) - before_pair;
  const ScoreCounts miss{0, 1, 1, 1, 1, 1};

  EXPECT_EQ(inline_hit, (ScoreCounts{1, 0, 1, 1, 1, 1}));
  EXPECT_EQ(pair - miss, inline_hit);

  // The inline hit's traced request wrote its response like any other.
  const ExplainClient::TraceDumpReply dump = client.TraceDump();
  ASSERT_TRUE(dump.ok()) << dump.error;
  EXPECT_TRUE(HasSpan(dump.json, "serve.request", HexId(inline_trace)));
  EXPECT_TRUE(HasSpan(dump.json, "net.write", HexId(inline_trace)));
}

TEST_F(ExplainServerTest, SlowRequestsRetainTheirSpanBreakdown) {
  ExplainServerOptions options;
  options.slow_request_threshold_ms = 0.000001;  // Everything is "slow".
  StartServer(options);
  ExplainClient client = MakeClient();
  ASSERT_TRUE(client.Score("LOF", Subspace({0, 1})).ok());
  const ExplainClient::StatsReply reply = client.Stats();
  ASSERT_TRUE(reply.ok()) << reply.error;
  EXPECT_NE(reply.json.find("\"slow_requests\""), std::string::npos);
  EXPECT_NE(reply.json.find("\"label\":\"score\""), std::string::npos);
  EXPECT_NE(reply.json.find("\"spans\""), std::string::npos);
}

/// The `count` of histogram `name` in a kStats JSON document, or -1 when
/// the histogram is absent.
long long HistogramCount(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\":{\"count\":";
  const std::size_t at = json.find(key);
  if (at == std::string::npos) return -1;
  return std::stoll(json.substr(at + key.size()));
}

// One request of every type, each answered (errors included): every type
// must get its own serve.request.<name> histogram and slow-request label.
TEST_F(ExplainServerTest, EveryRequestTypeHasAHistogramAndASlowLabel) {
  ExplainServerOptions options;
  options.slow_request_threshold_ms = 0.000001;  // Everything is "slow".
  StartServer(options);
  ExplainClient client = MakeClient();
  const int point = data_.dataset.outlier_indices().front();
  EXPECT_TRUE(client.Score("LOF", Subspace({0, 1})).ok());
  EXPECT_TRUE(client.Explain("LOF", "Beam", point, 2).ok());
  EXPECT_TRUE(client.Stats().ok());
  EXPECT_TRUE(client.TraceDump().ok());
  // No online dataset is registered: these three come back as error
  // replies, which still pass through the server's per-type accounting.
  EXPECT_EQ(client.Ingest("stream", 1, {1.0}).status,
            ClientStatus::kServerError);
  EXPECT_EQ(client.OnlineScore("stream", "LODA", Subspace({0})).status,
            ClientStatus::kServerError);
  EXPECT_EQ(client.OnlineExplain("stream", "LODA", "Beam", 0, 2).status,
            ClientStatus::kServerError);
  EXPECT_TRUE(client.ProfDump().ok());

  const ExplainClient::StatsReply reply = client.Stats();
  ASSERT_TRUE(reply.ok()) << reply.error;
  const std::size_t slow = reply.json.find("\"slow_requests\"");
  ASSERT_NE(slow, std::string::npos);
  for (const char* name : {"score", "explain", "stats", "trace_dump", "ingest",
                           "online_score", "online_explain", "prof"}) {
    EXPECT_GE(HistogramCount(reply.json, std::string("serve.request.") + name),
              1)
        << name;
    const std::string label = std::string("\"label\":\"") + name + "\"";
    EXPECT_NE(reply.json.find(label, slow), std::string::npos) << name;
  }
}

TEST_F(ExplainServerTest, IdleTimeoutEmitsAStructuredEvent) {
  ExplainServerOptions options;
  options.idle_timeout_ms = 50;
  StartServer(options);
  ExplainClient client = MakeClient();
  ASSERT_TRUE(client.Score("LOF", Subspace({0, 1})).ok());
  // Leave the connection open and idle so the sweep reaps it.
  ASSERT_TRUE(WaitFor([&] { return server_->stats().timeouts >= 1; }));
  ExplainClient prober = MakeClient();
  const ExplainClient::StatsReply reply = prober.Stats();
  ASSERT_TRUE(reply.ok()) << reply.error;
  EXPECT_NE(reply.json.find("serve.idle_timeout"), std::string::npos);
}

// The kProfDump acceptance loop: start the sampler over the wire, drive
// scoring load, and expect the dumped flamegraph to name the detector
// kernels that actually ran.
TEST_F(ExplainServerTest, ProfDumpRoundTripCapturesDetectorKernelFrames) {
  if (!SamplingProfiler::SupportedOnThisSystem()) {
    GTEST_SKIP() << "per-thread SIGPROF timers unavailable here";
  }
  SamplingProfiler::Global().Clear();
  StartServer();
  ExplainClient client = MakeClient();

  const ExplainClient::ProfDumpReply started = client.ProfStart(997);
  ASSERT_TRUE(started.ok()) << started.error;
  EXPECT_NE(started.text.find("\"running\":true"), std::string::npos)
      << started.text;

  // Distinct subspaces miss the score cache, so every request runs
  // Lof::Score on a pool worker the profiler's sweep (or the thread
  // hooks) attached. Keep scoring until a sample landed in Lof::Score: a
  // fixed sample count can fill up with server and client frames alone.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (SamplingProfiler::Global().ToCollapsedText().find("Lof::Score") ==
             std::string::npos &&
         std::chrono::steady_clock::now() < deadline) {
    for (const Subspace& subspace :
         EnumerateSubspaces(static_cast<int>(data_.dataset.num_features()),
                            3)) {
      ASSERT_TRUE(client.Score("LOF", subspace).ok());
    }
    lof_.Score(data_.dataset, Subspace({0, 1, 2}));  // In-process burn too.
  }

  const ExplainClient::ProfDumpReply dump = client.ProfDump(/*clear=*/false);
  ASSERT_TRUE(dump.ok()) << dump.error;
  ASSERT_FALSE(dump.text.empty());
  EXPECT_NE(dump.text.find(';'), std::string::npos);
  EXPECT_NE(dump.text.find("Lof::Score"), std::string::npos)
      << dump.text.substr(0, 2000);

  const ExplainClient::ProfDumpReply stopped = client.ProfStop();
  ASSERT_TRUE(stopped.ok()) << stopped.error;
  EXPECT_NE(stopped.text.find("\"running\":false"), std::string::npos);
  EXPECT_FALSE(SamplingProfiler::Global().running());
  SamplingProfiler::Global().Clear();
}

TEST_F(ExplainServerTest, ProfDumpWhenSamplerUnsupportedStillReplies) {
  // Without a prior Start the dump is empty text, never an error — the
  // endpoint is safe to poke unconditionally from dashboards.
  StartServer();
  ExplainClient client = MakeClient();
  const ExplainClient::ProfDumpReply dump = client.ProfDump();
  ASSERT_TRUE(dump.ok()) << dump.error;
  EXPECT_TRUE(dump.text.empty());
  const ExplainClient::ProfDumpReply stopped = client.ProfStop();
  ASSERT_TRUE(stopped.ok()) << stopped.error;
  EXPECT_NE(stopped.text.find("\"running\":false"), std::string::npos);
}

TEST(ServerStatsSnapshotTest, ToJsonContainsEveryCounter) {
  ServerStatsSnapshot snap;
  snap.connections_accepted = 3;
  snap.busy_rejections = 7;
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"connections_accepted\":3"), std::string::npos);
  EXPECT_NE(json.find("\"busy_rejections\":7"), std::string::npos);
  EXPECT_NE(json.find("\"timeouts\":0"), std::string::npos);
}

}  // namespace
}  // namespace subex
