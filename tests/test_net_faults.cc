// Injected transport faults against a live client/server pair: EINTR and
// short-read/write resilience, hard failures on either side surfacing as
// clean client statuses, pipelined responses under torn writes, wire
// deadlines expiring in queue and in compute, the retry budget, the
// circuit breaker's open/half-open cycle, and one `net.write` sample per
// sent response under torn and stalled writes.

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "data/generators.h"
#include "detect/lof.h"
#include "explain/beam.h"
#include "fault/fault.h"
#include "net/explain_client.h"
#include "net/explain_server.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "obs/registry.h"
#include "serve/scoring_service.h"

namespace subex {
namespace {

SyntheticDataset SmallHics(std::uint64_t seed = 77) {
  HicsGeneratorConfig config;
  config.num_points = 120;
  config.subspace_dims = {2, 2, 3};  // 7 features.
  config.seed = seed;
  return GenerateHicsDataset(config);
}

/// Blocks every `Score` call while the gate is closed — makes "a request
/// is computing right now" a deterministic state instead of a race.
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

bool WaitFor(const std::function<bool()>& predicate, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return predicate();
}

class NetFaultTest : public ::testing::Test {
 protected:
  void StartServer(const ExplainServerOptions& options = {},
                   std::size_t pool_threads = 2, bool gated = false) {
    gate_.store(true, std::memory_order_release);
    pool_ = std::make_unique<ThreadPool>(pool_threads);
    const Detector* detector = &lof_;
    if (gated) {
      gate_.store(false, std::memory_order_release);
      gated_lof_ = std::make_unique<GateDetector>(lof_, &gate_);
      detector = gated_lof_.get();
    }
    service_ = std::make_unique<ScoringService>(
        *detector, data_.dataset, ScoringServiceOptions{}, pool_.get());
    server_ = std::make_unique<ExplainServer>(options, pool_.get());
    server_->RegisterService(*service_);
    server_->RegisterExplainer("Beam", beam_);
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
  }

  void OpenGate() { gate_.store(true, std::memory_order_release); }

  ExplainClient MakeClient(ExplainClientOptions options = {}) {
    ExplainClient client(options);
    std::string error;
    EXPECT_TRUE(client.Connect("127.0.0.1", server_->port(), &error)) << error;
    return client;
  }

  SyntheticDataset data_ = SmallHics();
  Lof lof_{15};
  Beam beam_;
  std::atomic<bool> gate_{true};
  std::unique_ptr<GateDetector> gated_lof_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<ScoringService> service_;
  std::unique_ptr<ExplainServer> server_;
};

TEST_F(NetFaultTest, ShortReadsAndWritesStillRoundTripBitwise) {
  StartServer();
  const std::vector<double> direct =
      ScoreStandardized(lof_, data_.dataset, Subspace({0, 1}));

  FaultControl control;
  FaultRule torn;
  torn.action = FaultAction::kShort;
  torn.limit = 400;  // Both sides read/write one byte at a time for a while.
  control.Arm(FaultPoint::kSocketRead, torn);
  control.Arm(FaultPoint::kSocketWrite, torn);

  ExplainClient client = MakeClient();
  const ExplainClient::ScoreReply reply = client.Score("LOF", Subspace({0, 1}));
  ASSERT_TRUE(reply.ok()) << reply.error;
  EXPECT_EQ(reply.scores, direct);  // Reassembly is invisible to the payload.
  EXPECT_EQ(client.stats().transport_errors, 0u);
}

TEST_F(NetFaultTest, EintrOnEverySocketOpStillRoundTrips) {
  StartServer();
  FaultControl control;
  FaultRule eintr;
  eintr.action = FaultAction::kEintr;
  eintr.limit = 40;  // Bounded: an unbounded certain EINTR would spin.
  control.Arm(FaultPoint::kSocketRead, eintr);
  control.Arm(FaultPoint::kSocketWrite, eintr);
  control.Arm(FaultPoint::kSocketConnect, eintr);

  ExplainClient client = MakeClient();
  const ExplainClient::ScoreReply reply = client.Score("LOF", Subspace({2}));
  ASSERT_TRUE(reply.ok()) << reply.error;
  EXPECT_EQ(reply.scores,
            ScoreStandardized(lof_, data_.dataset, Subspace({2})));
}

TEST_F(NetFaultTest, HardReadFaultTearsConnectionAndReconnectRecovers) {
  StartServer();
  ExplainClient client = MakeClient();
  ASSERT_TRUE(client.Score("LOF", Subspace({0})).ok());

  {
    FaultControl control;
    FaultRule fail;
    fail.limit = 1;
    control.Arm(FaultPoint::kSocketRead, fail);
    const ExplainClient::ScoreReply reply = client.Score("LOF", Subspace({0}));
    EXPECT_EQ(reply.status, ClientStatus::kTransportError) << reply.error;
    EXPECT_FALSE(client.connected());
  }

  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), &error)) << error;
  const ExplainClient::ScoreReply reply = client.Score("LOF", Subspace({0}));
  ASSERT_TRUE(reply.ok()) << reply.error;
  const ClientStatsSnapshot stats = client.stats();
  EXPECT_EQ(stats.transport_errors, 1u);
  EXPECT_EQ(stats.reconnects, 1u);
}

// The server writes a response through from the pool thread that computed
// it. The client's request send is the first kSocketWrite evaluation, so
// `after = 1` makes that write-through the one that fails: the server must
// tear the connection down, the client must see a transport error, and a
// fresh connection must work.
TEST_F(NetFaultTest, FailedServerWriteTearsConnectionAndReconnectRecovers) {
  StartServer();
  const std::vector<double> direct =
      ScoreStandardized(lof_, data_.dataset, Subspace({0, 3}));
  ExplainClient client = MakeClient();
  ASSERT_TRUE(client.Score("LOF", Subspace({0, 3})).ok());  // Warm the cache.

  {
    FaultControl control;
    FaultRule fail;
    fail.after = 1;
    fail.limit = 1;
    control.Arm(FaultPoint::kSocketWrite, fail);
    const ExplainClient::ScoreReply reply =
        client.Score("LOF", Subspace({0, 3}));
    EXPECT_EQ(reply.status, ClientStatus::kTransportError) << reply.error;
    EXPECT_FALSE(client.connected());
    const FaultStats faults = FaultRegistry::Global().stats();
    const FaultPointStats& write =
        faults.points[static_cast<std::size_t>(FaultPoint::kSocketWrite)];
    EXPECT_EQ(write.evaluations, 2u);  // The client's send, then the server's.
    EXPECT_EQ(write.injected, 1u);
  }
  EXPECT_TRUE(
      WaitFor([&] { return server_->stats().connections_closed >= 1; }));

  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), &error)) << error;
  const ExplainClient::ScoreReply reply = client.Score("LOF", Subspace({0, 3}));
  ASSERT_TRUE(reply.ok()) << reply.error;
  EXPECT_EQ(reply.scores, direct);
  EXPECT_EQ(client.stats().transport_errors, 1u);
}

// Pipelined requests on one raw connection, every send torn to one byte on
// both sides: responses must come back whole, bitwise and in request order
// (a one-thread pool computes them in order; a write-through must never
// overtake a response still queued ahead of it).
TEST_F(NetFaultTest, TornWritesKeepPipelinedResponsesWholeAndInOrder) {
  StartServer({}, /*pool_threads=*/1);
  const std::vector<Subspace> subspaces = {
      Subspace({0, 1}), Subspace({2, 3}), Subspace({4, 5}), Subspace({1, 6}),
      Subspace({0, 1}), Subspace({3}),    Subspace({2, 5, 6}), Subspace({4}),
  };

  FaultControl control;
  FaultRule torn;
  torn.action = FaultAction::kShort;  // Every write, both sides, unlimited.
  control.Arm(FaultPoint::kSocketWrite, torn);

  std::string error;
  Socket socket = ConnectTcp("127.0.0.1", server_->port(), 5000, &error);
  ASSERT_TRUE(socket.valid()) << error;
  std::vector<std::uint8_t> stream;
  for (std::size_t i = 0; i < subspaces.size(); ++i) {
    ScoreRequest request;
    request.detector = "LOF";
    request.subspace = subspaces[i];
    const std::vector<std::uint8_t> frame =
        EncodeFrame(EncodeScoreRequest(100 + i, request));
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(SendAll(socket.fd(), stream.data(), stream.size(), 5000, &error))
      << error;

  FrameDecoder decoder;
  std::vector<std::uint8_t> payload;
  std::uint8_t buf[4096];
  for (std::size_t i = 0; i < subspaces.size(); ++i) {
    while (!decoder.Next(&payload)) {
      std::size_t received = 0;
      ASSERT_TRUE(RecvSome(socket.fd(), buf, sizeof(buf), 5000, &received,
                           &error))
          << error;
      ASSERT_GT(received, 0u) << "server closed after " << i << " responses";
      decoder.Feed(buf, received);
    }
    WireReader reader(payload);
    MessageHeader header;
    ASSERT_TRUE(DecodeHeader(reader, &header));
    ASSERT_EQ(header.type, MessageType::kScoreResult);
    EXPECT_EQ(header.request_id, 100 + i) << "response out of order";
    ScoreResult result;
    ASSERT_TRUE(DecodeScoreResult(reader, &result));
    EXPECT_EQ(result.scores,
              ScoreStandardized(lof_, data_.dataset, subspaces[i]))
        << "response " << i;
  }
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  // The sender counts a response after its last byte left, so the count
  // may trail the client by a moment.
  EXPECT_TRUE(WaitFor(
      [&] { return server_->stats().responses_sent == subspaces.size(); }));
}

/// Scores each point with its row index: any dataset size, no compute.
class IndexDetector : public Detector {
 public:
  std::string name() const override { return "Index"; }
  std::vector<double> Score(const Dataset& data,
                            const Subspace&) const override {
    std::vector<double> scores(data.num_points());
    for (std::size_t p = 0; p < scores.size(); ++p) {
      scores[p] = static_cast<double>(p);
    }
    return scores;
  }
};

// Starts a one-thread server whose only detector is `IndexDetector` over
// `points` points, then sends it two pipelined score requests.
class NetWriteTest : public ::testing::Test {
 protected:
  void StartAndRequest(std::size_t points) {
    Matrix m(points, 1);
    for (std::size_t p = 0; p < points; ++p) m(p, 0) = static_cast<double>(p);
    data_ = Dataset(std::move(m));
    pool_ = std::make_unique<ThreadPool>(1);
    service_ = std::make_unique<ScoringService>(
        detector_, data_, ScoringServiceOptions{}, pool_.get());
    server_ = std::make_unique<ExplainServer>(ExplainServerOptions{},
                                              pool_.get());
    server_->RegisterService(*service_);
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
    socket_ = ConnectTcp("127.0.0.1", server_->port(), 5000, &error);
    ASSERT_TRUE(socket_.valid()) << error;
    std::vector<std::uint8_t> stream;
    for (std::uint64_t id : {200, 201}) {
      ScoreRequest request;
      request.detector = "Index";
      request.subspace = Subspace({0});
      const std::vector<std::uint8_t> frame =
          EncodeFrame(EncodeScoreRequest(id, request));
      stream.insert(stream.end(), frame.begin(), frame.end());
    }
    ASSERT_TRUE(
        SendAll(socket_.fd(), stream.data(), stream.size(), 5000, &error))
        << error;
  }

  // Reads both responses, in order, whole.
  void ReadResponses(std::size_t points) {
    FrameDecoder decoder;
    std::vector<std::uint8_t> payload;
    std::vector<std::uint8_t> buf(1 << 16);
    std::string error;
    for (std::uint64_t id : {200, 201}) {
      while (!decoder.Next(&payload)) {
        std::size_t received = 0;
        ASSERT_TRUE(RecvSome(socket_.fd(), buf.data(), buf.size(), 10000,
                             &received, &error))
            << error;
        ASSERT_GT(received, 0u);
        decoder.Feed(buf.data(), received);
      }
      WireReader reader(payload);
      MessageHeader header;
      ASSERT_TRUE(DecodeHeader(reader, &header));
      EXPECT_EQ(header.request_id, id);
      ScoreResult result;
      ASSERT_TRUE(DecodeScoreResult(reader, &result));
      EXPECT_EQ(result.scores.size(), points);
    }
    ASSERT_TRUE(WaitFor([&] { return server_->stats().responses_sent == 2; }));
  }

  Histogram& write_ = MetricsRegistry::Global().GetHistogram("net.write");
  const HistogramSnapshot before_ = write_.snapshot();
  IndexDetector detector_;
  Dataset data_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<ScoringService> service_;
  std::unique_ptr<ExplainServer> server_;
  Socket socket_;
};

// Every send torn to one byte: thousands of sends per response, one
// `net.write` sample each.
TEST_F(NetWriteTest, TornSendsSampleOncePerSentResponse) {
  FaultControl control;
  FaultRule torn;
  torn.action = FaultAction::kShort;  // Every write, both sides, unlimited.
  control.Arm(FaultPoint::kSocketWrite, torn);
  constexpr std::size_t kPoints = 4000;  // 32 KB per response.
  StartAndRequest(kPoints);
  ReadResponses(kPoints);
  EXPECT_EQ(write_.snapshot().count - before_.count, 2u);
  const FaultStats faults = FaultRegistry::Global().stats();
  const std::size_t write_point =
      static_cast<std::size_t>(FaultPoint::kSocketWrite);
  EXPECT_GT(faults.points[write_point].injected, 2 * kPoints * 8);
}

// Two 4 MB responses to a client that reads nothing for 100 ms once the
// first bytes arrive: the socket fills, the rest waits in the write queue
// and the loop sends it over several flush passes. Still one sample per
// response, and it spans the wait, as the `net.write` span does.
TEST_F(NetWriteTest, QueuedResponseSampleSpansItsWait) {
  constexpr std::size_t kPoints = 500000;
  StartAndRequest(kPoints);
  pollfd readable{socket_.fd(), POLLIN, 0};
  ASSERT_EQ(::poll(&readable, 1, 10000), 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ReadResponses(kPoints);
  const HistogramSnapshot after = write_.snapshot();
  EXPECT_EQ(after.count - before_.count, 2u);
  EXPECT_GE(after.sum - before_.sum, 100'000'000u);
}

TEST_F(NetFaultTest, ConnectFaultSurfacesAndRetrySucceeds) {
  StartServer();
  FaultControl control;
  FaultRule fail;
  fail.limit = 1;
  control.Arm(FaultPoint::kSocketConnect, fail);

  ExplainClient client;
  std::string error;
  EXPECT_FALSE(client.Connect("127.0.0.1", server_->port(), &error));
  EXPECT_NE(error.find("injected"), std::string::npos) << error;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), &error)) << error;
  EXPECT_TRUE(client.Score("LOF", Subspace({0})).ok());
}

TEST_F(NetFaultTest, AcceptFaultDelaysButDoesNotDropConnections) {
  StartServer();
  FaultControl control;
  FaultRule fail;
  fail.limit = 3;  // The level-triggered listener re-signals until clear.
  control.Arm(FaultPoint::kSocketAccept, fail);

  ExplainClient client = MakeClient();
  const ExplainClient::ScoreReply reply = client.Score("LOF", Subspace({1}));
  ASSERT_TRUE(reply.ok()) << reply.error;
}

TEST_F(NetFaultTest, DeadlineExpiresInQueueBehindASlowRequest) {
  StartServer(ExplainServerOptions{}, /*pool_threads=*/1, /*gated=*/true);

  // A: no deadline, blocks the single pool thread on the gate.
  std::thread slow([&] {
    ExplainClient client = MakeClient();
    EXPECT_TRUE(client.Score("LOF", Subspace({0})).ok());
  });
  ASSERT_TRUE(WaitFor([&] { return server_->stats().requests_admitted >= 1; }));

  // B: 30 ms budget, admitted but stuck in the queue behind A.
  ExplainClient::ScoreReply reply_b;
  ClientStatsSnapshot stats_b;
  std::thread expired([&] {
    ExplainClientOptions options;
    options.deadline_ms = 30;
    ExplainClient client = MakeClient(options);
    reply_b = client.Score("LOF", Subspace({1}));
    stats_b = client.stats();
  });
  ASSERT_TRUE(WaitFor([&] { return server_->stats().requests_admitted >= 2; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  OpenGate();
  slow.join();
  expired.join();

  EXPECT_EQ(reply_b.status, ClientStatus::kDeadlineExceeded) << reply_b.error;
  EXPECT_EQ(stats_b.deadline_exceeded, 1u);
  const ServerStatsSnapshot stats = server_->stats();
  EXPECT_GE(stats.deadline_expired_queue, 1u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST_F(NetFaultTest, DeadlineExpiresDuringCompute) {
  StartServer(ExplainServerOptions{}, /*pool_threads=*/1, /*gated=*/true);

  ExplainClient::ScoreReply reply;
  std::thread blocked([&] {
    ExplainClientOptions options;
    options.deadline_ms = 60;  // Survives the queue, dies in compute.
    ExplainClient client = MakeClient(options);
    reply = client.Score("LOF", Subspace({0}));
  });
  ASSERT_TRUE(WaitFor([&] { return server_->stats().requests_admitted >= 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  OpenGate();
  blocked.join();

  EXPECT_EQ(reply.status, ClientStatus::kDeadlineExceeded) << reply.error;
  EXPECT_GE(server_->stats().deadline_expired_compute, 1u);
}

TEST_F(NetFaultTest, ExhaustedRetryBudgetSurfacesBusyImmediately) {
  ExplainServerOptions options;
  options.queue_capacity = 1;
  StartServer(options, /*pool_threads=*/1, /*gated=*/true);

  std::thread slow([&] {
    ExplainClient client = MakeClient();
    EXPECT_TRUE(client.Score("LOF", Subspace({0})).ok());
  });
  ASSERT_TRUE(WaitFor([&] { return server_->stats().requests_admitted >= 1; }));

  ExplainClientOptions no_budget;
  no_budget.retry_budget_initial = 0.0;
  ExplainClient client = MakeClient(no_budget);
  const ExplainClient::ScoreReply reply = client.Score("LOF", Subspace({1}));
  EXPECT_EQ(reply.status, ClientStatus::kBusy);
  const ClientStatsSnapshot stats = client.stats();
  EXPECT_EQ(stats.retries_denied, 1u);
  EXPECT_EQ(stats.busy_retries, 1u);  // The reply was seen...
  EXPECT_EQ(stats.backoff_ns, 0u);    // ...but never slept on or retried.

  OpenGate();
  slow.join();
}

TEST_F(NetFaultTest, CircuitBreakerOpensFailsFastAndRecoversHalfOpen) {
  StartServer();
  ExplainClientOptions options;
  options.breaker_failure_threshold = 2;
  options.breaker_cooldown_ms = 100;
  ExplainClient client = MakeClient(options);
  ASSERT_TRUE(client.Score("LOF", Subspace({0})).ok());

  // Failure 1: an injected send failure on the live connection.
  {
    FaultControl control;
    FaultRule fail;
    fail.limit = 1;
    control.Arm(FaultPoint::kSocketWrite, fail);
    EXPECT_EQ(client.Score("LOF", Subspace({0})).status,
              ClientStatus::kTransportError);
  }
  // Failure 2: the torn connection (the client never reconnects on its
  // own) — this trips the threshold and opens the breaker.
  EXPECT_EQ(client.Score("LOF", Subspace({0})).status,
            ClientStatus::kTransportError);
  // Open: fail fast without touching the socket.
  const ExplainClient::ScoreReply shorted = client.Score("LOF", Subspace({0}));
  EXPECT_EQ(shorted.status, ClientStatus::kCircuitOpen);
  {
    const ClientStatsSnapshot stats = client.stats();
    EXPECT_EQ(stats.circuit_opens, 1u);
    EXPECT_EQ(stats.short_circuits, 1u);
    EXPECT_EQ(stats.transport_errors, 2u);
  }

  // Past the cooldown, the next call is the half-open probe; with the
  // connection re-established it succeeds and closes the breaker.
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), &error)) << error;
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_TRUE(client.Score("LOF", Subspace({0})).ok());
  EXPECT_TRUE(client.Score("LOF", Subspace({0})).ok());
  const ClientStatsSnapshot stats = client.stats();
  EXPECT_EQ(stats.circuit_opens, 1u);   // It never re-opened.
  EXPECT_EQ(stats.short_circuits, 1u);  // Only the one fast failure.
}

}  // namespace
}  // namespace subex
