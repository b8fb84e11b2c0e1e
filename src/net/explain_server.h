#ifndef SUBEX_NET_EXPLAIN_SERVER_H_
#define SUBEX_NET_EXPLAIN_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/thread_pool.h"
#include "explain/point_explainer.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "online/online_dataset.h"
#include "serve/scoring_service.h"

namespace subex {

/// Point-in-time view of an `ExplainServer`'s counters (the `kStats`
/// endpoint serves these plus every registered service's cache stats).
struct ServerStatsSnapshot {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  /// Requests admitted to the queue (each eventually produces a response).
  std::uint64_t requests_admitted = 0;
  std::uint64_t responses_sent = 0;
  /// Requests rejected with `kBusy` because the queue was full.
  std::uint64_t busy_rejections = 0;
  /// Malformed frames/headers (each also closes its connection).
  std::uint64_t protocol_errors = 0;
  /// Connections closed by the idle/write timeout.
  std::uint64_t timeouts = 0;
  /// Requests dropped at queue-dequeue because their deadline had already
  /// expired (answered `kDeadlineExceeded` without computing).
  std::uint64_t deadline_expired_queue = 0;
  /// Requests whose deadline expired during computation (the computed
  /// result is discarded and replaced with `kDeadlineExceeded`).
  std::uint64_t deadline_expired_compute = 0;

  std::string ToJson() const;
};

/// Knobs of an `ExplainServer`.
struct ExplainServerOptions {
  /// IPv4 address to bind (loopback by default — the testbed's benches and
  /// tests talk to themselves).
  std::string host = "127.0.0.1";
  /// TCP port; 0 asks the kernel for an ephemeral port (read `port()` after
  /// `Start`).
  std::uint16_t port = 0;
  int listen_backlog = 64;
  /// Bound on admitted-but-unfinished requests across all connections.
  /// At the bound, new requests are answered `kBusy` immediately — the
  /// server sheds load instead of buffering it (clients retry with
  /// backoff). Must be >= 1.
  std::size_t queue_capacity = 256;
  /// Per-frame payload ceiling; a larger length prefix is a protocol error.
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// A connection with no read/write progress and no in-flight work for
  /// this long is closed. <= 0 disables the timeout.
  int idle_timeout_ms = 30000;
  /// Graceful-shutdown budget: `Stop` waits this long for in-flight
  /// requests to finish and responses to flush before closing connections.
  int drain_timeout_ms = 10000;
  /// Per-thread ring capacity the process `SpanCollector` is enabled with
  /// at `Start` (skipped when the collector is already enabled, so a dump
  /// in progress isn't discarded). 0 leaves the collector alone — spans
  /// still reach it if something else enabled it. Keep modest: a
  /// `kTraceDump` response must fit the client's frame cap.
  std::size_t trace_ring_capacity = 2048;
  /// Requests slower end-to-end than this retain their full span breakdown
  /// (served under `kStats` "slow_requests"). 0 disables; fractional
  /// values < 1 ms work (tests use tiny thresholds).
  double slow_request_threshold_ms = 0.0;
  /// Slow-request ring size.
  std::size_t slow_request_capacity = 32;
  /// Port of the optional plain-HTTP listener serving `GET /metrics` in
  /// Prometheus text format (same bind host). -1 disables it, 0 asks for
  /// an ephemeral port (read `metrics_port()` after `Start`).
  int metrics_port = -1;
};

/// Networked explanation server: a single poll()-based event-loop thread
/// multiplexes every connection, decodes length-prefixed request frames,
/// and hands the compute — detector scoring through a `ScoringService`,
/// point explanation through a registered `PointExplainer` — to the shared
/// `ThreadPool`, so slow explanations never stall the loop. A kScore whose
/// vector is already cached, on a connection with nothing else in flight,
/// is answered on the loop itself: it never reaches a detector.
///
/// Flow control is admission-based: at most `queue_capacity` requests may
/// be in flight; beyond that the loop replies `kBusy` without touching the
/// pool (no unbounded buffering anywhere — frames are bounded by
/// `max_frame_bytes`, admissions by the queue, responses by admissions).
/// `Stop` performs a graceful drain: the listener closes, reading stops,
/// in-flight requests run to completion and their responses are flushed
/// (up to `drain_timeout_ms`) before connections are torn down.
///
/// Register every service/explainer before `Start`; the registry is
/// read-only while the loop runs. Handlers are thread-safe by construction:
/// `ScoringService` is concurrent, explainers are stateless, and responses
/// are serialized per connection under a mutex. A handler whose response
/// finds the connection's write queue empty sends it itself; the loop
/// flushes only what the socket did not take.
class ExplainServer {
 public:
  /// `pool == nullptr` runs handlers inline on the event-loop thread
  /// (single-threaded service, still correct — useful for tests).
  explicit ExplainServer(const ExplainServerOptions& options = {},
                         ThreadPool* pool = nullptr);
  /// Stops (gracefully) if still running.
  ~ExplainServer();

  ExplainServer(const ExplainServer&) = delete;
  ExplainServer& operator=(const ExplainServer&) = delete;

  /// Exposes `service` under its detector name (`kScore`'s and `kExplain`'s
  /// `detector` field). The service must outlive the server.
  void RegisterService(ScoringService& service);
  /// Exposes `explainer` under `name` for `kExplain`. Must outlive the
  /// server.
  void RegisterExplainer(const std::string& name,
                         const PointExplainer& explainer);
  /// Exposes `dataset` under its name for `kIngest`/`kOnlineScore`/
  /// `kOnlineExplain` (online explanations reuse the registered
  /// explainers). Must outlive the server; register scorers on the dataset
  /// before `Start`.
  void RegisterOnlineDataset(OnlineDataset& dataset);

  /// Binds, listens and starts the event-loop thread. False + `*error` on
  /// failure (e.g. port in use).
  bool Start(std::string* error = nullptr);

  /// Graceful shutdown: drains in-flight work, flushes responses, joins
  /// the loop thread. Idempotent.
  void Stop();

  /// True between a successful `Start` and `Stop`.
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound TCP port (valid after `Start`).
  std::uint16_t port() const { return port_; }

  /// The bound HTTP metrics port (valid after `Start` when enabled).
  std::uint16_t metrics_port() const { return metrics_port_; }

  ServerStatsSnapshot stats() const;

  const ExplainServerOptions& options() const { return options_; }

 private:
  struct Connection;
  struct HttpConnection;

  /// One row of the request table. `name` is the suffix of the type's
  /// `serve.request.<name>` histogram and its slow-request label.
  struct RequestType {
    MessageType type;
    const char* name;
    std::vector<std::uint8_t> (ExplainServer::*handler)(
        std::uint64_t request_id, WireReader& reader);
  };
  /// Every request type the server admits; admission, per-type metrics,
  /// slow-request labels and dispatch all read this one table.
  static const RequestType kRequestTypes[];
  /// `type`'s row, or nullptr when the server does not serve it.
  static const RequestType* FindRequestType(MessageType type);

  void Loop();
  void AcceptNewConnections();
  void AcceptMetricsConnections();
  /// Reads an HTTP request; builds the response once the header is
  /// complete. Returns false when the connection should be closed.
  bool HandleHttpReadable(HttpConnection& conn);
  /// Flushes the HTTP response. Returns false when done or on error.
  bool HandleHttpWritable(HttpConnection& conn);
  std::string BuildMetricsHttpResponse(const std::string& request_text);
  /// Reads, frames and dispatches one ready connection. Returns false when
  /// the connection should be closed.
  bool HandleReadable(const std::shared_ptr<Connection>& conn);
  /// Loop side of `FlushLocked`: flushes on POLLOUT. Returns false on a
  /// fatal write error or when a write-through already failed.
  bool HandleWritable(const std::shared_ptr<Connection>& conn);
  /// The one send loop, shared by `HandleWritable` and the write-through
  /// in `EnqueueResponse`: sends as much of the write queue as the socket
  /// accepts, recording each finished frame's `net.write` span. Caller
  /// holds `conn.mutex`. Returns false on a fatal write error.
  bool FlushLocked(Connection& conn);
  /// Admission control + dispatch of one decoded frame.
  void DispatchFrame(const std::shared_ptr<Connection>& conn,
                     std::vector<std::uint8_t> payload);
  /// Runs on the pool, or on the loop for a cache hit or without a pool:
  /// decodes the body, computes, enqueues the response. `kind` is the
  /// header type's `kRequestTypes` row. `admitted` is the admission
  /// instant — queue wait (admission to start of compute) and end-to-end
  /// latency (admission to response enqueued) both measure from it. A
  /// non-null `hit` is the kScore's cached vector, which the response
  /// encodes in place of running the handler.
  void HandleRequest(const std::shared_ptr<Connection>& conn,
                     MessageHeader header, const RequestType& kind,
                     std::vector<std::uint8_t> payload,
                     std::chrono::steady_clock::time_point admitted,
                     ScoreVectorPtr hit = nullptr);
  /// Decodes a kScore body into `*request` and returns the service it
  /// names, or null with `*error` set when the body is malformed, the
  /// detector unknown or a feature out of range.
  ScoringService* FindScoreService(WireReader& reader, ScoreRequest* request,
                                   std::string* error);
  std::vector<std::uint8_t> HandleScore(std::uint64_t request_id,
                                        WireReader& reader);
  std::vector<std::uint8_t> HandleExplain(std::uint64_t request_id,
                                          WireReader& reader);
  std::vector<std::uint8_t> HandleStats(std::uint64_t request_id,
                                        WireReader& reader);
  std::vector<std::uint8_t> HandleTraceDump(std::uint64_t request_id,
                                            WireReader& reader);
  std::vector<std::uint8_t> HandleIngest(std::uint64_t request_id,
                                         WireReader& reader);
  std::vector<std::uint8_t> HandleOnlineScore(std::uint64_t request_id,
                                              WireReader& reader);
  std::vector<std::uint8_t> HandleOnlineExplain(std::uint64_t request_id,
                                                WireReader& reader);
  std::vector<std::uint8_t> HandleProfDump(std::uint64_t request_id,
                                           WireReader& reader);
  /// Queues a response frame; when nothing is queued ahead of it, writes
  /// it through on the calling thread. A failed write-through marks the
  /// connection broken for the loop to close. Never wakes the loop: pool
  /// callers follow up with `FinishRequest`, and the loop itself
  /// polls the queue on its next pass. `trace_id`/`parent_span_id` label
  /// the response's `net.write` span (0 = untraced).
  void EnqueueResponse(const std::shared_ptr<Connection>& conn,
                       std::vector<std::uint8_t> payload,
                       std::uint64_t trace_id = 0,
                       std::uint64_t parent_span_id = 0);
  /// Retires one admitted request of `conn` after its response was
  /// enqueued. Wakes the loop only if it has something to do: bytes left
  /// to send, a broken connection, a pending close, or a drain waiting on
  /// in-flight work.
  void FinishRequest(Connection& conn);
  void CloseConnection(const std::shared_ptr<Connection>& conn);
  /// Nudges the poll loop out of its wait (self-pipe trick).
  void Wake();

  ExplainServerOptions options_;
  ThreadPool* pool_;
  std::unordered_map<std::string, ScoringService*> services_;
  std::unordered_map<std::string, const PointExplainer*> explainers_;
  std::unordered_map<std::string, OnlineDataset*> online_;

  Socket listener_;
  Socket metrics_listener_;
  Socket wake_read_;
  Socket wake_write_;
  std::uint16_t port_ = 0;
  std::uint16_t metrics_port_ = 0;
  std::thread loop_thread_;
  std::mutex lifecycle_mutex_;  // Serializes Start/Stop.
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};

  /// Admitted-but-unfinished requests (the bounded queue's fill level).
  std::atomic<std::size_t> in_flight_{0};

  // Global-registry instruments (looked up once here, recorded lock-free
  // on the request path; the kStats endpoint serves the whole registry).
  Histogram* request_histogram_;     ///< serve.request (admit -> enqueued).
  Histogram* queue_wait_histogram_;  ///< serve.queue_wait (admit -> start).
  Histogram* write_histogram_;       ///< net.write (enqueue to sent).
  /// serve.request.<name>, one per `kRequestTypes` row, in table order.
  std::vector<Histogram*> request_type_histograms_;
  Histogram* explain_search_histogram_;   ///< explain.search (handler side).
  Counter* bytes_received_;          ///< net.bytes_received.
  Counter* bytes_sent_;              ///< net.bytes_sent.
  Counter* deadline_queue_counter_;    ///< serve.deadline_expired_queue.
  Counter* deadline_compute_counter_;  ///< serve.deadline_expired_compute.
  Gauge* connections_gauge_;         ///< serve.connections (open right now).
  Gauge* uptime_gauge_;              ///< server.uptime_seconds.

  /// Set at `Start`; feeds the uptime gauge at stats/metrics render time.
  std::chrono::steady_clock::time_point started_at_{};

  /// Created at `Start` when `slow_request_threshold_ms > 0`.
  std::unique_ptr<SlowRequestCapture> slow_capture_;

  // Counters (relaxed atomics; see ServiceStats for the precedent).
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_closed_{0};
  std::atomic<std::uint64_t> requests_admitted_{0};
  std::atomic<std::uint64_t> responses_sent_{0};
  std::atomic<std::uint64_t> busy_rejections_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> deadline_expired_queue_{0};
  std::atomic<std::uint64_t> deadline_expired_compute_{0};

  /// Live connections, keyed by fd. Owned by the loop thread; handlers
  /// hold their own shared_ptr and never touch this map.
  std::unordered_map<int, std::shared_ptr<Connection>> connections_;

  /// Live HTTP metrics connections. Loop-thread only — the tiny `/metrics`
  /// exchanges are handled inline, never on the pool.
  std::unordered_map<int, std::unique_ptr<HttpConnection>> http_connections_;
};

}  // namespace subex

#endif  // SUBEX_NET_EXPLAIN_SERVER_H_
