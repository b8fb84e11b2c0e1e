#ifndef SUBEX_NET_EXPLAIN_CLIENT_H_
#define SUBEX_NET_EXPLAIN_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "explain/explanation.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "subspace/subspace.h"

namespace subex {

/// How a client call ended.
enum class ClientStatus {
  kOk,              ///< Result decoded successfully.
  kBusy,            ///< Server shed the request even after every retry.
  kServerError,     ///< Server replied `kError`; see `error`.
  kTransportError,  ///< Socket/framing failure; the connection is dead.
  kDeadlineExceeded,  ///< Server dropped the request past its deadline.
  kCircuitOpen,     ///< Failed fast: the circuit breaker is open.
};

/// Point-in-time view of one client's transport counters — makes the
/// otherwise-invisible `kBusy` absorption loop observable (how many
/// backpressure bounces, how long the backoff sleeps added up to, whether
/// the connection had to be re-established).
struct ClientStatsSnapshot {
  std::uint64_t requests = 0;       ///< Round trips attempted.
  std::uint64_t busy_retries = 0;   ///< `kBusy` replies absorbed by retry.
  std::uint64_t reconnects = 0;     ///< Successful `Connect`s after the first.
  std::uint64_t transport_errors = 0;  ///< Socket/framing failures.
  std::uint64_t backoff_ns = 0;     ///< Cumulative busy-backoff sleep time.
  /// Busy retries NOT taken because the retry budget was exhausted (the
  /// call surfaced `kBusy` instead of hammering the server).
  std::uint64_t retries_denied = 0;
  /// Closed -> open transitions of the circuit breaker.
  std::uint64_t circuit_opens = 0;
  /// Round trips failed fast while the breaker was open.
  std::uint64_t short_circuits = 0;
  /// `kDeadlineExceeded` replies received.
  std::uint64_t deadline_exceeded = 0;

  double BackoffSeconds() const {
    return static_cast<double>(backoff_ns) * 1e-9;
  }
  /// Element-wise accumulation (e.g. across one client per load thread).
  void Merge(const ClientStatsSnapshot& other);
  /// `{"requests":N,...,"backoff_seconds":...}` for bench reports.
  std::string ToJson() const;
};

/// Knobs of an `ExplainClient`.
struct ExplainClientOptions {
  int connect_timeout_ms = 5000;
  /// Deadline of one request/response round trip (excluding busy backoff).
  int request_timeout_ms = 30000;
  /// How many times a `kBusy` reply is retried before giving up.
  int max_busy_retries = 8;
  /// Backoff before the first retry; doubles per retry up to the cap.
  int busy_backoff_initial_ms = 1;
  int busy_backoff_max_ms = 200;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Relative deadline stamped on every request (milliseconds of budget;
  /// the server drops work still queued or computing past it and replies
  /// `kDeadlineExceeded`). 0 disables — frames keep the old format.
  std::uint32_t deadline_ms = 0;
  /// Retry budget (token bucket): the bucket starts at
  /// `retry_budget_initial` tokens, each busy retry spends one, and every
  /// successful round trip refills `retry_budget_per_success` (capped at
  /// the initial depth). An empty bucket turns `kBusy` around immediately
  /// instead of retrying — bounding aggregate retry volume under overload,
  /// where the old unbounded busy-retry loop amplified congestion.
  double retry_budget_initial = 32.0;
  double retry_budget_per_success = 0.5;
  /// Circuit breaker: after this many consecutive transport failures the
  /// breaker opens and calls fail fast (`kCircuitOpen`) for
  /// `breaker_cooldown_ms`; the first call after the cooldown is the
  /// half-open probe — success closes the breaker, failure re-opens it.
  /// 0 disables the breaker.
  int breaker_failure_threshold = 5;
  int breaker_cooldown_ms = 1000;
  /// Stamp every request with a fresh trace id (propagated in the wire
  /// header and continued server-side) and record a "client.request" span
  /// to this process's `SpanCollector` when it is enabled. Off the wire
  /// this costs nothing when the collector is disabled.
  bool enable_tracing = true;
};

/// Blocking client of an `ExplainServer`: connect once, then issue
/// synchronous `Score`/`Explain`/`Stats` round trips. A `kBusy` reply (the
/// server's backpressure signal) is retried transparently with capped
/// exponential backoff; every other failure is surfaced in the reply's
/// status. Not thread-safe — use one client per thread (the load
/// generator's model) or add external locking.
class ExplainClient {
 public:
  explicit ExplainClient(const ExplainClientOptions& options = {});

  /// Connects to `host:port`. False + `*error` on refusal/timeout.
  bool Connect(const std::string& host, std::uint16_t port,
               std::string* error = nullptr);
  void Disconnect();
  bool connected() const { return socket_.valid(); }

  struct ScoreReply {
    ClientStatus status = ClientStatus::kTransportError;
    std::string error;
    std::vector<double> scores;
    bool ok() const { return status == ClientStatus::kOk; }
  };
  struct ExplainReply {
    ClientStatus status = ClientStatus::kTransportError;
    std::string error;
    RankedSubspaces ranking;
    bool ok() const { return status == ClientStatus::kOk; }
  };
  struct StatsReply {
    ClientStatus status = ClientStatus::kTransportError;
    std::string error;
    std::string json;
    bool ok() const { return status == ClientStatus::kOk; }
  };
  struct TraceDumpReply {
    ClientStatus status = ClientStatus::kTransportError;
    std::string error;
    std::string json;  ///< Chrome trace-event JSON (Perfetto-loadable).
    bool ok() const { return status == ClientStatus::kOk; }
  };
  struct ProfDumpReply {
    ClientStatus status = ClientStatus::kTransportError;
    std::string error;
    /// Collapsed flamegraph stacks (`kDump`) or a status JSON
    /// (`kStart`/`kStop`); see `ProfDumpResult`.
    std::string text;
    bool ok() const { return status == ClientStatus::kOk; }
  };
  struct IngestReply {
    ClientStatus status = ClientStatus::kTransportError;
    std::string error;
    IngestResult result;
    bool ok() const { return status == ClientStatus::kOk; }
  };
  struct OnlineScoreReply {
    ClientStatus status = ClientStatus::kTransportError;
    std::string error;
    std::uint64_t epoch = 0;
    std::vector<double> scores;
    bool ok() const { return status == ClientStatus::kOk; }
  };
  struct OnlineExplainReply {
    ClientStatus status = ClientStatus::kTransportError;
    std::string error;
    std::uint64_t computed_epoch = 0;
    std::uint64_t current_epoch = 0;
    RankedSubspaces ranking;
    bool ok() const { return status == ClientStatus::kOk; }
    /// The window advanced between pinning and replying.
    bool stale() const { return computed_epoch < current_epoch; }
  };

  /// `kScore`: standardized score vector of `subspace` under `detector`.
  ScoreReply Score(const std::string& detector, const Subspace& subspace);
  /// `kExplain`: ranked explaining subspaces of one point.
  ExplainReply Explain(const std::string& detector,
                       const std::string& explainer, int point, int target_dim,
                       std::uint32_t max_results = 0);
  /// `kStats`: server + service counters as a JSON document.
  StatsReply Stats();
  /// `kTraceDump`: the server's collected spans as Chrome trace-event JSON
  /// (`clear` resets the server's collector after the dump).
  TraceDumpReply TraceDump(bool clear = false);
  /// `kProfDump`/`ProfAction::kStart`: arm the server's sampling profiler
  /// (`sample_hz` 0 = server default). The reply text reports
  /// running/supported — an unsupported server answers gracefully rather
  /// than with `kError`.
  ProfDumpReply ProfStart(std::uint32_t sample_hz = 0);
  /// `kProfDump`/`ProfAction::kStop`: disarm; samples stay dumpable.
  ProfDumpReply ProfStop();
  /// `kProfDump`/`ProfAction::kDump`: collapsed-stack flamegraph text of
  /// the server's samples (`clear` resets the rings after the dump).
  ProfDumpReply ProfDump(bool clear = false);
  /// `kIngest`: append row-major points to online dataset `dataset`
  /// (`values.size()` must be a positive multiple of `num_rows`).
  IngestReply Ingest(const std::string& dataset, std::uint32_t num_rows,
                     std::vector<double> values);
  /// `kOnlineScore`: standardized scores of the current window.
  OnlineScoreReply OnlineScore(const std::string& dataset,
                               const std::string& detector,
                               const Subspace& subspace);
  /// `kOnlineExplain`: explain window row `point`, with freshness epochs.
  OnlineExplainReply OnlineExplain(const std::string& dataset,
                                   const std::string& detector,
                                   const std::string& explainer, int point,
                                   int target_dim,
                                   std::uint32_t max_results = 0);

  /// Trace id stamped on the most recent request (0 when tracing is off).
  /// Lets callers correlate a reply with the span that will surface in a
  /// later `TraceDump`.
  std::uint64_t last_trace_id() const { return last_trace_id_; }

  /// Total `kBusy` replies absorbed by the retry loop (load-test metric).
  std::uint64_t busy_replies_seen() const { return busy_replies_seen_; }

  /// Counter snapshot (retries/reconnects/backoff/transport errors).
  ClientStatsSnapshot stats() const;

  const ExplainClientOptions& options() const { return options_; }

 private:
  /// Sends `request` and blocks for the response with the echoed id,
  /// absorbing busy retries. Returns the response header type via `*type`
  /// and leaves the body in `*body`; kTransportError on socket failure.
  ClientStatus RoundTrip(const std::vector<std::uint8_t>& request,
                         std::uint64_t request_id, MessageType* type,
                         std::vector<std::uint8_t>* body, std::string* error);
  /// One send + matching receive without retry.
  bool SendAndReceive(const std::vector<std::uint8_t>& request,
                      std::uint64_t request_id, MessageHeader* header,
                      std::vector<std::uint8_t>* body, std::string* error);
  /// Shared body of the three `Prof*` calls.
  ProfDumpReply ProfRoundTrip(const ProfDumpRequest& request);
  /// Fresh trace id when tracing is on (also remembered in
  /// `last_trace_id_`); 0 otherwise.
  std::uint64_t BeginTrace();
  /// Records the finished "client.request" span covering one round trip
  /// (no-op when the collector is disabled or `trace_id` is 0).
  void RecordClientSpan(const char* name, std::uint64_t trace_id,
                        std::chrono::steady_clock::time_point start);

  /// Transport success/failure bookkeeping shared by the retry budget and
  /// the circuit breaker.
  void NoteTransportSuccess();
  void NoteTransportFailure();

  ExplainClientOptions options_;
  Socket socket_;
  FrameDecoder decoder_;
  std::uint64_t next_request_id_ = 1;
  std::uint64_t last_trace_id_ = 0;
  std::uint64_t busy_replies_seen_ = 0;
  // Plain counters (the client is single-threaded by contract).
  std::uint64_t requests_ = 0;
  std::uint64_t connects_ = 0;
  std::uint64_t transport_errors_ = 0;
  std::uint64_t backoff_ns_ = 0;
  std::uint64_t retries_denied_ = 0;
  std::uint64_t circuit_opens_ = 0;
  std::uint64_t short_circuits_ = 0;
  std::uint64_t deadline_exceeded_ = 0;
  // Retry-budget / breaker state (see the options for semantics).
  double retry_tokens_ = 0.0;
  int consecutive_failures_ = 0;
  bool breaker_open_ = false;
  std::chrono::steady_clock::time_point breaker_opened_at_{};
};

}  // namespace subex

#endif  // SUBEX_NET_EXPLAIN_CLIENT_H_
