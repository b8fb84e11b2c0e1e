#include "net/explain_client.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/json.h"
#include "obs/span_collector.h"

namespace subex {

void ClientStatsSnapshot::Merge(const ClientStatsSnapshot& other) {
  requests += other.requests;
  busy_retries += other.busy_retries;
  reconnects += other.reconnects;
  transport_errors += other.transport_errors;
  backoff_ns += other.backoff_ns;
  retries_denied += other.retries_denied;
  circuit_opens += other.circuit_opens;
  short_circuits += other.short_circuits;
  deadline_exceeded += other.deadline_exceeded;
}

std::string ClientStatsSnapshot::ToJson() const {
  return JsonObject()
      .Add("requests", requests)
      .Add("busy_retries", busy_retries)
      .Add("reconnects", reconnects)
      .Add("transport_errors", transport_errors)
      .Add("backoff_seconds", BackoffSeconds())
      .Add("retries_denied", retries_denied)
      .Add("circuit_opens", circuit_opens)
      .Add("short_circuits", short_circuits)
      .Add("deadline_exceeded", deadline_exceeded)
      .Build();
}

ExplainClient::ExplainClient(const ExplainClientOptions& options)
    : options_(options),
      decoder_(options.max_frame_bytes),
      retry_tokens_(options.retry_budget_initial) {}

bool ExplainClient::Connect(const std::string& host, std::uint16_t port,
                            std::string* error) {
  Disconnect();
  socket_ = ConnectTcp(host, port, options_.connect_timeout_ms, error);
  if (socket_.valid()) ++connects_;
  return socket_.valid();
}

ClientStatsSnapshot ExplainClient::stats() const {
  ClientStatsSnapshot snap;
  snap.requests = requests_;
  snap.busy_retries = busy_replies_seen_;
  snap.reconnects = connects_ > 0 ? connects_ - 1 : 0;
  snap.transport_errors = transport_errors_;
  snap.backoff_ns = backoff_ns_;
  snap.retries_denied = retries_denied_;
  snap.circuit_opens = circuit_opens_;
  snap.short_circuits = short_circuits_;
  snap.deadline_exceeded = deadline_exceeded_;
  return snap;
}

void ExplainClient::NoteTransportSuccess() {
  consecutive_failures_ = 0;
  breaker_open_ = false;
  retry_tokens_ = std::min(options_.retry_budget_initial,
                           retry_tokens_ + options_.retry_budget_per_success);
}

void ExplainClient::NoteTransportFailure() {
  ++consecutive_failures_;
  if (options_.breaker_failure_threshold > 0 &&
      consecutive_failures_ >= options_.breaker_failure_threshold) {
    // Closed -> open counts once; a failed half-open probe just restarts
    // the cooldown window.
    if (!breaker_open_) ++circuit_opens_;
    breaker_open_ = true;
    breaker_opened_at_ = std::chrono::steady_clock::now();
  }
}

void ExplainClient::Disconnect() {
  socket_.Close();
  decoder_ = FrameDecoder(options_.max_frame_bytes);
}

bool ExplainClient::SendAndReceive(const std::vector<std::uint8_t>& request,
                                   std::uint64_t request_id,
                                   MessageHeader* header,
                                   std::vector<std::uint8_t>* body,
                                   std::string* error) {
  if (!socket_.valid()) {
    *error = "not connected";
    return false;
  }
  const std::vector<std::uint8_t> frame = EncodeFrame(request);
  if (!SendAll(socket_.fd(), frame.data(), frame.size(),
               options_.request_timeout_ms, error)) {
    Disconnect();
    return false;
  }
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.request_timeout_ms);
  std::uint8_t buf[16384];
  std::vector<std::uint8_t> payload;
  while (true) {
    while (decoder_.Next(&payload)) {
      WireReader reader(payload);
      if (!DecodeHeader(reader, header) ||
          header->version != kProtocolVersion) {
        *error = "malformed response header";
        Disconnect();
        return false;
      }
      // A response to a stale request id (e.g. an aborted earlier round
      // trip) is discarded; the protocol echoes ids for exactly this.
      if (header->request_id != request_id) continue;
      body->assign(payload.begin() +
                       static_cast<std::ptrdiff_t>(EncodedHeaderBytes(*header)),
                   payload.end());
      return true;
    }
    if (decoder_.error()) {
      *error = "response frame exceeds maximum size";
      Disconnect();
      return false;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      *error = "request timed out";
      Disconnect();
      return false;
    }
    std::size_t received = 0;
    if (!RecvSome(socket_.fd(), buf, sizeof(buf),
                  static_cast<int>(left.count()), &received, error)) {
      Disconnect();
      return false;
    }
    if (received == 0) {
      *error = "server closed the connection";
      Disconnect();
      return false;
    }
    decoder_.Feed(buf, received);
  }
}

std::uint64_t ExplainClient::BeginTrace() {
  last_trace_id_ = options_.enable_tracing ? NextTraceId() : 0;
  return last_trace_id_;
}

void ExplainClient::RecordClientSpan(
    const char* name, std::uint64_t trace_id,
    std::chrono::steady_clock::time_point start) {
  if (trace_id == 0 || !SpanCollector::Global().enabled()) return;
  const auto duration = std::chrono::steady_clock::now() - start;
  SpanRecord record;
  record.name = name;
  record.trace_id = trace_id;
  record.span_id = NextSpanId();
  record.parent_id = 0;
  record.start_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          start.time_since_epoch())
          .count());
  record.duration_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(duration).count());
  SpanCollector::Global().Record(record);
}

ClientStatus ExplainClient::RoundTrip(const std::vector<std::uint8_t>& request,
                                      std::uint64_t request_id,
                                      MessageType* type,
                                      std::vector<std::uint8_t>* body,
                                      std::string* error) {
  ++requests_;
  // While the breaker is open, fail fast without touching the socket; the
  // first call past the cooldown proceeds as the half-open probe.
  if (breaker_open_ &&
      std::chrono::steady_clock::now() - breaker_opened_at_ <
          std::chrono::milliseconds(options_.breaker_cooldown_ms)) {
    ++short_circuits_;
    *error = "circuit breaker open";
    return ClientStatus::kCircuitOpen;
  }
  int backoff_ms = options_.busy_backoff_initial_ms;
  for (int attempt = 0; attempt <= options_.max_busy_retries; ++attempt) {
    if (attempt > 0) {
      // A retry is only taken while the budget holds tokens — under
      // sustained overload the bucket drains and kBusy surfaces to the
      // caller instead of amplifying the congestion.
      if (retry_tokens_ < 1.0) {
        ++retries_denied_;
        *error = "server busy and retry budget exhausted";
        return ClientStatus::kBusy;
      }
      retry_tokens_ -= 1.0;
      const auto sleep_start = std::chrono::steady_clock::now();
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ns_ += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - sleep_start)
              .count());
      backoff_ms = std::min(backoff_ms * 2, options_.busy_backoff_max_ms);
    }
    MessageHeader header;
    if (!SendAndReceive(request, request_id, &header, body, error)) {
      ++transport_errors_;
      NoteTransportFailure();
      return ClientStatus::kTransportError;
    }
    if (header.type == MessageType::kBusy) {
      ++busy_replies_seen_;
      continue;  // Backpressure: back off and retry.
    }
    if (header.type == MessageType::kDeadlineExceeded) {
      // The transport is healthy — the server just refused stale work.
      ++deadline_exceeded_;
      NoteTransportSuccess();
      *type = header.type;
      *error = "deadline exceeded";
      return ClientStatus::kDeadlineExceeded;
    }
    NoteTransportSuccess();
    *type = header.type;
    return ClientStatus::kOk;  // Some definitive response arrived.
  }
  *error = "server busy after " + std::to_string(options_.max_busy_retries) +
           " retries";
  return ClientStatus::kBusy;
}

ExplainClient::ScoreReply ExplainClient::Score(const std::string& detector,
                                               const Subspace& subspace) {
  ScoreReply reply;
  ScoreRequest request;
  request.detector = detector;
  request.subspace = subspace;
  const std::uint64_t id = next_request_id_++;
  const std::uint64_t trace_id = BeginTrace();
  MessageType type = MessageType::kError;
  std::vector<std::uint8_t> body;
  const auto start = std::chrono::steady_clock::now();
  reply.status = RoundTrip(EncodeScoreRequest(id, request, trace_id,
                                              options_.deadline_ms),
                           id, &type,
                           &body, &reply.error);
  RecordClientSpan("client.score", trace_id, start);
  if (reply.status != ClientStatus::kOk) return reply;
  WireReader reader(body);
  if (type == MessageType::kError) {
    TextResult text;
    reply.status = ClientStatus::kServerError;
    reply.error = DecodeTextResult(reader, &text) ? text.text
                                                  : "undecodable kError body";
    return reply;
  }
  ScoreResult result;
  if (type != MessageType::kScoreResult ||
      !DecodeScoreResult(reader, &result)) {
    reply.status = ClientStatus::kTransportError;
    reply.error = "unexpected response to kScore";
    return reply;
  }
  reply.scores = std::move(result.scores);
  return reply;
}

ExplainClient::ExplainReply ExplainClient::Explain(const std::string& detector,
                                                   const std::string& explainer,
                                                   int point, int target_dim,
                                                   std::uint32_t max_results) {
  ExplainReply reply;
  ExplainRequest request;
  request.detector = detector;
  request.explainer = explainer;
  request.point = point;
  request.target_dim = target_dim;
  request.max_results = max_results;
  const std::uint64_t id = next_request_id_++;
  const std::uint64_t trace_id = BeginTrace();
  MessageType type = MessageType::kError;
  std::vector<std::uint8_t> body;
  const auto start = std::chrono::steady_clock::now();
  reply.status = RoundTrip(EncodeExplainRequest(id, request, trace_id,
                                                options_.deadline_ms),
                           id,
                           &type, &body, &reply.error);
  RecordClientSpan("client.explain", trace_id, start);
  if (reply.status != ClientStatus::kOk) return reply;
  WireReader reader(body);
  if (type == MessageType::kError) {
    TextResult text;
    reply.status = ClientStatus::kServerError;
    reply.error = DecodeTextResult(reader, &text) ? text.text
                                                  : "undecodable kError body";
    return reply;
  }
  ExplainResult result;
  if (type != MessageType::kExplainResult ||
      !DecodeExplainResult(reader, &result)) {
    reply.status = ClientStatus::kTransportError;
    reply.error = "unexpected response to kExplain";
    return reply;
  }
  reply.ranking = std::move(result.ranking);
  return reply;
}

ExplainClient::StatsReply ExplainClient::Stats() {
  StatsReply reply;
  const std::uint64_t id = next_request_id_++;
  const std::uint64_t trace_id = BeginTrace();
  MessageType type = MessageType::kError;
  std::vector<std::uint8_t> body;
  const auto start = std::chrono::steady_clock::now();
  reply.status = RoundTrip(EncodeStatsRequest(id, trace_id, options_.deadline_ms),
                           id, &type, &body,
                           &reply.error);
  RecordClientSpan("client.stats", trace_id, start);
  if (reply.status != ClientStatus::kOk) return reply;
  WireReader reader(body);
  TextResult text;
  if (!DecodeTextResult(reader, &text)) {
    reply.status = ClientStatus::kTransportError;
    reply.error = "undecodable stats body";
    return reply;
  }
  if (type == MessageType::kError) {
    reply.status = ClientStatus::kServerError;
    reply.error = text.text;
    return reply;
  }
  reply.json = std::move(text.text);
  return reply;
}

ExplainClient::IngestReply ExplainClient::Ingest(const std::string& dataset,
                                                 std::uint32_t num_rows,
                                                 std::vector<double> values) {
  IngestReply reply;
  IngestRequest request;
  request.dataset = dataset;
  request.num_rows = num_rows;
  request.values = std::move(values);
  const std::uint64_t id = next_request_id_++;
  const std::uint64_t trace_id = BeginTrace();
  MessageType type = MessageType::kError;
  std::vector<std::uint8_t> body;
  const auto start = std::chrono::steady_clock::now();
  reply.status = RoundTrip(EncodeIngestRequest(id, request, trace_id,
                                               options_.deadline_ms),
                           id,
                           &type, &body, &reply.error);
  RecordClientSpan("client.ingest", trace_id, start);
  if (reply.status != ClientStatus::kOk) return reply;
  WireReader reader(body);
  if (type == MessageType::kError) {
    TextResult text;
    reply.status = ClientStatus::kServerError;
    reply.error = DecodeTextResult(reader, &text) ? text.text
                                                  : "undecodable kError body";
    return reply;
  }
  if (type != MessageType::kIngestResult ||
      !DecodeIngestResult(reader, &reply.result)) {
    reply.status = ClientStatus::kTransportError;
    reply.error = "unexpected response to kIngest";
  }
  return reply;
}

ExplainClient::OnlineScoreReply ExplainClient::OnlineScore(
    const std::string& dataset, const std::string& detector,
    const Subspace& subspace) {
  OnlineScoreReply reply;
  OnlineScoreRequest request;
  request.dataset = dataset;
  request.detector = detector;
  request.subspace = subspace;
  const std::uint64_t id = next_request_id_++;
  const std::uint64_t trace_id = BeginTrace();
  MessageType type = MessageType::kError;
  std::vector<std::uint8_t> body;
  const auto start = std::chrono::steady_clock::now();
  reply.status = RoundTrip(EncodeOnlineScoreRequest(id, request, trace_id,
                                                    options_.deadline_ms),
                           id,
                           &type, &body, &reply.error);
  RecordClientSpan("client.online_score", trace_id, start);
  if (reply.status != ClientStatus::kOk) return reply;
  WireReader reader(body);
  if (type == MessageType::kError) {
    TextResult text;
    reply.status = ClientStatus::kServerError;
    reply.error = DecodeTextResult(reader, &text) ? text.text
                                                  : "undecodable kError body";
    return reply;
  }
  OnlineScoreResult result;
  if (type != MessageType::kOnlineScoreResult ||
      !DecodeOnlineScoreResult(reader, &result)) {
    reply.status = ClientStatus::kTransportError;
    reply.error = "unexpected response to kOnlineScore";
    return reply;
  }
  reply.epoch = result.epoch;
  reply.scores = std::move(result.scores);
  return reply;
}

ExplainClient::OnlineExplainReply ExplainClient::OnlineExplain(
    const std::string& dataset, const std::string& detector,
    const std::string& explainer, int point, int target_dim,
    std::uint32_t max_results) {
  OnlineExplainReply reply;
  OnlineExplainRequest request;
  request.dataset = dataset;
  request.detector = detector;
  request.explainer = explainer;
  request.point = point;
  request.target_dim = target_dim;
  request.max_results = max_results;
  const std::uint64_t id = next_request_id_++;
  const std::uint64_t trace_id = BeginTrace();
  MessageType type = MessageType::kError;
  std::vector<std::uint8_t> body;
  const auto start = std::chrono::steady_clock::now();
  reply.status = RoundTrip(EncodeOnlineExplainRequest(id, request, trace_id,
                                                      options_.deadline_ms),
                           id, &type, &body, &reply.error);
  RecordClientSpan("client.online_explain", trace_id, start);
  if (reply.status != ClientStatus::kOk) return reply;
  WireReader reader(body);
  if (type == MessageType::kError) {
    TextResult text;
    reply.status = ClientStatus::kServerError;
    reply.error = DecodeTextResult(reader, &text) ? text.text
                                                  : "undecodable kError body";
    return reply;
  }
  OnlineExplainResult result;
  if (type != MessageType::kOnlineExplainResult ||
      !DecodeOnlineExplainResult(reader, &result)) {
    reply.status = ClientStatus::kTransportError;
    reply.error = "unexpected response to kOnlineExplain";
    return reply;
  }
  reply.computed_epoch = result.computed_epoch;
  reply.current_epoch = result.current_epoch;
  reply.ranking = std::move(result.ranking);
  return reply;
}

ExplainClient::TraceDumpReply ExplainClient::TraceDump(bool clear) {
  TraceDumpReply reply;
  TraceDumpRequest request;
  request.clear = clear;
  const std::uint64_t id = next_request_id_++;
  MessageType type = MessageType::kError;
  std::vector<std::uint8_t> body;
  // Deliberately untraced: the dump itself shouldn't pollute the dump.
  reply.status = RoundTrip(EncodeTraceDumpRequest(id, request), id, &type,
                           &body, &reply.error);
  if (reply.status != ClientStatus::kOk) return reply;
  WireReader reader(body);
  TextResult text;
  if (!DecodeTextResult(reader, &text)) {
    reply.status = ClientStatus::kTransportError;
    reply.error = "undecodable trace dump body";
    return reply;
  }
  if (type == MessageType::kError) {
    reply.status = ClientStatus::kServerError;
    reply.error = text.text;
    return reply;
  }
  reply.json = std::move(text.text);
  return reply;
}

ExplainClient::ProfDumpReply ExplainClient::ProfRoundTrip(
    const ProfDumpRequest& request) {
  ProfDumpReply reply;
  const std::uint64_t id = next_request_id_++;
  MessageType type = MessageType::kError;
  std::vector<std::uint8_t> body;
  // Untraced, like TraceDump: control traffic stays out of the profile.
  reply.status = RoundTrip(EncodeProfDumpRequest(id, request), id, &type,
                           &body, &reply.error);
  if (reply.status != ClientStatus::kOk) return reply;
  WireReader reader(body);
  ProfDumpResult result;
  if (!DecodeProfDumpResult(reader, &result)) {
    reply.status = ClientStatus::kTransportError;
    reply.error = "undecodable prof dump body";
    return reply;
  }
  if (type == MessageType::kError) {
    reply.status = ClientStatus::kServerError;
    reply.error = result.text;
    return reply;
  }
  reply.text = std::move(result.text);
  return reply;
}

ExplainClient::ProfDumpReply ExplainClient::ProfStart(std::uint32_t sample_hz) {
  ProfDumpRequest request;
  request.action = ProfAction::kStart;
  request.sample_hz = sample_hz;
  return ProfRoundTrip(request);
}

ExplainClient::ProfDumpReply ExplainClient::ProfStop() {
  ProfDumpRequest request;
  request.action = ProfAction::kStop;
  return ProfRoundTrip(request);
}

ExplainClient::ProfDumpReply ExplainClient::ProfDump(bool clear) {
  ProfDumpRequest request;
  request.action = ProfAction::kDump;
  request.clear = clear;
  return ProfRoundTrip(request);
}

}  // namespace subex
