#ifndef SUBEX_NET_PROTOCOL_H_
#define SUBEX_NET_PROTOCOL_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "explain/explanation.h"
#include "net/wire.h"
#include "subspace/subspace.h"

namespace subex {

/// Wire protocol version carried in every message header; a server rejects
/// frames from a different version with `kError` (no negotiation — both
/// ends of the testbed ship together).
inline constexpr std::uint8_t kProtocolVersion = 1;

/// Message discriminator. Requests are < 64, successful responses start at
/// 64, and flow-control/error responses start at 100 (see DESIGN.md for
/// the frame format table).
enum class MessageType : std::uint8_t {
  // Requests (client → server).
  kScore = 1,      ///< Standardized score vector of one subspace.
  kExplain = 2,    ///< Ranked explaining subspaces of one point.
  kStats = 3,      ///< Server + per-service counters as JSON.
  kTraceDump = 4,  ///< Collected spans as Chrome trace-event JSON.
  kIngest = 5,         ///< Append rows to a named online dataset.
  kOnlineScore = 6,    ///< Score the current window of an online dataset.
  kOnlineExplain = 7,  ///< Explain a window row of an online dataset.
  kProfDump = 8,       ///< Control/dump the server's sampling profiler.
  // Responses (server → client).
  kScoreResult = 64,
  kExplainResult = 65,
  kStatsResult = 66,
  kTraceDumpResult = 67,
  kIngestResult = 68,
  kOnlineScoreResult = 69,
  kOnlineExplainResult = 70,
  kProfDumpResult = 71,
  kBusy = 100,   ///< Request queue full — retry with backoff.
  kError = 101,  ///< Malformed or unserviceable request; body is a message.
  kDeadlineExceeded = 102,  ///< The request's deadline expired server-side.
};

/// True for the client-issued message types.
bool IsRequestType(MessageType type);

/// High bit of the wire type byte: set when an optional u64 trace id
/// follows the fixed header. Old clients never set it and old servers never
/// see it set, so untraced frames are byte-identical across versions.
inline constexpr std::uint8_t kTraceIdFlag = 0x80;

/// High bit of the wire *version* byte: set when an optional u32 deadline
/// (milliseconds of remaining budget, relative so clock skew is moot)
/// follows the header after the optional trace id. It cannot live on the
/// type byte — bit 6 is already significant there (`kScoreResult` is 64) —
/// and the version byte's value space (`kProtocolVersion` = 1) is free.
/// Deadline-less frames stay byte-identical to the old format.
inline constexpr std::uint8_t kDeadlineFlag = 0x80;

/// Fixed prelude of every payload: version, type, and the client-chosen
/// request id the server echoes back (responses to pipelined requests may
/// arrive in any order; the id pairs them up). A request may additionally
/// carry the client's trace id (see `kTraceIdFlag`) and/or a relative
/// deadline in milliseconds (see `kDeadlineFlag`); expired work is dropped
/// server-side with a `kDeadlineExceeded` reply.
struct MessageHeader {
  std::uint8_t version = kProtocolVersion;
  MessageType type = MessageType::kError;
  std::uint64_t request_id = 0;
  bool has_trace_id = false;
  std::uint64_t trace_id = 0;
  bool has_deadline = false;
  std::uint32_t deadline_ms = 0;
};

/// Serialized size of the fixed (trace-less, deadline-less) header prelude.
inline constexpr std::size_t kMessageHeaderBytes = 1 + 1 + 8;

/// Serialized size of `header`: the fixed prelude plus the optional trace
/// id and deadline (keyed on the `has_*` flags, so a flagged header with
/// trace id 0 still counts its 8 bytes).
inline constexpr std::size_t EncodedHeaderBytes(const MessageHeader& header) {
  return kMessageHeaderBytes + (header.has_trace_id ? 8 : 0) +
         (header.has_deadline ? 4 : 0);
}

// ---------------------------------------------------------------------------
// Message bodies.

/// `kScore`: which detector, which subspace.
struct ScoreRequest {
  std::string detector;
  Subspace subspace;
};

/// `kExplain`: explain `point` with `explainer` using `detector` as the
/// outlyingness criterion, returning subspaces of exactly `target_dim`
/// features (truncated to `max_results` when non-zero).
struct ExplainRequest {
  std::string detector;
  std::string explainer;
  std::int32_t point = 0;
  std::int32_t target_dim = 2;
  std::uint32_t max_results = 0;
};

/// `kScoreResult`: the standardized score vector, bitwise identical to the
/// in-process `ScoringService::Score` result.
struct ScoreResult {
  std::vector<double> scores;
};

/// `kExplainResult`: ranked subspaces, best first.
struct ExplainResult {
  RankedSubspaces ranking;
};

/// `kTraceDump`: fetch the server's collected spans; `clear` additionally
/// resets the collector so successive dumps don't repeat spans.
struct TraceDumpRequest {
  bool clear = false;
};

/// `kIngest`: append `num_rows` row-major points to the online dataset
/// named `dataset`. The row width is `values.size() / num_rows` and must
/// match the dataset's feature count (the server rejects otherwise).
struct IngestRequest {
  std::string dataset;
  std::uint32_t num_rows = 0;
  std::vector<double> values;  ///< Row-major; decoding rejects non-finite.
};

/// `kIngestResult`: where the window landed after the append.
struct IngestResult {
  std::uint32_t accepted = 0;        ///< Rows taken.
  std::uint64_t window_epoch = 0;    ///< Epoch after the append.
  std::uint64_t window_size = 0;     ///< Window rows after the append.
  std::uint64_t total_ingested = 0;  ///< Lifetime rows of the dataset.
  std::uint32_t advances = 0;        ///< Window advances this append caused.
};

/// `kOnlineScore`: standardized scores of the current window of `dataset`
/// in `subspace`, under `detector` (a name registered on the dataset).
struct OnlineScoreRequest {
  std::string dataset;
  std::string detector;
  Subspace subspace;
};

/// `kOnlineScoreResult`: the epoch identifies the exact window contents
/// the scores describe.
struct OnlineScoreResult {
  std::uint64_t epoch = 0;
  std::vector<double> scores;
};

/// `kOnlineExplain`: explain window row `point` (0 = oldest retained) of
/// `dataset` with `explainer`, using online detector `detector`.
struct OnlineExplainRequest {
  std::string dataset;
  std::string detector;
  std::string explainer;
  std::int32_t point = 0;
  std::int32_t target_dim = 2;
  std::uint32_t max_results = 0;
};

/// What a `kProfDump` request asks of the server's `SamplingProfiler`.
enum class ProfAction : std::uint8_t {
  kDump = 0,   ///< Export collapsed stacks (optionally clearing after).
  kStart = 1,  ///< Arm per-thread timers at `sample_hz`.
  kStop = 2,   ///< Disarm timers; samples stay dumpable.
};

/// `kProfDump`: drive the server-side profiler. For `kStart`,
/// `sample_hz == 0` means the default rate; for `kDump`, `clear` resets
/// the sample rings after the export (the `kTraceDump` convention).
struct ProfDumpRequest {
  ProfAction action = ProfAction::kDump;
  std::uint32_t sample_hz = 0;
  bool clear = false;
};

/// `kProfDumpResult`: for `kDump` the collapsed-stack flamegraph text
/// (empty when nothing was sampled); for `kStart`/`kStop` a one-line JSON
/// status `{"running":...,"sample_hz":...,"supported":...}`.
struct ProfDumpResult {
  std::string text;
};

/// `kOnlineExplainResult`: the ranking plus its freshness — the epoch the
/// explanation was computed against and the epoch current when the reply
/// was produced. `computed_epoch < current_epoch` marks a stale serve (the
/// window advanced mid-computation; the answer is still internally
/// consistent for its pinned epoch).
struct OnlineExplainResult {
  std::uint64_t computed_epoch = 0;
  std::uint64_t current_epoch = 0;
  RankedSubspaces ranking;
};

/// `kStatsResult`: one JSON document (server counters + per-service cache
/// stats). `kTraceDumpResult` (Chrome trace-event JSON) and `kError` (the
/// error message) reuse the same single-string shape.
struct TextResult {
  std::string text;
};

// ---------------------------------------------------------------------------
// Encoding. Each function produces a complete payload (header + body),
// ready for `EncodeFrame`.

void EncodeSubspace(WireWriter& writer, const Subspace& subspace);
/// Returns false (leaving `out` unspecified) on a corrupt encoding.
bool DecodeSubspace(WireReader& reader, Subspace* out);

// Requests take an optional trace id; 0 (the id no generator produces)
// means untraced and keeps the frame in the old fixed-header format. They
// likewise take an optional relative deadline in milliseconds; 0 means no
// deadline and also keeps the old format.
std::vector<std::uint8_t> EncodeScoreRequest(std::uint64_t request_id,
                                             const ScoreRequest& request,
                                             std::uint64_t trace_id = 0,
                                             std::uint32_t deadline_ms = 0);
std::vector<std::uint8_t> EncodeExplainRequest(std::uint64_t request_id,
                                               const ExplainRequest& request,
                                               std::uint64_t trace_id = 0,
                                               std::uint32_t deadline_ms = 0);
std::vector<std::uint8_t> EncodeStatsRequest(std::uint64_t request_id,
                                             std::uint64_t trace_id = 0,
                                             std::uint32_t deadline_ms = 0);
std::vector<std::uint8_t> EncodeTraceDumpRequest(
    std::uint64_t request_id, const TraceDumpRequest& request,
    std::uint64_t trace_id = 0, std::uint32_t deadline_ms = 0);
std::vector<std::uint8_t> EncodeIngestRequest(std::uint64_t request_id,
                                              const IngestRequest& request,
                                              std::uint64_t trace_id = 0,
                                              std::uint32_t deadline_ms = 0);
std::vector<std::uint8_t> EncodeOnlineScoreRequest(
    std::uint64_t request_id, const OnlineScoreRequest& request,
    std::uint64_t trace_id = 0, std::uint32_t deadline_ms = 0);
std::vector<std::uint8_t> EncodeOnlineExplainRequest(
    std::uint64_t request_id, const OnlineExplainRequest& request,
    std::uint64_t trace_id = 0, std::uint32_t deadline_ms = 0);
std::vector<std::uint8_t> EncodeProfDumpRequest(std::uint64_t request_id,
                                                const ProfDumpRequest& request,
                                                std::uint64_t trace_id = 0,
                                                std::uint32_t deadline_ms = 0);
std::vector<std::uint8_t> EncodeScoreResult(std::uint64_t request_id,
                                            const ScoreResult& result);
/// The same bytes, encoded straight from a score vector the caller holds
/// (the server's cached vectors), with no copy into a `ScoreResult`.
std::vector<std::uint8_t> EncodeScoreResult(std::uint64_t request_id,
                                            std::span<const double> scores);
std::vector<std::uint8_t> EncodeExplainResult(std::uint64_t request_id,
                                              const ExplainResult& result);
std::vector<std::uint8_t> EncodeStatsResult(std::uint64_t request_id,
                                            const TextResult& result);
std::vector<std::uint8_t> EncodeTraceDumpResult(std::uint64_t request_id,
                                                const TextResult& result);
std::vector<std::uint8_t> EncodeIngestResult(std::uint64_t request_id,
                                             const IngestResult& result);
std::vector<std::uint8_t> EncodeOnlineScoreResult(
    std::uint64_t request_id, const OnlineScoreResult& result);
std::vector<std::uint8_t> EncodeOnlineExplainResult(
    std::uint64_t request_id, const OnlineExplainResult& result);
std::vector<std::uint8_t> EncodeProfDumpResult(std::uint64_t request_id,
                                               const ProfDumpResult& result);
std::vector<std::uint8_t> EncodeBusy(std::uint64_t request_id);
std::vector<std::uint8_t> EncodeError(std::uint64_t request_id,
                                      const std::string& message);
/// `kDeadlineExceeded`: empty body, like `kBusy`.
std::vector<std::uint8_t> EncodeDeadlineExceeded(std::uint64_t request_id);

// ---------------------------------------------------------------------------
// Decoding. `DecodeHeader` consumes the prelude from `reader`; the
// per-type body decoders consume the rest and return false on corrupt or
// trailing bytes.

bool DecodeHeader(WireReader& reader, MessageHeader* out);
bool DecodeScoreRequest(WireReader& reader, ScoreRequest* out);
bool DecodeTraceDumpRequest(WireReader& reader, TraceDumpRequest* out);
bool DecodeExplainRequest(WireReader& reader, ExplainRequest* out);
bool DecodeIngestRequest(WireReader& reader, IngestRequest* out);
bool DecodeOnlineScoreRequest(WireReader& reader, OnlineScoreRequest* out);
bool DecodeOnlineExplainRequest(WireReader& reader, OnlineExplainRequest* out);
bool DecodeProfDumpRequest(WireReader& reader, ProfDumpRequest* out);
bool DecodeScoreResult(WireReader& reader, ScoreResult* out);
bool DecodeExplainResult(WireReader& reader, ExplainResult* out);
bool DecodeIngestResult(WireReader& reader, IngestResult* out);
bool DecodeOnlineScoreResult(WireReader& reader, OnlineScoreResult* out);
bool DecodeOnlineExplainResult(WireReader& reader, OnlineExplainResult* out);
bool DecodeProfDumpResult(WireReader& reader, ProfDumpResult* out);
/// Body of `kStatsResult` and `kError` (a single string).
bool DecodeTextResult(WireReader& reader, TextResult* out);

}  // namespace subex

#endif  // SUBEX_NET_PROTOCOL_H_
