#include "net/protocol.h"

#include <cmath>

namespace subex {
namespace {

WireWriter BeginMessage(MessageType type, std::uint64_t request_id,
                        std::uint64_t trace_id = 0,
                        std::uint32_t deadline_ms = 0) {
  WireWriter writer;
  // Deadline-less frames keep the plain version byte, so pre-deadline
  // payloads stay byte-identical (golden-byte tested).
  writer.PutU8(deadline_ms != 0 ? (kProtocolVersion | kDeadlineFlag)
                                : kProtocolVersion);
  if (trace_id != 0) {
    writer.PutU8(static_cast<std::uint8_t>(type) | kTraceIdFlag);
    writer.PutU64(request_id);
    writer.PutU64(trace_id);
  } else {
    writer.PutU8(static_cast<std::uint8_t>(type));
    writer.PutU64(request_id);
  }
  if (deadline_ms != 0) writer.PutU32(deadline_ms);
  return writer;
}

}  // namespace

bool IsRequestType(MessageType type) {
  return type == MessageType::kScore || type == MessageType::kExplain ||
         type == MessageType::kStats || type == MessageType::kTraceDump ||
         type == MessageType::kIngest || type == MessageType::kOnlineScore ||
         type == MessageType::kOnlineExplain || type == MessageType::kProfDump;
}

void EncodeSubspace(WireWriter& writer, const Subspace& subspace) {
  writer.PutU16(static_cast<std::uint16_t>(subspace.size()));
  for (const FeatureId f : subspace.features()) writer.PutI32(f);
}

bool DecodeSubspace(WireReader& reader, Subspace* out) {
  const std::uint16_t count = reader.GetU16();
  std::vector<FeatureId> features;
  features.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) features.push_back(reader.GetI32());
  if (!reader.ok()) return false;
  // The wire is a trust boundary: a negative id would trip the Subspace
  // invariant check (fatal), so reject it here as a decode failure.
  for (const FeatureId f : features) {
    if (f < 0) return false;
  }
  *out = Subspace(std::move(features));
  return true;
}

std::vector<std::uint8_t> EncodeScoreRequest(std::uint64_t request_id,
                                             const ScoreRequest& request,
                                             std::uint64_t trace_id,
                                             std::uint32_t deadline_ms) {
  WireWriter writer =
      BeginMessage(MessageType::kScore, request_id, trace_id, deadline_ms);
  writer.PutString(request.detector);
  EncodeSubspace(writer, request.subspace);
  return writer.Take();
}

std::vector<std::uint8_t> EncodeExplainRequest(std::uint64_t request_id,
                                               const ExplainRequest& request,
                                               std::uint64_t trace_id,
                                               std::uint32_t deadline_ms) {
  WireWriter writer = BeginMessage(MessageType::kExplain, request_id, trace_id,
                                   deadline_ms);
  writer.PutString(request.detector);
  writer.PutString(request.explainer);
  writer.PutI32(request.point);
  writer.PutI32(request.target_dim);
  writer.PutU32(request.max_results);
  return writer.Take();
}

std::vector<std::uint8_t> EncodeStatsRequest(std::uint64_t request_id,
                                             std::uint64_t trace_id,
                                             std::uint32_t deadline_ms) {
  return BeginMessage(MessageType::kStats, request_id, trace_id, deadline_ms)
      .Take();
}

std::vector<std::uint8_t> EncodeTraceDumpRequest(std::uint64_t request_id,
                                                 const TraceDumpRequest& request,
                                                 std::uint64_t trace_id,
                                                 std::uint32_t deadline_ms) {
  WireWriter writer =
      BeginMessage(MessageType::kTraceDump, request_id, trace_id, deadline_ms);
  writer.PutU8(request.clear ? 1 : 0);
  return writer.Take();
}

std::vector<std::uint8_t> EncodeIngestRequest(std::uint64_t request_id,
                                              const IngestRequest& request,
                                              std::uint64_t trace_id,
                                              std::uint32_t deadline_ms) {
  WireWriter writer =
      BeginMessage(MessageType::kIngest, request_id, trace_id, deadline_ms);
  writer.PutString(request.dataset);
  writer.PutU32(request.num_rows);
  writer.PutDoubles(request.values);
  return writer.Take();
}

std::vector<std::uint8_t> EncodeOnlineScoreRequest(
    std::uint64_t request_id, const OnlineScoreRequest& request,
    std::uint64_t trace_id, std::uint32_t deadline_ms) {
  WireWriter writer = BeginMessage(MessageType::kOnlineScore, request_id,
                                   trace_id, deadline_ms);
  writer.PutString(request.dataset);
  writer.PutString(request.detector);
  EncodeSubspace(writer, request.subspace);
  return writer.Take();
}

std::vector<std::uint8_t> EncodeOnlineExplainRequest(
    std::uint64_t request_id, const OnlineExplainRequest& request,
    std::uint64_t trace_id, std::uint32_t deadline_ms) {
  WireWriter writer = BeginMessage(MessageType::kOnlineExplain, request_id,
                                   trace_id, deadline_ms);
  writer.PutString(request.dataset);
  writer.PutString(request.detector);
  writer.PutString(request.explainer);
  writer.PutI32(request.point);
  writer.PutI32(request.target_dim);
  writer.PutU32(request.max_results);
  return writer.Take();
}

std::vector<std::uint8_t> EncodeScoreResult(std::uint64_t request_id,
                                            const ScoreResult& result) {
  return EncodeScoreResult(request_id, result.scores);
}

std::vector<std::uint8_t> EncodeScoreResult(std::uint64_t request_id,
                                            std::span<const double> scores) {
  WireWriter writer = BeginMessage(MessageType::kScoreResult, request_id);
  writer.PutDoubles(scores);
  return writer.Take();
}

std::vector<std::uint8_t> EncodeExplainResult(std::uint64_t request_id,
                                              const ExplainResult& result) {
  WireWriter writer = BeginMessage(MessageType::kExplainResult, request_id);
  const RankedSubspaces& ranking = result.ranking;
  writer.PutU32(static_cast<std::uint32_t>(ranking.size()));
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    EncodeSubspace(writer, ranking.subspaces[i]);
    writer.PutDouble(ranking.scores[i]);
  }
  return writer.Take();
}

std::vector<std::uint8_t> EncodeStatsResult(std::uint64_t request_id,
                                            const TextResult& result) {
  WireWriter writer = BeginMessage(MessageType::kStatsResult, request_id);
  writer.PutString(result.text);
  return writer.Take();
}

std::vector<std::uint8_t> EncodeTraceDumpResult(std::uint64_t request_id,
                                                const TextResult& result) {
  WireWriter writer = BeginMessage(MessageType::kTraceDumpResult, request_id);
  writer.PutString(result.text);
  return writer.Take();
}

std::vector<std::uint8_t> EncodeProfDumpRequest(std::uint64_t request_id,
                                                const ProfDumpRequest& request,
                                                std::uint64_t trace_id,
                                                std::uint32_t deadline_ms) {
  WireWriter writer = BeginMessage(MessageType::kProfDump, request_id, trace_id,
                                   deadline_ms);
  writer.PutU8(static_cast<std::uint8_t>(request.action));
  writer.PutU32(request.sample_hz);
  writer.PutU8(request.clear ? 1 : 0);
  return writer.Take();
}

std::vector<std::uint8_t> EncodeProfDumpResult(std::uint64_t request_id,
                                               const ProfDumpResult& result) {
  WireWriter writer = BeginMessage(MessageType::kProfDumpResult, request_id);
  writer.PutString(result.text);
  return writer.Take();
}

std::vector<std::uint8_t> EncodeIngestResult(std::uint64_t request_id,
                                             const IngestResult& result) {
  WireWriter writer = BeginMessage(MessageType::kIngestResult, request_id);
  writer.PutU32(result.accepted);
  writer.PutU64(result.window_epoch);
  writer.PutU64(result.window_size);
  writer.PutU64(result.total_ingested);
  writer.PutU32(result.advances);
  return writer.Take();
}

std::vector<std::uint8_t> EncodeOnlineScoreResult(
    std::uint64_t request_id, const OnlineScoreResult& result) {
  WireWriter writer =
      BeginMessage(MessageType::kOnlineScoreResult, request_id);
  writer.PutU64(result.epoch);
  writer.PutDoubles(result.scores);
  return writer.Take();
}

std::vector<std::uint8_t> EncodeOnlineExplainResult(
    std::uint64_t request_id, const OnlineExplainResult& result) {
  WireWriter writer =
      BeginMessage(MessageType::kOnlineExplainResult, request_id);
  writer.PutU64(result.computed_epoch);
  writer.PutU64(result.current_epoch);
  const RankedSubspaces& ranking = result.ranking;
  writer.PutU32(static_cast<std::uint32_t>(ranking.size()));
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    EncodeSubspace(writer, ranking.subspaces[i]);
    writer.PutDouble(ranking.scores[i]);
  }
  return writer.Take();
}

std::vector<std::uint8_t> EncodeBusy(std::uint64_t request_id) {
  return BeginMessage(MessageType::kBusy, request_id).Take();
}

std::vector<std::uint8_t> EncodeError(std::uint64_t request_id,
                                      const std::string& message) {
  WireWriter writer = BeginMessage(MessageType::kError, request_id);
  writer.PutString(message);
  return writer.Take();
}

std::vector<std::uint8_t> EncodeDeadlineExceeded(std::uint64_t request_id) {
  return BeginMessage(MessageType::kDeadlineExceeded, request_id).Take();
}

bool DecodeHeader(WireReader& reader, MessageHeader* out) {
  const std::uint8_t raw_version = reader.GetU8();
  out->version = raw_version & static_cast<std::uint8_t>(~kDeadlineFlag);
  out->has_deadline = (raw_version & kDeadlineFlag) != 0;
  const std::uint8_t raw_type = reader.GetU8();
  out->type = static_cast<MessageType>(raw_type & ~kTraceIdFlag);
  out->request_id = reader.GetU64();
  out->has_trace_id = (raw_type & kTraceIdFlag) != 0;
  // A flagged header whose trace id bytes are missing trips the reader's
  // sticky error and the frame is rejected like any other truncation.
  out->trace_id = out->has_trace_id ? reader.GetU64() : 0;
  out->deadline_ms = out->has_deadline ? reader.GetU32() : 0;
  return reader.ok();
}

bool DecodeTraceDumpRequest(WireReader& reader, TraceDumpRequest* out) {
  out->clear = reader.GetU8() != 0;
  return reader.AtEnd();
}

bool DecodeScoreRequest(WireReader& reader, ScoreRequest* out) {
  out->detector = reader.GetString();
  return DecodeSubspace(reader, &out->subspace) && reader.AtEnd();
}

bool DecodeExplainRequest(WireReader& reader, ExplainRequest* out) {
  out->detector = reader.GetString();
  out->explainer = reader.GetString();
  out->point = reader.GetI32();
  out->target_dim = reader.GetI32();
  out->max_results = reader.GetU32();
  return reader.AtEnd();
}

bool DecodeIngestRequest(WireReader& reader, IngestRequest* out) {
  out->dataset = reader.GetString();
  out->num_rows = reader.GetU32();
  out->values = reader.GetDoubles();
  if (!reader.AtEnd()) return false;
  // The trust boundary of online state: a NaN or infinity would enter the
  // window and the WAL and poison every detector over it.
  for (const double value : out->values) {
    if (!std::isfinite(value)) return false;
  }
  // Row-major values must tile into exactly num_rows rows.
  if (out->num_rows == 0) return out->values.empty();
  return out->values.size() % out->num_rows == 0;
}

bool DecodeOnlineScoreRequest(WireReader& reader, OnlineScoreRequest* out) {
  out->dataset = reader.GetString();
  out->detector = reader.GetString();
  return DecodeSubspace(reader, &out->subspace) && reader.AtEnd();
}

bool DecodeOnlineExplainRequest(WireReader& reader,
                                OnlineExplainRequest* out) {
  out->dataset = reader.GetString();
  out->detector = reader.GetString();
  out->explainer = reader.GetString();
  out->point = reader.GetI32();
  out->target_dim = reader.GetI32();
  out->max_results = reader.GetU32();
  return reader.AtEnd();
}

bool DecodeScoreResult(WireReader& reader, ScoreResult* out) {
  out->scores = reader.GetDoubles();
  return reader.AtEnd();
}

bool DecodeExplainResult(WireReader& reader, ExplainResult* out) {
  const std::uint32_t count = reader.GetU32();
  out->ranking = RankedSubspaces{};
  for (std::uint32_t i = 0; i < count; ++i) {
    Subspace subspace;
    if (!DecodeSubspace(reader, &subspace)) return false;
    const double score = reader.GetDouble();
    if (!reader.ok()) return false;
    out->ranking.Add(std::move(subspace), score);
  }
  return reader.AtEnd();
}

bool DecodeIngestResult(WireReader& reader, IngestResult* out) {
  out->accepted = reader.GetU32();
  out->window_epoch = reader.GetU64();
  out->window_size = reader.GetU64();
  out->total_ingested = reader.GetU64();
  out->advances = reader.GetU32();
  return reader.AtEnd();
}

bool DecodeOnlineScoreResult(WireReader& reader, OnlineScoreResult* out) {
  out->epoch = reader.GetU64();
  out->scores = reader.GetDoubles();
  return reader.AtEnd();
}

bool DecodeOnlineExplainResult(WireReader& reader, OnlineExplainResult* out) {
  out->computed_epoch = reader.GetU64();
  out->current_epoch = reader.GetU64();
  const std::uint32_t count = reader.GetU32();
  out->ranking = RankedSubspaces{};
  for (std::uint32_t i = 0; i < count; ++i) {
    Subspace subspace;
    if (!DecodeSubspace(reader, &subspace)) return false;
    const double score = reader.GetDouble();
    if (!reader.ok()) return false;
    out->ranking.Add(std::move(subspace), score);
  }
  return reader.AtEnd();
}

bool DecodeProfDumpRequest(WireReader& reader, ProfDumpRequest* out) {
  const std::uint8_t action = reader.GetU8();
  out->sample_hz = reader.GetU32();
  out->clear = reader.GetU8() != 0;
  if (action > static_cast<std::uint8_t>(ProfAction::kStop)) return false;
  out->action = static_cast<ProfAction>(action);
  return reader.AtEnd();
}

bool DecodeProfDumpResult(WireReader& reader, ProfDumpResult* out) {
  out->text = reader.GetString();
  return reader.AtEnd();
}

bool DecodeTextResult(WireReader& reader, TextResult* out) {
  out->text = reader.GetString();
  return reader.AtEnd();
}

}  // namespace subex
