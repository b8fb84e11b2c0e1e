#include "net/frame.h"
#include "net/protocol.h"
#include "net/wire.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

namespace subex {
namespace {

TEST(WireTest, ScalarRoundTrip) {
  WireWriter writer;
  writer.PutU8(0xAB);
  writer.PutU16(0xBEEF);
  writer.PutU32(0xDEADBEEFu);
  writer.PutU64(0x0123456789ABCDEFull);
  writer.PutI32(-42);
  writer.PutDouble(-1234.5678);
  writer.PutString("hello");
  writer.PutDoubles({1.0, -2.5, 3.25});

  WireReader reader(writer.bytes());
  EXPECT_EQ(reader.GetU8(), 0xAB);
  EXPECT_EQ(reader.GetU16(), 0xBEEF);
  EXPECT_EQ(reader.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.GetU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.GetI32(), -42);
  EXPECT_EQ(reader.GetDouble(), -1234.5678);
  EXPECT_EQ(reader.GetString(), "hello");
  EXPECT_EQ(reader.GetDoubles(), (std::vector<double>{1.0, -2.5, 3.25}));
  EXPECT_TRUE(reader.AtEnd());
}

TEST(WireTest, DoubleBitPatternsSurviveExactly) {
  const std::vector<double> tricky = {
      0.0, -0.0, std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(), 0.1 + 0.2};
  WireWriter writer;
  writer.PutDoubles(tricky);
  WireReader reader(writer.bytes());
  const std::vector<double> back = reader.GetDoubles();
  ASSERT_EQ(back.size(), tricky.size());
  for (std::size_t i = 0; i < tricky.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back[i]),
              std::bit_cast<std::uint64_t>(tricky[i]));
  }
  // NaN separately: EXPECT_EQ on values would fail, bits must match.
  WireWriter w2;
  w2.PutDouble(std::numeric_limits<double>::quiet_NaN());
  WireReader r2(w2.bytes());
  EXPECT_TRUE(std::isnan(r2.GetDouble()));
}

TEST(WireTest, TruncatedReadTripsStickyError) {
  WireWriter writer;
  writer.PutU32(7);
  WireReader reader(writer.bytes());
  reader.GetU64();  // 8 bytes wanted, 4 available.
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.GetU32(), 0u) << "reads after an error yield zero";
  EXPECT_FALSE(reader.AtEnd());
}

TEST(WireTest, CorruptStringLengthFailsInsteadOfAllocating) {
  WireWriter writer;
  writer.PutU32(0xFFFFFFFFu);  // Claims a 4 GiB string.
  WireReader reader(writer.bytes());
  EXPECT_EQ(reader.GetString(), "");
  EXPECT_FALSE(reader.ok());
}

TEST(FrameTest, EncodePrefixesLittleEndianLength) {
  const std::vector<std::uint8_t> frame = EncodeFrame({0x11, 0x22, 0x33});
  ASSERT_EQ(frame.size(), 7u);
  EXPECT_EQ(frame[0], 3u);
  EXPECT_EQ(frame[1], 0u);
  EXPECT_EQ(frame[2], 0u);
  EXPECT_EQ(frame[3], 0u);
  EXPECT_EQ(frame[4], 0x11);
}

TEST(FrameTest, DecoderReassemblesByteByByte) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> frame = EncodeFrame(payload);
  FrameDecoder decoder;
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    decoder.Feed(&frame[i], 1);
    EXPECT_FALSE(decoder.Next(&out)) << "frame incomplete at byte " << i;
  }
  decoder.Feed(&frame.back(), 1);
  ASSERT_TRUE(decoder.Next(&out));
  EXPECT_EQ(out, payload);
  EXPECT_FALSE(decoder.Next(&out));
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FrameTest, DecoderHandlesPipelinedFramesInOneFeed) {
  std::vector<std::uint8_t> stream;
  for (std::uint8_t v : {10, 20, 30}) {
    const std::vector<std::uint8_t> frame = EncodeFrame({v, v});
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  FrameDecoder decoder;
  decoder.Feed(stream.data(), stream.size());
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(decoder.Next(&out));
  EXPECT_EQ(out, (std::vector<std::uint8_t>{10, 10}));
  ASSERT_TRUE(decoder.Next(&out));
  EXPECT_EQ(out, (std::vector<std::uint8_t>{20, 20}));
  ASSERT_TRUE(decoder.Next(&out));
  EXPECT_EQ(out, (std::vector<std::uint8_t>{30, 30}));
  EXPECT_FALSE(decoder.Next(&out));
}

TEST(FrameTest, OversizedLengthPrefixPoisonsTheStream) {
  FrameDecoder decoder(/*max_frame_bytes=*/16);
  const std::vector<std::uint8_t> huge(17, 0xAA);
  const std::vector<std::uint8_t> frame = EncodeFrame(huge);
  decoder.Feed(frame.data(), frame.size());
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(decoder.Next(&out));
  EXPECT_TRUE(decoder.error());
  // Even a subsequent valid frame is unreachable: the stream is dead.
  const std::vector<std::uint8_t> ok = EncodeFrame({1});
  decoder.Feed(ok.data(), ok.size());
  EXPECT_FALSE(decoder.Next(&out));
}

TEST(FrameTest, EmptyPayloadFrameIsValid) {
  const std::vector<std::uint8_t> frame = EncodeFrame({});
  FrameDecoder decoder;
  decoder.Feed(frame.data(), frame.size());
  std::vector<std::uint8_t> out = {9, 9};
  ASSERT_TRUE(decoder.Next(&out));
  EXPECT_TRUE(out.empty());
}

TEST(ProtocolTest, ScoreRequestRoundTrip) {
  ScoreRequest request;
  request.detector = "LOF";
  request.subspace = Subspace({3, 1, 7});
  const std::vector<std::uint8_t> payload = EncodeScoreRequest(42, request);

  WireReader reader(payload);
  MessageHeader header;
  ASSERT_TRUE(DecodeHeader(reader, &header));
  EXPECT_EQ(header.version, kProtocolVersion);
  EXPECT_EQ(header.type, MessageType::kScore);
  EXPECT_EQ(header.request_id, 42u);
  ScoreRequest back;
  ASSERT_TRUE(DecodeScoreRequest(reader, &back));
  EXPECT_EQ(back.detector, "LOF");
  EXPECT_EQ(back.subspace, Subspace({1, 3, 7}));
}

TEST(ProtocolTest, ExplainRequestRoundTrip) {
  ExplainRequest request;
  request.detector = "iForest";
  request.explainer = "Beam";
  request.point = 123;
  request.target_dim = 3;
  request.max_results = 10;
  const std::vector<std::uint8_t> payload = EncodeExplainRequest(7, request);

  WireReader reader(payload);
  MessageHeader header;
  ASSERT_TRUE(DecodeHeader(reader, &header));
  EXPECT_EQ(header.type, MessageType::kExplain);
  ExplainRequest back;
  ASSERT_TRUE(DecodeExplainRequest(reader, &back));
  EXPECT_EQ(back.detector, "iForest");
  EXPECT_EQ(back.explainer, "Beam");
  EXPECT_EQ(back.point, 123);
  EXPECT_EQ(back.target_dim, 3);
  EXPECT_EQ(back.max_results, 10u);
}

TEST(ProtocolTest, ExplainResultRoundTripPreservesRankingExactly) {
  ExplainResult result;
  result.ranking.Add(Subspace({0, 2}), 3.75);
  result.ranking.Add(Subspace({1, 4}), -0.5);
  const std::vector<std::uint8_t> payload = EncodeExplainResult(9, result);

  WireReader reader(payload);
  MessageHeader header;
  ASSERT_TRUE(DecodeHeader(reader, &header));
  EXPECT_EQ(header.type, MessageType::kExplainResult);
  EXPECT_EQ(header.request_id, 9u);
  ExplainResult back;
  ASSERT_TRUE(DecodeExplainResult(reader, &back));
  EXPECT_EQ(back.ranking.subspaces, result.ranking.subspaces);
  EXPECT_EQ(back.ranking.scores, result.ranking.scores);
}

TEST(ProtocolTest, BusyAndErrorRoundTrip) {
  {
    const std::vector<std::uint8_t> payload = EncodeBusy(5);
    WireReader reader(payload);
    MessageHeader header;
    ASSERT_TRUE(DecodeHeader(reader, &header));
    EXPECT_EQ(header.type, MessageType::kBusy);
    EXPECT_TRUE(reader.AtEnd());
  }
  {
    const std::vector<std::uint8_t> payload = EncodeError(6, "nope");
    WireReader reader(payload);
    MessageHeader header;
    ASSERT_TRUE(DecodeHeader(reader, &header));
    EXPECT_EQ(header.type, MessageType::kError);
    TextResult text;
    ASSERT_TRUE(DecodeTextResult(reader, &text));
    EXPECT_EQ(text.text, "nope");
  }
}

TEST(ProtocolTest, BodyDecodersRejectTrailingBytes) {
  std::vector<std::uint8_t> payload = EncodeStatsRequest(1);
  payload.push_back(0xFF);  // Junk after a well-formed message.
  WireReader reader(payload);
  MessageHeader header;
  ASSERT_TRUE(DecodeHeader(reader, &header));
  TextResult text;
  EXPECT_FALSE(DecodeTextResult(reader, &text));
}

TEST(ProtocolTest, RequestTypePredicate) {
  EXPECT_TRUE(IsRequestType(MessageType::kScore));
  EXPECT_TRUE(IsRequestType(MessageType::kExplain));
  EXPECT_TRUE(IsRequestType(MessageType::kStats));
  EXPECT_TRUE(IsRequestType(MessageType::kTraceDump));
  EXPECT_TRUE(IsRequestType(MessageType::kIngest));
  EXPECT_TRUE(IsRequestType(MessageType::kOnlineScore));
  EXPECT_TRUE(IsRequestType(MessageType::kOnlineExplain));
  EXPECT_FALSE(IsRequestType(MessageType::kScoreResult));
  EXPECT_FALSE(IsRequestType(MessageType::kIngestResult));
  EXPECT_FALSE(IsRequestType(MessageType::kOnlineScoreResult));
  EXPECT_FALSE(IsRequestType(MessageType::kOnlineExplainResult));
  EXPECT_FALSE(IsRequestType(MessageType::kBusy));
  EXPECT_FALSE(IsRequestType(MessageType::kError));
}

TEST(ProtocolTest, IngestRequestRoundTripValidatesRowTiling) {
  IngestRequest request;
  request.dataset = "stream";
  request.num_rows = 2;
  request.values = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  const std::vector<std::uint8_t> payload = EncodeIngestRequest(11, request);

  WireReader reader(payload);
  MessageHeader header;
  ASSERT_TRUE(DecodeHeader(reader, &header));
  EXPECT_EQ(header.type, MessageType::kIngest);
  IngestRequest back;
  ASSERT_TRUE(DecodeIngestRequest(reader, &back));
  EXPECT_EQ(back.dataset, "stream");
  EXPECT_EQ(back.num_rows, 2u);
  EXPECT_EQ(back.values, request.values);

  // 5 values cannot tile into 2 rows: the decoder must reject it.
  request.values.pop_back();
  const std::vector<std::uint8_t> bad = EncodeIngestRequest(12, request);
  WireReader bad_reader(bad);
  ASSERT_TRUE(DecodeHeader(bad_reader, &header));
  EXPECT_FALSE(DecodeIngestRequest(bad_reader, &back));
}

TEST(ProtocolTest, IngestRequestRejectsNonFiniteValues) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    IngestRequest request;
    request.dataset = "stream";
    request.num_rows = 2;
    request.values = {1.0, 2.0, bad, 4.0};
    const std::vector<std::uint8_t> payload = EncodeIngestRequest(14, request);
    WireReader reader(payload);
    MessageHeader header;
    ASSERT_TRUE(DecodeHeader(reader, &header));
    IngestRequest back;
    EXPECT_FALSE(DecodeIngestRequest(reader, &back)) << bad;
  }
}

TEST(ProtocolTest, IngestResultRoundTrip) {
  IngestResult result;
  result.accepted = 7;
  result.window_epoch = 41;
  result.window_size = 512;
  result.total_ingested = 99999;
  result.advances = 3;
  const std::vector<std::uint8_t> payload = EncodeIngestResult(13, result);
  WireReader reader(payload);
  MessageHeader header;
  ASSERT_TRUE(DecodeHeader(reader, &header));
  EXPECT_EQ(header.type, MessageType::kIngestResult);
  IngestResult back;
  ASSERT_TRUE(DecodeIngestResult(reader, &back));
  EXPECT_EQ(back.accepted, 7u);
  EXPECT_EQ(back.window_epoch, 41u);
  EXPECT_EQ(back.window_size, 512u);
  EXPECT_EQ(back.total_ingested, 99999u);
  EXPECT_EQ(back.advances, 3u);
}

TEST(ProtocolTest, OnlineScoreRoundTrip) {
  OnlineScoreRequest request;
  request.dataset = "stream";
  request.detector = "LODA";
  request.subspace = Subspace({2, 4});
  const std::vector<std::uint8_t> payload =
      EncodeOnlineScoreRequest(21, request);
  WireReader reader(payload);
  MessageHeader header;
  ASSERT_TRUE(DecodeHeader(reader, &header));
  EXPECT_EQ(header.type, MessageType::kOnlineScore);
  OnlineScoreRequest back;
  ASSERT_TRUE(DecodeOnlineScoreRequest(reader, &back));
  EXPECT_EQ(back.dataset, "stream");
  EXPECT_EQ(back.detector, "LODA");
  EXPECT_EQ(back.subspace, Subspace({2, 4}));

  OnlineScoreResult result;
  result.epoch = 17;
  result.scores = {0.5, -1.25, 3.0};
  const std::vector<std::uint8_t> result_payload =
      EncodeOnlineScoreResult(21, result);
  WireReader result_reader(result_payload);
  ASSERT_TRUE(DecodeHeader(result_reader, &header));
  EXPECT_EQ(header.type, MessageType::kOnlineScoreResult);
  OnlineScoreResult result_back;
  ASSERT_TRUE(DecodeOnlineScoreResult(result_reader, &result_back));
  EXPECT_EQ(result_back.epoch, 17u);
  EXPECT_EQ(result_back.scores, result.scores);
}

TEST(ProtocolTest, OnlineExplainRoundTripCarriesFreshnessEpochs) {
  OnlineExplainRequest request;
  request.dataset = "stream";
  request.detector = "LODA";
  request.explainer = "Beam";
  request.point = 9;
  request.target_dim = 2;
  request.max_results = 5;
  const std::vector<std::uint8_t> payload =
      EncodeOnlineExplainRequest(31, request);
  WireReader reader(payload);
  MessageHeader header;
  ASSERT_TRUE(DecodeHeader(reader, &header));
  EXPECT_EQ(header.type, MessageType::kOnlineExplain);
  OnlineExplainRequest back;
  ASSERT_TRUE(DecodeOnlineExplainRequest(reader, &back));
  EXPECT_EQ(back.dataset, "stream");
  EXPECT_EQ(back.detector, "LODA");
  EXPECT_EQ(back.explainer, "Beam");
  EXPECT_EQ(back.point, 9);
  EXPECT_EQ(back.target_dim, 2);
  EXPECT_EQ(back.max_results, 5u);

  OnlineExplainResult result;
  result.computed_epoch = 40;
  result.current_epoch = 42;  // A stale serve: 2 epochs behind.
  result.ranking.Add(Subspace({0, 3}), 1.5);
  const std::vector<std::uint8_t> result_payload =
      EncodeOnlineExplainResult(31, result);
  WireReader result_reader(result_payload);
  ASSERT_TRUE(DecodeHeader(result_reader, &header));
  EXPECT_EQ(header.type, MessageType::kOnlineExplainResult);
  OnlineExplainResult result_back;
  ASSERT_TRUE(DecodeOnlineExplainResult(result_reader, &result_back));
  EXPECT_EQ(result_back.computed_epoch, 40u);
  EXPECT_EQ(result_back.current_epoch, 42u);
  EXPECT_EQ(result_back.ranking.subspaces, result.ranking.subspaces);
  EXPECT_EQ(result_back.ranking.scores, result.ranking.scores);
}

// The online extension is additive: a pre-extension frame must be encoded
// byte-for-byte as before, so ingest-free clients stay wire-compatible.
TEST(ProtocolTest, PreOnlineScoreFrameIsByteIdenticalGolden) {
  ScoreRequest request;
  request.detector = "LOF";
  request.subspace = Subspace({0, 1});
  const std::vector<std::uint8_t> payload =
      EncodeScoreRequest(0x0102030405060708ull, request);
  const std::vector<std::uint8_t> golden = {
      0x01,                                            // version
      0x01,                                            // kScore, no flag
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // id (LE)
      0x03, 0x00, 0x00, 0x00, 'L', 'O', 'F',           // detector
      0x02, 0x00,                                      // subspace size
      0x00, 0x00, 0x00, 0x00,                          // feature 0
      0x01, 0x00, 0x00, 0x00,                          // feature 1
  };
  EXPECT_EQ(payload, golden);
}

// --------------------------------------------------------------------------
// Trace-id header extension: untraced frames must be byte-identical to the
// pre-extension format, traced frames must round-trip the id, and corrupt
// trace headers must fail cleanly.

TEST(ProtocolTest, UntracedFramesKeepTheOldFixedHeaderFormat) {
  ScoreRequest request;
  request.detector = "LOF";
  request.subspace = Subspace({0, 1});
  const std::vector<std::uint8_t> payload = EncodeScoreRequest(3, request);
  // Old format: version byte, bare type byte (high bit clear), 8-byte id.
  EXPECT_EQ(payload[0], kProtocolVersion);
  EXPECT_EQ(payload[1], static_cast<std::uint8_t>(MessageType::kScore));
  EXPECT_EQ(payload[1] & kTraceIdFlag, 0);

  WireReader reader(payload);
  MessageHeader header;
  ASSERT_TRUE(DecodeHeader(reader, &header));
  EXPECT_FALSE(header.has_trace_id);
  EXPECT_EQ(header.trace_id, 0u);
  EXPECT_EQ(EncodedHeaderBytes(header), kMessageHeaderBytes);
  ScoreRequest back;
  EXPECT_TRUE(DecodeScoreRequest(reader, &back));
}

TEST(ProtocolTest, TracedRequestRoundTripsTheTraceId) {
  constexpr std::uint64_t kTraceId = 0xfeedfacecafebeefULL;
  ExplainRequest request;
  request.detector = "LOF";
  request.explainer = "Beam";
  const std::vector<std::uint8_t> payload =
      EncodeExplainRequest(11, request, kTraceId);
  EXPECT_EQ(payload[1],
            static_cast<std::uint8_t>(MessageType::kExplain) | kTraceIdFlag);

  WireReader reader(payload);
  MessageHeader header;
  ASSERT_TRUE(DecodeHeader(reader, &header));
  EXPECT_EQ(header.type, MessageType::kExplain);
  EXPECT_TRUE(header.has_trace_id);
  EXPECT_EQ(header.trace_id, kTraceId);
  EXPECT_EQ(EncodedHeaderBytes(header), kMessageHeaderBytes + 8);
  ExplainRequest back;
  ASSERT_TRUE(DecodeExplainRequest(reader, &back));
  EXPECT_EQ(back.detector, "LOF");
}

TEST(ProtocolTest, TraceIdZeroEncodesAsUntraced) {
  // 0 is the "no trace" sentinel: the flag must not be set, so the frame
  // stays byte-identical to one from a pre-extension client.
  const std::vector<std::uint8_t> with = EncodeStatsRequest(9, 0);
  const std::vector<std::uint8_t> without = EncodeStatsRequest(9);
  EXPECT_EQ(with, without);
  EXPECT_EQ(with[1] & kTraceIdFlag, 0);
}

TEST(ProtocolTest, TruncatedTraceHeaderTripsTheReaderError) {
  ScoreRequest request;
  request.detector = "LOF";
  request.subspace = Subspace({0});
  std::vector<std::uint8_t> payload = EncodeScoreRequest(1, request, 77);
  // Flagged header but the frame ends inside the trace id bytes.
  payload.resize(kMessageHeaderBytes + 4);
  WireReader reader(payload);
  MessageHeader header;
  EXPECT_FALSE(DecodeHeader(reader, &header));
  EXPECT_FALSE(reader.ok());
}

TEST(ProtocolTest, FlagOnlyHeaderWithNoBodyFailsCleanly) {
  // A malicious 10-byte frame with the trace flag set but nothing after
  // the fixed header: decoding must fail, not read out of bounds.
  WireWriter writer;
  writer.PutU8(kProtocolVersion);
  writer.PutU8(static_cast<std::uint8_t>(MessageType::kScore) | kTraceIdFlag);
  writer.PutU64(123);
  WireReader reader(writer.bytes());
  MessageHeader header;
  EXPECT_FALSE(DecodeHeader(reader, &header));
}

TEST(ProtocolTest, TraceDumpRequestRoundTrip) {
  TraceDumpRequest request;
  request.clear = true;
  const std::vector<std::uint8_t> payload = EncodeTraceDumpRequest(4, request);
  WireReader reader(payload);
  MessageHeader header;
  ASSERT_TRUE(DecodeHeader(reader, &header));
  EXPECT_EQ(header.type, MessageType::kTraceDump);
  TraceDumpRequest back;
  ASSERT_TRUE(DecodeTraceDumpRequest(reader, &back));
  EXPECT_TRUE(back.clear);

  const std::vector<std::uint8_t> result =
      EncodeTraceDumpResult(4, TextResult{"{\"traceEvents\":[]}"});
  WireReader result_reader(result);
  ASSERT_TRUE(DecodeHeader(result_reader, &header));
  EXPECT_EQ(header.type, MessageType::kTraceDumpResult);
  TextResult text;
  ASSERT_TRUE(DecodeTextResult(result_reader, &text));
  EXPECT_EQ(text.text, "{\"traceEvents\":[]}");
}

TEST(ProtocolTest, ProfDumpRequestRoundTripAllActions) {
  for (const ProfAction action :
       {ProfAction::kDump, ProfAction::kStart, ProfAction::kStop}) {
    ProfDumpRequest request;
    request.action = action;
    request.sample_hz = 997;
    request.clear = action == ProfAction::kDump;
    const std::vector<std::uint8_t> payload =
        EncodeProfDumpRequest(11, request);
    WireReader reader(payload);
    MessageHeader header;
    ASSERT_TRUE(DecodeHeader(reader, &header));
    EXPECT_EQ(header.type, MessageType::kProfDump);
    EXPECT_EQ(header.request_id, 11u);
    ProfDumpRequest back;
    ASSERT_TRUE(DecodeProfDumpRequest(reader, &back));
    EXPECT_EQ(back.action, action);
    EXPECT_EQ(back.sample_hz, 997u);
    EXPECT_EQ(back.clear, request.clear);
  }
  EXPECT_TRUE(IsRequestType(MessageType::kProfDump));
  EXPECT_FALSE(IsRequestType(MessageType::kProfDumpResult));
}

TEST(ProtocolTest, ProfDumpRequestGoldenBytes) {
  // Frozen frame layout: version, type, request id (u64 LE), action (u8),
  // sample_hz (u32 LE), clear (u8). A change here is a wire break — bump
  // kProtocolVersion instead of editing the expectation.
  ProfDumpRequest request;
  request.action = ProfAction::kStart;
  request.sample_hz = 0x12345678;
  request.clear = true;
  const std::vector<std::uint8_t> payload = EncodeProfDumpRequest(5, request);
  const std::vector<std::uint8_t> expected = {
      kProtocolVersion,
      static_cast<std::uint8_t>(MessageType::kProfDump),  // 8
      5, 0, 0, 0, 0, 0, 0, 0,                             // request id
      1,                                                  // kStart
      0x78, 0x56, 0x34, 0x12,                             // sample_hz
      1,                                                  // clear
  };
  EXPECT_EQ(payload, expected);
}

TEST(ProtocolTest, ProfDumpRequestRejectsUnknownActionAndTrailingBytes) {
  ProfDumpRequest request;
  std::vector<std::uint8_t> payload = EncodeProfDumpRequest(5, request);
  // Action byte sits right after the 10-byte header.
  payload[10] = 9;
  {
    WireReader reader(payload);
    MessageHeader header;
    ASSERT_TRUE(DecodeHeader(reader, &header));
    ProfDumpRequest back;
    EXPECT_FALSE(DecodeProfDumpRequest(reader, &back));
  }
  payload[10] = 0;
  payload.push_back(0xFF);  // Trailing garbage must be rejected.
  {
    WireReader reader(payload);
    MessageHeader header;
    ASSERT_TRUE(DecodeHeader(reader, &header));
    ProfDumpRequest back;
    EXPECT_FALSE(DecodeProfDumpRequest(reader, &back));
  }
}

// --------------------------------------------------------------------------
// Deadline header extension: deadline-less frames must stay byte-identical
// to the old format (the flag lives on the version byte — the type byte's
// high bit already belongs to the trace extension), stamped frames carry a
// trailing u32, and the two optional fields compose.

TEST(ProtocolTest, DeadlineStampedRequestGoldenBytes) {
  ScoreRequest request;
  request.detector = "LOF";
  request.subspace = Subspace({0, 1});
  const std::vector<std::uint8_t> payload = EncodeScoreRequest(
      0x0102030405060708ull, request, /*trace_id=*/0, /*deadline_ms=*/0x1234);
  const std::vector<std::uint8_t> golden = {
      0x81,                                            // version | deadline
      0x01,                                            // kScore, no trace
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // id (LE)
      0x34, 0x12, 0x00, 0x00,                          // deadline_ms (LE)
      0x03, 0x00, 0x00, 0x00, 'L', 'O', 'F',           // detector
      0x02, 0x00,                                      // subspace size
      0x00, 0x00, 0x00, 0x00,                          // feature 0
      0x01, 0x00, 0x00, 0x00,                          // feature 1
  };
  EXPECT_EQ(payload, golden);

  WireReader reader(payload);
  MessageHeader header;
  ASSERT_TRUE(DecodeHeader(reader, &header));
  EXPECT_EQ(header.version, kProtocolVersion);  // Flag stripped on decode.
  EXPECT_TRUE(header.has_deadline);
  EXPECT_EQ(header.deadline_ms, 0x1234u);
  EXPECT_FALSE(header.has_trace_id);
  EXPECT_EQ(EncodedHeaderBytes(header), kMessageHeaderBytes + 4);
  ScoreRequest back;
  ASSERT_TRUE(DecodeScoreRequest(reader, &back));
  EXPECT_EQ(back.detector, "LOF");
}

TEST(ProtocolTest, DeadlineZeroKeepsTheFrameByteIdenticalToOldClients) {
  ScoreRequest request;
  request.detector = "LOF";
  request.subspace = Subspace({0, 1});
  const std::vector<std::uint8_t> with =
      EncodeScoreRequest(3, request, 0, /*deadline_ms=*/0);
  const std::vector<std::uint8_t> without = EncodeScoreRequest(3, request);
  EXPECT_EQ(with, without);
  EXPECT_EQ(with[0], kProtocolVersion);
  EXPECT_EQ(with[0] & kDeadlineFlag, 0);
}

TEST(ProtocolTest, TraceIdAndDeadlineComposeInOrder) {
  constexpr std::uint64_t kTraceId = 0xfeedfacecafebeefULL;
  const std::vector<std::uint8_t> payload =
      EncodeStatsRequest(9, kTraceId, /*deadline_ms=*/250);
  EXPECT_EQ(payload[0], kProtocolVersion | kDeadlineFlag);
  EXPECT_EQ(payload[1],
            static_cast<std::uint8_t>(MessageType::kStats) | kTraceIdFlag);

  WireReader reader(payload);
  MessageHeader header;
  ASSERT_TRUE(DecodeHeader(reader, &header));
  EXPECT_TRUE(header.has_trace_id);
  EXPECT_EQ(header.trace_id, kTraceId);
  EXPECT_TRUE(header.has_deadline);
  EXPECT_EQ(header.deadline_ms, 250u);
  EXPECT_EQ(EncodedHeaderBytes(header), kMessageHeaderBytes + 8 + 4);
  EXPECT_TRUE(reader.AtEnd());  // Stats has an empty body.
}

TEST(ProtocolTest, TruncatedDeadlineHeaderFailsCleanly) {
  std::vector<std::uint8_t> payload =
      EncodeStatsRequest(9, /*trace_id=*/0, /*deadline_ms=*/250);
  payload.resize(kMessageHeaderBytes + 2);  // Ends inside the deadline u32.
  WireReader reader(payload);
  MessageHeader header;
  EXPECT_FALSE(DecodeHeader(reader, &header));
  EXPECT_FALSE(reader.ok());
}

TEST(ProtocolTest, DeadlineExceededResponseGoldenBytes) {
  const std::vector<std::uint8_t> payload = EncodeDeadlineExceeded(7);
  const std::vector<std::uint8_t> golden = {
      kProtocolVersion,
      static_cast<std::uint8_t>(MessageType::kDeadlineExceeded),  // 102
      7, 0, 0, 0, 0, 0, 0, 0,                                     // id
  };
  EXPECT_EQ(payload, golden);  // Empty body, like kBusy.

  WireReader reader(payload);
  MessageHeader header;
  ASSERT_TRUE(DecodeHeader(reader, &header));
  EXPECT_EQ(header.type, MessageType::kDeadlineExceeded);
  EXPECT_EQ(header.request_id, 7u);
  EXPECT_TRUE(reader.AtEnd());
}

// --------------------------------------------------------------------------
// Score vectors and ingest rows are the bulk of the traffic: pin their exact
// bytes, including the IEEE-754 edge cases, so the codec can only change how
// it writes them, never what it writes.

/// The little-endian bytes of `bits`.
std::vector<std::uint8_t> LeBytes(std::uint64_t bits) {
  std::vector<std::uint8_t> out;
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(bits >> shift));
  }
  return out;
}

TEST(ProtocolTest, ScoreResultGoldenBytesPinEdgeDoubles) {
  constexpr std::uint64_t kNanWithPayload = 0x7ff80000c0ffee01ull;
  ScoreResult result;
  result.scores = {0.0,
                   -0.0,
                   std::numeric_limits<double>::denorm_min(),
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::max(),
                   std::bit_cast<double>(kNanWithPayload)};
  const std::vector<std::uint8_t> payload =
      EncodeScoreResult(0x0102030405060708ull, result);
  const std::vector<std::uint8_t> golden = {
      0x01,                                            // version
      0x40,                                            // kScoreResult
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // id (LE)
      0x07, 0x00, 0x00, 0x00,                          // count
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // 0.0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,  // -0.0
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // denorm_min
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x7f,  // +inf
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0xff,  // -inf
      0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f,  // DBL_MAX
      0x01, 0xee, 0xff, 0xc0, 0x00, 0x00, 0xf8, 0x7f,  // quiet NaN, payload
  };
  EXPECT_EQ(payload, golden);

  WireReader reader(payload);
  MessageHeader header;
  ASSERT_TRUE(DecodeHeader(reader, &header));
  EXPECT_EQ(header.type, MessageType::kScoreResult);
  ScoreResult back;
  ASSERT_TRUE(DecodeScoreResult(reader, &back));
  ASSERT_EQ(back.scores.size(), result.scores.size());
  for (std::size_t i = 0; i < back.scores.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.scores[i]),
              std::bit_cast<std::uint64_t>(result.scores[i]))
        << "element " << i;
  }
}

TEST(ProtocolTest, ScoreResultGoldenBytesEmptyAndSingleton) {
  const std::vector<std::uint8_t> empty =
      EncodeScoreResult(5, ScoreResult{});
  const std::vector<std::uint8_t> empty_golden = {
      0x01, 0x40, 5, 0, 0, 0, 0, 0, 0, 0,  // header
      0x00, 0x00, 0x00, 0x00,              // count 0, no elements
  };
  EXPECT_EQ(empty, empty_golden);
  WireReader empty_reader(empty);
  MessageHeader header;
  ASSERT_TRUE(DecodeHeader(empty_reader, &header));
  ScoreResult back;
  back.scores = {9.0};  // Decoding must replace, not append.
  ASSERT_TRUE(DecodeScoreResult(empty_reader, &back));
  EXPECT_TRUE(back.scores.empty());

  ScoreResult one;
  one.scores = {-1.5};  // 0xbff8000000000000
  const std::vector<std::uint8_t> single = EncodeScoreResult(6, one);
  std::vector<std::uint8_t> single_golden = {
      0x01, 0x40, 6, 0, 0, 0, 0, 0, 0, 0,  // header
      0x01, 0x00, 0x00, 0x00,              // count 1
  };
  const std::vector<std::uint8_t> bits = LeBytes(0xbff8000000000000ull);
  single_golden.insert(single_golden.end(), bits.begin(), bits.end());
  EXPECT_EQ(single, single_golden);
  WireReader single_reader(single);
  ASSERT_TRUE(DecodeHeader(single_reader, &header));
  ASSERT_TRUE(DecodeScoreResult(single_reader, &back));
  EXPECT_EQ(back.scores, one.scores);

  // A count that promises more doubles than the payload holds fails
  // cleanly instead of reading past the end.
  std::vector<std::uint8_t> truncated = single;
  truncated.pop_back();
  WireReader truncated_reader(truncated);
  ASSERT_TRUE(DecodeHeader(truncated_reader, &header));
  EXPECT_FALSE(DecodeScoreResult(truncated_reader, &back));
}

TEST(ProtocolTest, IngestRequestGoldenBytes) {
  IngestRequest request;
  request.dataset = "s1";
  request.num_rows = 2;
  request.values = {1.0, -2.5, 0.1, 3.0};
  const std::vector<std::uint8_t> payload = EncodeIngestRequest(
      0x0102030405060708ull, request, /*trace_id=*/0xfeedfacecafebeefull,
      /*deadline_ms=*/0x01020304);
  const std::vector<std::uint8_t> golden = {
      0x81,                                            // version | deadline
      0x85,                                            // kIngest | trace
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // id (LE)
      0xef, 0xbe, 0xfe, 0xca, 0xce, 0xfa, 0xed, 0xfe,  // trace id (LE)
      0x04, 0x03, 0x02, 0x01,                          // deadline_ms (LE)
      0x02, 0x00, 0x00, 0x00, 's', '1',                // dataset
      0x02, 0x00, 0x00, 0x00,                          // num_rows
      0x04, 0x00, 0x00, 0x00,                          // value count
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f,  // 1.0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0xc0,  // -2.5
      0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xb9, 0x3f,  // 0.1
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x40,  // 3.0
  };
  EXPECT_EQ(payload, golden);

  WireReader reader(payload);
  MessageHeader header;
  ASSERT_TRUE(DecodeHeader(reader, &header));
  EXPECT_EQ(header.type, MessageType::kIngest);
  EXPECT_EQ(header.trace_id, 0xfeedfacecafebeefull);
  EXPECT_EQ(header.deadline_ms, 0x01020304u);
  IngestRequest back;
  ASSERT_TRUE(DecodeIngestRequest(reader, &back));
  EXPECT_EQ(back.dataset, "s1");
  EXPECT_EQ(back.num_rows, 2u);
  EXPECT_EQ(back.values, request.values);
}

TEST(ProtocolTest, ProfDumpResultRoundTrip) {
  const std::vector<std::uint8_t> payload =
      EncodeProfDumpResult(7, ProfDumpResult{"main;Lof::Score 42\n"});
  WireReader reader(payload);
  MessageHeader header;
  ASSERT_TRUE(DecodeHeader(reader, &header));
  EXPECT_EQ(header.type, MessageType::kProfDumpResult);
  EXPECT_EQ(header.request_id, 7u);
  ProfDumpResult back;
  ASSERT_TRUE(DecodeProfDumpResult(reader, &back));
  EXPECT_EQ(back.text, "main;Lof::Score 42\n");
}

}  // namespace
}  // namespace subex
