// Deterministic fuzz of the wire parsers: valid frames survive arbitrary
// chunking, and truncated/corrupted/garbage inputs are rejected cleanly —
// no crash, no hang, no out-of-bounds read (the sanitizer CI lane turns
// any of those into a failure).

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/wire.h"

namespace subex {
namespace {

/// Every request encoder, exercised with and without the optional trace id
/// and deadline so the fuzz covers all three header layouts.
std::vector<std::vector<std::uint8_t>> CorpusPayloads() {
  std::vector<std::vector<std::uint8_t>> corpus;
  const std::uint64_t trace_ids[] = {0, 0xfeedfacecafebeefull};
  const std::uint32_t deadlines[] = {0, 1500};
  for (const std::uint64_t trace : trace_ids) {
    for (const std::uint32_t deadline : deadlines) {
      corpus.push_back(EncodeScoreRequest(
          7, ScoreRequest{"LOF", Subspace({0, 2, 5})}, trace, deadline));
      corpus.push_back(EncodeExplainRequest(
          8, ExplainRequest{"LOF", "Beam", 12, 2, 5}, trace, deadline));
      corpus.push_back(EncodeStatsRequest(9, trace, deadline));
      corpus.push_back(
          EncodeTraceDumpRequest(10, TraceDumpRequest{true}, trace, deadline));
      corpus.push_back(EncodeIngestRequest(
          11, IngestRequest{"stream", 2, {1.0, 2.0, 3.0, 4.0}}, trace,
          deadline));
      corpus.push_back(EncodeOnlineScoreRequest(
          12, OnlineScoreRequest{"stream", "LODA", Subspace({1})}, trace,
          deadline));
      corpus.push_back(EncodeOnlineExplainRequest(
          13, OnlineExplainRequest{"stream", "LODA", "Beam", 3, 2, 4}, trace,
          deadline));
      corpus.push_back(EncodeProfDumpRequest(
          14, ProfDumpRequest{ProfAction::kStart, 97, false}, trace,
          deadline));
    }
  }
  return corpus;
}

/// Well-framed payloads whose bodies the decoders must reject: ingest rows
/// carrying NaN or an infinity never reach an online window or its WAL.
std::vector<std::vector<std::uint8_t>> RejectedPayloads() {
  std::vector<std::vector<std::uint8_t>> corpus;
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    corpus.push_back(EncodeIngestRequest(
        15, IngestRequest{"stream", 2, {1.0, bad, 3.0, 4.0}}));
  }
  return corpus;
}

/// Header + matching body decode; returns false on any rejection. The fuzz
/// only cares that this never crashes and that intact payloads pass.
bool DecodePayload(const std::vector<std::uint8_t>& payload) {
  WireReader reader(payload);
  MessageHeader header;
  if (!DecodeHeader(reader, &header)) return false;
  switch (header.type) {
    case MessageType::kScore: {
      ScoreRequest out;
      return DecodeScoreRequest(reader, &out);
    }
    case MessageType::kExplain: {
      ExplainRequest out;
      return DecodeExplainRequest(reader, &out);
    }
    case MessageType::kStats:
      return reader.AtEnd();
    case MessageType::kTraceDump: {
      TraceDumpRequest out;
      return DecodeTraceDumpRequest(reader, &out);
    }
    case MessageType::kIngest: {
      IngestRequest out;
      return DecodeIngestRequest(reader, &out);
    }
    case MessageType::kOnlineScore: {
      OnlineScoreRequest out;
      return DecodeOnlineScoreRequest(reader, &out);
    }
    case MessageType::kOnlineExplain: {
      OnlineExplainRequest out;
      return DecodeOnlineExplainRequest(reader, &out);
    }
    case MessageType::kProfDump: {
      ProfDumpRequest out;
      return DecodeProfDumpRequest(reader, &out);
    }
    default:
      return false;
  }
}

/// Feeds `stream` to a decoder in random chunks and decodes every frame
/// that comes out. Returns the number of successfully decoded payloads.
int DrainInChunks(const std::vector<std::uint8_t>& stream, Rng& rng,
                  bool* decoder_error = nullptr) {
  FrameDecoder decoder;
  int decoded = 0;
  std::size_t fed = 0;
  std::vector<std::uint8_t> payload;
  while (fed < stream.size()) {
    const std::size_t chunk =
        std::min(stream.size() - fed, rng.UniformIndex(7) + 1);
    decoder.Feed(stream.data() + fed, chunk);
    fed += chunk;
    while (decoder.Next(&payload)) {
      if (DecodePayload(payload)) ++decoded;
    }
  }
  if (decoder_error != nullptr) *decoder_error = decoder.error();
  return decoded;
}

TEST(FrameFuzz, IntactFramesSurviveArbitraryChunking) {
  const std::vector<std::vector<std::uint8_t>> corpus = CorpusPayloads();
  std::vector<std::uint8_t> stream;
  for (const std::vector<std::uint8_t>& payload : corpus) {
    const std::vector<std::uint8_t> frame = EncodeFrame(payload);
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  Rng rng(20260808);
  for (int round = 0; round < 50; ++round) {
    bool error = false;
    EXPECT_EQ(DrainInChunks(stream, rng, &error),
              static_cast<int>(corpus.size()));
    EXPECT_FALSE(error);
  }
}

TEST(FrameFuzz, NonFiniteIngestFramesAreRejectedAmidValidOnes) {
  // Interleave rejected frames with the valid corpus: each still frames
  // cleanly (no sticky decoder error), only its body decode fails.
  const std::vector<std::vector<std::uint8_t>> valid = CorpusPayloads();
  const std::vector<std::vector<std::uint8_t>> rejected = RejectedPayloads();
  std::vector<std::uint8_t> stream;
  for (std::size_t i = 0; i < valid.size(); ++i) {
    for (const std::vector<std::uint8_t>* payload :
         {&valid[i], &rejected[i % rejected.size()]}) {
      const std::vector<std::uint8_t> frame = EncodeFrame(*payload);
      stream.insert(stream.end(), frame.begin(), frame.end());
    }
  }
  for (const std::vector<std::uint8_t>& payload : rejected) {
    EXPECT_FALSE(DecodePayload(payload));
  }
  Rng rng(20261017);
  for (int round = 0; round < 20; ++round) {
    bool error = false;
    EXPECT_EQ(DrainInChunks(stream, rng, &error),
              static_cast<int>(valid.size()));
    EXPECT_FALSE(error);
  }
}

TEST(FrameFuzz, TruncatedPayloadsAreRejectedAtEveryCut) {
  for (const std::vector<std::uint8_t>& payload : CorpusPayloads()) {
    ASSERT_TRUE(DecodePayload(payload));
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      const std::vector<std::uint8_t> truncated(payload.begin(),
                                                payload.begin() + cut);
      EXPECT_FALSE(DecodePayload(truncated)) << "cut at " << cut;
    }
  }
}

TEST(FrameFuzz, BitFlippedPayloadsNeverCrash) {
  Rng rng(42);
  const std::vector<std::vector<std::uint8_t>> corpus = CorpusPayloads();
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::uint8_t> payload = corpus[rng.UniformIndex(corpus.size())];
    const int flips = 1 + static_cast<int>(rng.UniformIndex(4));
    for (int i = 0; i < flips; ++i) {
      const std::size_t pos = rng.UniformIndex(payload.size());
      payload[pos] ^=
          static_cast<std::uint8_t>(1u << rng.UniformIndex(8));
    }
    (void)DecodePayload(payload);  // Any verdict is fine; crashing is not.
  }
}

TEST(FrameFuzz, PureGarbageStreamsNeverCrashTheDecoder) {
  Rng rng(1337);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> stream(rng.UniformIndex(512) + 1);
    for (std::uint8_t& b : stream) {
      b = static_cast<std::uint8_t>(rng.UniformIndex(256));
    }
    // Small length prefixes make the garbage parse as tiny frames; the
    // payload decoders must reject them all without reading out of bounds.
    (void)DrainInChunks(stream, rng);
  }
}

TEST(FrameFuzz, OversizeLengthPrefixTripsTheStickyError) {
  FrameDecoder decoder(/*max_frame_bytes=*/1024);
  WireWriter writer;
  writer.PutU32(1u << 30);  // A 1 GiB frame announcement.
  const std::vector<std::uint8_t> prefix = writer.Take();
  decoder.Feed(prefix.data(), prefix.size());
  std::vector<std::uint8_t> payload;
  EXPECT_FALSE(decoder.Next(&payload));
  EXPECT_TRUE(decoder.error());
  // Sticky: feeding more data cannot resynchronize the stream.
  const std::vector<std::uint8_t> frame = EncodeFrame({1, 2, 3});
  decoder.Feed(frame.data(), frame.size());
  EXPECT_FALSE(decoder.Next(&payload));
  EXPECT_TRUE(decoder.error());
}

TEST(FrameFuzz, TrailingBytesAfterABodyAreRejected) {
  for (std::vector<std::uint8_t> payload : CorpusPayloads()) {
    payload.push_back(0x00);  // One stray byte past a well-formed body.
    EXPECT_FALSE(DecodePayload(payload));
  }
}

}  // namespace
}  // namespace subex
