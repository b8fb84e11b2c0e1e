// The WAL/checkpoint layer and the crash-recovery contract: record round
// trips, torn-tail tolerance, CRC detection, atomic checkpoints, and the
// golden restart property — a recovered OnlineDataset is bitwise
// indistinguishable from one that never crashed.

#include "online/wal.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "detect/loda.h"
#include "fault/fault.h"
#include "online/online_dataset.h"

namespace subex {
namespace {

// Hands out per-process directories and removes each one, with everything
// written into it, in `TearDown`.
class TempDirTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& dir : made_) std::filesystem::remove_all(dir);
  }

  std::string TempDir(const std::string& tag) {
    made_.push_back(::testing::TempDir() + "subex_wal_" + tag + "_" +
                    std::to_string(::getpid()));
    ::mkdir(made_.back().c_str(), 0755);
    return made_.back();
  }

 private:
  std::vector<std::string> made_;
};

class Wal : public TempDirTest {};
class Checkpoint : public TempDirTest {};
class WalRecovery : public TempDirTest {};

std::vector<std::uint8_t> Bytes(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

TEST_F(Wal, AppendAndReadRoundTrip) {
  const std::string path = TempDir("roundtrip") + "/a.wal";
  ::unlink(path.c_str());
  WalWriter writer;
  std::string error;
  ASSERT_TRUE(writer.Open(path, &error)) << error;
  const std::vector<std::uint8_t> p1 = Bytes("hello");
  const std::vector<std::uint8_t> p2 = Bytes("");
  const std::vector<std::uint8_t> p3(1000, 0xab);
  ASSERT_TRUE(writer.Append(1, p1.data(), p1.size(), &error)) << error;
  ASSERT_TRUE(writer.Append(2, p2.data(), p2.size(), &error)) << error;
  ASSERT_TRUE(writer.Append(7, p3.data(), p3.size(), &error)) << error;
  EXPECT_EQ(writer.records(), 3u);
  ASSERT_TRUE(writer.Sync(&error)) << error;
  writer.Close();

  const WalReadResult read = ReadWal(path);
  ASSERT_TRUE(read.ok()) << read.error;
  EXPECT_FALSE(read.truncated_tail);
  ASSERT_EQ(read.records.size(), 3u);
  EXPECT_EQ(read.records[0].type, 1);
  EXPECT_EQ(read.records[0].payload, p1);
  EXPECT_EQ(read.records[1].type, 2);
  EXPECT_TRUE(read.records[1].payload.empty());
  EXPECT_EQ(read.records[2].type, 7);
  EXPECT_EQ(read.records[2].payload, p3);
}

TEST_F(Wal, AbsentFileReadsAsEmpty) {
  const WalReadResult read = ReadWal(TempDir("absent") + "/nope.wal");
  EXPECT_TRUE(read.ok()) << read.error;
  EXPECT_TRUE(read.records.empty());
  EXPECT_FALSE(read.truncated_tail);
}

TEST_F(Wal, TornTailIsDroppedCleanly) {
  const std::string path = TempDir("torn") + "/a.wal";
  ::unlink(path.c_str());
  WalWriter writer;
  std::string error;
  ASSERT_TRUE(writer.Open(path, &error)) << error;
  const std::vector<std::uint8_t> p = Bytes("durable");
  ASSERT_TRUE(writer.Append(1, p.data(), p.size(), &error));
  ASSERT_TRUE(writer.Append(1, p.data(), p.size(), &error));
  writer.Close();

  // Tear the final record at every possible byte boundary: the reader must
  // always keep record 1 and drop the torn tail without erroring.
  struct stat st;
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  const std::size_t full = static_cast<std::size_t>(st.st_size);
  const std::size_t record = full / 2;
  for (std::size_t cut = record + 1; cut < full; ++cut) {
    ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(cut)), 0);
    const WalReadResult read = ReadWal(path);
    ASSERT_TRUE(read.ok()) << read.error;
    EXPECT_TRUE(read.truncated_tail) << "cut at " << cut;
    ASSERT_EQ(read.records.size(), 1u) << "cut at " << cut;
    EXPECT_EQ(read.records[0].payload, p);
  }
}

TEST_F(Wal, CorruptRecordStopsReplayAtLastGoodRecord) {
  const std::string path = TempDir("corrupt") + "/a.wal";
  ::unlink(path.c_str());
  WalWriter writer;
  std::string error;
  const std::vector<std::uint8_t> p = Bytes("payload");
  ASSERT_TRUE(writer.Open(path, &error)) << error;
  ASSERT_TRUE(writer.Append(1, p.data(), p.size(), &error));
  ASSERT_TRUE(writer.Append(1, p.data(), p.size(), &error));
  writer.Close();

  // Flip one payload byte of the second record.
  struct stat st;
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  file.seekp(st.st_size - 1);
  file.put(static_cast<char>('x'));
  file.close();

  const WalReadResult read = ReadWal(path);
  ASSERT_TRUE(read.ok()) << read.error;
  EXPECT_TRUE(read.truncated_tail);
  ASSERT_EQ(read.records.size(), 1u);
}

TEST_F(Wal, TruncateEmptiesTheLog) {
  const std::string path = TempDir("trunc") + "/a.wal";
  ::unlink(path.c_str());
  WalWriter writer;
  std::string error;
  const std::vector<std::uint8_t> p = Bytes("x");
  ASSERT_TRUE(writer.Open(path, &error));
  ASSERT_TRUE(writer.Append(1, p.data(), p.size(), &error));
  EXPECT_GT(writer.bytes(), 0u);
  ASSERT_TRUE(writer.Truncate(&error)) << error;
  EXPECT_EQ(writer.bytes(), 0u);
  ASSERT_TRUE(writer.Append(2, p.data(), p.size(), &error));
  writer.Close();
  const WalReadResult read = ReadWal(path);
  ASSERT_EQ(read.records.size(), 1u);
  EXPECT_EQ(read.records[0].type, 2);
}

TEST_F(Wal, AppendFaultInjection) {
  FaultControl control;
  control.Arm(FaultPoint::kWalAppend, FaultRule{});
  const std::string path = TempDir("fault") + "/a.wal";
  ::unlink(path.c_str());
  WalWriter writer;
  std::string error;
  ASSERT_TRUE(writer.Open(path, &error));
  const std::vector<std::uint8_t> p = Bytes("x");
  EXPECT_FALSE(writer.Append(1, p.data(), p.size(), &error));
  EXPECT_NE(error.find("injected"), std::string::npos) << error;
  EXPECT_EQ(writer.bytes(), 0u);
}

TEST_F(Checkpoint, RoundTripAndAtomicReplace) {
  const std::string path = TempDir("ckpt") + "/c.ckpt";
  ::unlink(path.c_str());
  std::string error;
  const std::vector<std::uint8_t> v1 = Bytes("state one");
  ASSERT_TRUE(WriteCheckpointFile(path, v1, &error)) << error;
  CheckpointReadResult read = ReadCheckpointFile(path);
  ASSERT_TRUE(read.ok()) << read.error;
  ASSERT_TRUE(read.exists);
  EXPECT_EQ(read.payload, v1);

  const std::vector<std::uint8_t> v2 = Bytes("state two, longer than one");
  ASSERT_TRUE(WriteCheckpointFile(path, v2, &error)) << error;
  read = ReadCheckpointFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.payload, v2);
}

TEST_F(Checkpoint, AbsentFileIsOkCorruptFileIsError) {
  const std::string dir = TempDir("ckpt2");
  CheckpointReadResult read = ReadCheckpointFile(dir + "/nope.ckpt");
  EXPECT_TRUE(read.ok());
  EXPECT_FALSE(read.exists);

  const std::string path = dir + "/bad.ckpt";
  std::ofstream(path, std::ios::binary) << "not a checkpoint at all";
  read = ReadCheckpointFile(path);
  EXPECT_TRUE(read.exists);
  EXPECT_FALSE(read.ok());

  // Valid envelope, corrupted payload byte: CRC must catch it.
  std::string error;
  ASSERT_TRUE(WriteCheckpointFile(path, Bytes("good payload"), &error));
  struct stat st;
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  file.seekp(st.st_size - 1);
  file.put('!');
  file.close();
  read = ReadCheckpointFile(path);
  EXPECT_TRUE(read.exists);
  EXPECT_FALSE(read.ok());
  EXPECT_NE(read.error.find("CRC"), std::string::npos) << read.error;
}

TEST_F(Checkpoint, SyncFaultLeavesOldCheckpointIntact) {
  FaultControl control;
  const std::string path = TempDir("ckpt3") + "/c.ckpt";
  ::unlink(path.c_str());
  std::string error;
  const std::vector<std::uint8_t> v1 = Bytes("old");
  ASSERT_TRUE(WriteCheckpointFile(path, v1, &error));
  control.Arm(FaultPoint::kWalSync, FaultRule{});
  EXPECT_FALSE(WriteCheckpointFile(path, Bytes("new"), &error));
  EXPECT_NE(error.find("injected"), std::string::npos) << error;
  control.Disarm(FaultPoint::kWalSync);
  const CheckpointReadResult read = ReadCheckpointFile(path);
  ASSERT_TRUE(read.ok()) << read.error;
  EXPECT_EQ(read.payload, v1);  // The failed write never replaced it.
}

// --- The golden restart contract -----------------------------------------

OnlineDatasetOptions RecoveryOptions(const std::string& wal_dir) {
  OnlineDatasetOptions options;
  options.name = "golden";
  options.window_capacity = 48;
  options.advance_every = 8;
  options.min_score_window = 16;
  options.wal_dir = wal_dir;
  options.wal_checkpoint_every = 3;
  return options;
}

Matrix StreamRows(std::uint64_t from, std::uint64_t count,
                  std::size_t num_features) {
  Matrix m(count, num_features);
  for (std::uint64_t r = 0; r < count; ++r) {
    for (std::size_t f = 0; f < num_features; ++f) {
      // Deterministic, feature-dependent, irrational enough to make every
      // value distinct at the bit level.
      m(r, f) = std::sin(0.37 * static_cast<double>(from + r) +
                         1.13 * static_cast<double>(f));
    }
  }
  return m;
}

void AddGoldenScorer(OnlineDataset& dataset) {
  Loda::Options loda;
  loda.num_projections = 6;
  dataset.AddLoda("LODA", loda);
}

/// Ingests rows [0, n) in ragged batches (deliberately misaligned with the
/// stride) so checkpoints land mid-batch with rows pending.
void IngestUpTo(OnlineDataset& dataset, std::uint64_t n,
                std::size_t num_features) {
  const std::uint64_t from = dataset.stats().total_ingested;
  std::uint64_t r = from;
  while (r < n) {
    const std::uint64_t batch = std::min<std::uint64_t>(5, n - r);
    dataset.Append(StreamRows(r, batch, num_features));
    r += batch;
  }
}

TEST_F(WalRecovery, RestartMatchesUninterruptedRunBitwise) {
  constexpr std::size_t kFeatures = 3;
  constexpr std::uint64_t kTotal = 150;
  constexpr std::uint64_t kCrashAt = 97;
  const std::string dir = TempDir("golden");
  ::unlink((dir + "/golden.wal").c_str());
  ::unlink((dir + "/golden.ckpt").c_str());

  // Process A: ingests 97 rows and "crashes" (destroyed mid-stream, its
  // WAL and checkpoint left on disk exactly as written).
  {
    OnlineDataset crashed(RecoveryOptions(dir), kFeatures);
    AddGoldenScorer(crashed);
    ASSERT_TRUE(crashed.RecoverFromWal().ok());
    IngestUpTo(crashed, kCrashAt, kFeatures);
  }

  // Process B: recovers from disk, then finishes the stream.
  OnlineDataset recovered(RecoveryOptions(dir), kFeatures);
  AddGoldenScorer(recovered);
  const OnlineDataset::RecoveryResult recovery = recovered.RecoverFromWal();
  ASSERT_TRUE(recovery.ok()) << recovery.error;
  EXPECT_TRUE(recovery.recovered);
  EXPECT_EQ(recovered.stats().total_ingested, kCrashAt);
  IngestUpTo(recovered, kTotal, kFeatures);

  // Process C: the control — never crashed, no WAL.
  OnlineDataset reference(RecoveryOptions(""), kFeatures);
  AddGoldenScorer(reference);
  IngestUpTo(reference, kTotal, kFeatures);

  const OnlineDataset::StatsSnapshot got = recovered.stats();
  const OnlineDataset::StatsSnapshot want = reference.stats();
  EXPECT_EQ(got.epoch, want.epoch);
  EXPECT_EQ(got.advances, want.advances);
  EXPECT_EQ(got.window_size, want.window_size);
  EXPECT_EQ(got.pending, want.pending);
  EXPECT_EQ(got.total_ingested, want.total_ingested);

  // The paper-grade assertion: per-point window scores, bitwise.
  OnlineDataset::ScoredEpoch got_scores, want_scores;
  ASSERT_EQ(recovered.Score("LODA", Subspace(), &got_scores),
            OnlineDataset::Status::kOk);
  ASSERT_EQ(reference.Score("LODA", Subspace(), &want_scores),
            OnlineDataset::Status::kOk);
  ASSERT_EQ(got_scores.scores->size(), want_scores.scores->size());
  for (std::size_t i = 0; i < got_scores.scores->size(); ++i) {
    std::uint64_t got_bits, want_bits;
    std::memcpy(&got_bits, &(*got_scores.scores)[i], 8);
    std::memcpy(&want_bits, &(*want_scores.scores)[i], 8);
    EXPECT_EQ(got_bits, want_bits) << "score " << i << " differs";
  }
}

TEST_F(WalRecovery, FlushIsJournaledToo) {
  constexpr std::size_t kFeatures = 2;
  const std::string dir = TempDir("flush");
  ::unlink((dir + "/golden.wal").c_str());
  ::unlink((dir + "/golden.ckpt").c_str());

  {
    OnlineDataset crashed(RecoveryOptions(dir), kFeatures);
    AddGoldenScorer(crashed);
    ASSERT_TRUE(crashed.RecoverFromWal().ok());
    // 21 rows = 2 advances + 5 pending, then a forced flush advance.
    IngestUpTo(crashed, 21, kFeatures);
    crashed.Flush();
    ASSERT_EQ(crashed.stats().pending, 0u);
  }

  OnlineDataset recovered(RecoveryOptions(dir), kFeatures);
  AddGoldenScorer(recovered);
  ASSERT_TRUE(recovered.RecoverFromWal().ok());
  EXPECT_EQ(recovered.stats().pending, 0u);
  EXPECT_EQ(recovered.stats().epoch, 3u);  // 2 stride + 1 flush advance.
  EXPECT_EQ(recovered.stats().total_ingested, 21u);
}

TEST_F(WalRecovery, DegradesButKeepsServingWhenAppendsFail) {
  FaultControl control;
  constexpr std::size_t kFeatures = 2;
  const std::string dir = TempDir("degrade");
  ::unlink((dir + "/golden.wal").c_str());
  ::unlink((dir + "/golden.ckpt").c_str());

  OnlineDataset dataset(RecoveryOptions(dir), kFeatures);
  AddGoldenScorer(dataset);
  ASSERT_TRUE(dataset.RecoverFromWal().ok());
  control.Arm(FaultPoint::kWalAppend, FaultRule{});
  IngestUpTo(dataset, 40, kFeatures);  // Every WAL append fails.
  const OnlineDataset::StatsSnapshot stats = dataset.stats();
  EXPECT_TRUE(stats.wal_degraded);
  EXPECT_EQ(stats.total_ingested, 40u);  // Ingest itself never failed.
  EXPECT_GT(stats.epoch, 0u);
}

TEST_F(WalRecovery, FreshDirectoryIsANoOp) {
  const std::string dir = TempDir("fresh");
  ::unlink((dir + "/golden.wal").c_str());
  ::unlink((dir + "/golden.ckpt").c_str());
  OnlineDataset dataset(RecoveryOptions(dir), 2);
  AddGoldenScorer(dataset);
  const OnlineDataset::RecoveryResult recovery = dataset.RecoverFromWal();
  ASSERT_TRUE(recovery.ok()) << recovery.error;
  EXPECT_FALSE(recovery.recovered);
  EXPECT_EQ(dataset.stats().total_ingested, 0u);
}

}  // namespace
}  // namespace subex
