#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "detect/loda.h"
#include "detect/lof.h"
#include "explain/beam.h"
#include "net/explain_client.h"
#include "net/explain_server.h"
#include "online/online_dataset.h"
#include "stream/drifting_stream.h"

namespace subex {
namespace {

/// One online dataset (LODA incremental + LOF re-index) behind a started
/// server, plus a drifting stream to ingest from.
class OnlineServeTest : public ::testing::Test {
 protected:
  /// Stops the server, closing the WAL, then removes the WAL directory.
  void TearDown() override {
    server_.reset();
    pool_.reset();
    dataset_.reset();
    if (!wal_dir_.empty()) std::filesystem::remove_all(wal_dir_);
  }

  /// A per-process WAL directory, removed in `TearDown`.
  std::string MakeWalDir(const std::string& tag) {
    wal_dir_ = ::testing::TempDir() + "subex_online_serve_" + tag + "_" +
               std::to_string(::getpid());
    ::mkdir(wal_dir_.c_str(), 0755);
    return wal_dir_;
  }

  /// `wal_dir` non-empty turns on the dataset's WAL there.
  void StartServer(const std::string& wal_dir = "") {
    OnlineDatasetOptions options;
    options.name = "stream";
    options.wal_dir = wal_dir;
    options.window_capacity = 64;
    options.advance_every = 16;
    options.min_score_window = 16;
    options.drift.min_window = 16;
    dataset_ = std::make_unique<OnlineDataset>(options, kFeatures);
    dataset_->AddLoda("LODA", loda_.options());
    dataset_->AddReindexDetector("LOF", lof_);

    pool_ = std::make_unique<ThreadPool>(2);
    server_ = std::make_unique<ExplainServer>(ExplainServerOptions{},
                                              pool_.get());
    server_->RegisterOnlineDataset(*dataset_);
    server_->RegisterExplainer("Beam", beam_);
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
  }

  ExplainClient MakeClient() {
    ExplainClient client;
    std::string error;
    EXPECT_TRUE(client.Connect("127.0.0.1", server_->port(), &error)) << error;
    return client;
  }

  /// Row-major values of the next `n` stream rows.
  std::vector<double> NextRows(std::size_t n) {
    std::vector<double> values;
    values.reserve(n * kFeatures);
    while (values.size() < n * kFeatures) {
      if (buffered_.empty()) {
        const StreamChunk chunk = stream_.Next();
        for (std::size_t r = 0; r < chunk.points.rows(); ++r) {
          for (std::size_t f = 0; f < chunk.points.cols(); ++f) {
            buffered_.push_back(chunk.points(r, f));
          }
        }
      }
      values.push_back(buffered_.front());
      buffered_.erase(buffered_.begin());
    }
    return values;
  }

  static constexpr std::size_t kFeatures = 5;

  DriftingStreamGenerator stream_{[] {
    DriftingStreamConfig config;
    config.chunk_size = 64;
    config.outliers_per_chunk = 3;
    config.drift_every_chunks = 4;
    config.subspace_dims = {2, 3};  // 5 features.
    config.seed = 31;
    return config;
  }()};
  std::vector<double> buffered_;
  Loda loda_{Loda::Options{.num_projections = 16}};
  Lof lof_{5};
  Beam beam_;
  std::unique_ptr<OnlineDataset> dataset_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<ExplainServer> server_;
  std::string wal_dir_;
};

TEST_F(OnlineServeTest, IngestReportsWindowProgress) {
  StartServer();
  ExplainClient client = MakeClient();

  const ExplainClient::IngestReply r1 = client.Ingest("stream", 8, NextRows(8));
  ASSERT_TRUE(r1.ok()) << r1.error;
  EXPECT_EQ(r1.result.accepted, 8u);
  EXPECT_EQ(r1.result.window_epoch, 0u);  // Still pending, below the stride.
  EXPECT_EQ(r1.result.window_size, 0u);
  EXPECT_EQ(r1.result.advances, 0u);

  const ExplainClient::IngestReply r2 =
      client.Ingest("stream", 24, NextRows(24));
  ASSERT_TRUE(r2.ok()) << r2.error;
  EXPECT_EQ(r2.result.window_epoch, 2u);  // 32 rows = two strides of 16.
  EXPECT_EQ(r2.result.window_size, 32u);
  EXPECT_EQ(r2.result.total_ingested, 32u);
  EXPECT_EQ(r2.result.advances, 2u);
  EXPECT_EQ(dataset_->epoch(), 2u);
}

TEST_F(OnlineServeTest, OnlineScoreMatchesInProcessBitwise) {
  StartServer();
  ExplainClient client = MakeClient();
  ASSERT_TRUE(client.Ingest("stream", 48, NextRows(48)).ok());

  for (const Subspace& subspace :
       {Subspace(), Subspace({0, 1}), Subspace({2, 3, 4})}) {
    const ExplainClient::OnlineScoreReply wire =
        client.OnlineScore("stream", "LODA", subspace);
    ASSERT_TRUE(wire.ok()) << wire.error;
    OnlineDataset::ScoredEpoch direct;
    ASSERT_EQ(dataset_->Score("LODA", subspace, &direct),
              OnlineDataset::Status::kOk);
    EXPECT_EQ(wire.epoch, direct.epoch);
    EXPECT_EQ(wire.scores, *direct.scores) << subspace.ToString();
  }
  const ExplainClient::OnlineScoreReply lof_wire =
      client.OnlineScore("stream", "LOF", Subspace({1, 2}));
  ASSERT_TRUE(lof_wire.ok()) << lof_wire.error;
  const OnlineDataset::EpochSnapshot snapshot = dataset_->Snapshot();
  EXPECT_EQ(lof_wire.scores,
            ScoreStandardized(lof_, *snapshot.data, Subspace({1, 2})));
}

TEST_F(OnlineServeTest, OnlineExplainMatchesInProcessAndReportsEpochs) {
  StartServer();
  ExplainClient client = MakeClient();
  ASSERT_TRUE(client.Ingest("stream", 64, NextRows(64)).ok());

  const ExplainClient::OnlineExplainReply wire =
      client.OnlineExplain("stream", "LODA", "Beam", 5, 2, 4);
  ASSERT_TRUE(wire.ok()) << wire.error;
  EXPECT_EQ(wire.computed_epoch, dataset_->epoch());
  EXPECT_EQ(wire.current_epoch, dataset_->epoch());
  EXPECT_FALSE(wire.stale());
  ASSERT_GT(wire.ranking.size(), 0u);
  ASSERT_LE(wire.ranking.size(), 4u);

  // Same pinned-epoch path in process: the ranking must agree exactly.
  const OnlineDataset::EpochSnapshot snapshot = dataset_->Snapshot();
  const PinnedEpochDetector pinned(*dataset_, snapshot, "LODA");
  RankedSubspaces expected = beam_.Explain(*snapshot.data, pinned, 5, 2);
  expected.subspaces.resize(wire.ranking.size());
  expected.scores.resize(wire.ranking.size());
  EXPECT_EQ(wire.ranking.subspaces, expected.subspaces);
  EXPECT_EQ(wire.ranking.scores, expected.scores);
  EXPECT_EQ(dataset_->stats().stale_serves, 0u);
}

TEST_F(OnlineServeTest, OnlineErrorsAreReported) {
  StartServer();
  ExplainClient client = MakeClient();

  ExplainClient::IngestReply ingest = client.Ingest("nope", 1, NextRows(1));
  EXPECT_EQ(ingest.status, ClientStatus::kServerError);
  EXPECT_NE(ingest.error.find("unknown online dataset"), std::string::npos);

  ingest = client.Ingest("stream", 2, NextRows(1));  // 5 doubles, 2 rows.
  EXPECT_EQ(ingest.status, ClientStatus::kServerError);

  ingest = client.Ingest("stream", 1, std::vector<double>(3, 0.0));
  EXPECT_EQ(ingest.status, ClientStatus::kServerError);
  EXPECT_NE(ingest.error.find("width mismatch"), std::string::npos);

  ingest = client.Ingest("stream", 0, {});
  EXPECT_EQ(ingest.status, ClientStatus::kServerError);
  EXPECT_NE(ingest.error.find("empty ingest"), std::string::npos);

  // Window still empty: scoring and explaining refuse.
  ExplainClient::OnlineScoreReply score =
      client.OnlineScore("stream", "LODA", Subspace({0}));
  EXPECT_EQ(score.status, ClientStatus::kServerError);
  EXPECT_NE(score.error.find("window below minimum"), std::string::npos);

  ASSERT_TRUE(client.Ingest("stream", 32, NextRows(32)).ok());
  score = client.OnlineScore("stream", "nope", Subspace({0}));
  EXPECT_EQ(score.status, ClientStatus::kServerError);
  EXPECT_NE(score.error.find("unknown online detector"), std::string::npos);

  score = client.OnlineScore("stream", "LODA", Subspace({99}));
  EXPECT_EQ(score.status, ClientStatus::kServerError);
  EXPECT_NE(score.error.find("out of range"), std::string::npos);

  ExplainClient::OnlineExplainReply explain =
      client.OnlineExplain("stream", "LODA", "nope", 0, 2);
  EXPECT_EQ(explain.status, ClientStatus::kServerError);
  EXPECT_NE(explain.error.find("unknown explainer"), std::string::npos);

  explain = client.OnlineExplain("stream", "LODA", "Beam", 9999, 2);
  EXPECT_EQ(explain.status, ClientStatus::kServerError);
  EXPECT_NE(explain.error.find("point index"), std::string::npos);

  explain = client.OnlineExplain("stream", "LODA", "Beam", 0, 1);
  EXPECT_EQ(explain.status, ClientStatus::kServerError);
  EXPECT_NE(explain.error.find("target_dim"), std::string::npos);
}

TEST_F(OnlineServeTest, NonFiniteIngestLeavesWindowAndWalUnchanged) {
  const std::string dir = MakeWalDir("nan");
  ::unlink((dir + "/stream.wal").c_str());
  ::unlink((dir + "/stream.ckpt").c_str());
  StartServer(dir);
  ExplainClient client = MakeClient();
  ASSERT_TRUE(client.Ingest("stream", 8, NextRows(8)).ok());
  const OnlineDataset::StatsSnapshot before = dataset_->stats();
  ASSERT_TRUE(before.wal_enabled);
  ASSERT_GT(before.wal_records, 0u);

  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    std::vector<double> rows = NextRows(2);
    rows[3] = bad;
    const ExplainClient::IngestReply reply = client.Ingest("stream", 2, rows);
    EXPECT_EQ(reply.status, ClientStatus::kServerError);
    EXPECT_NE(reply.error.find("malformed kIngest body"), std::string::npos)
        << reply.error;
  }

  const OnlineDataset::StatsSnapshot after = dataset_->stats();
  EXPECT_EQ(after.total_ingested, before.total_ingested);
  EXPECT_EQ(after.pending, before.pending);
  EXPECT_EQ(after.wal_records, before.wal_records);
  EXPECT_EQ(after.wal_bytes, before.wal_bytes);
  struct stat wal_file {};
  ASSERT_EQ(::stat((dir + "/stream.wal").c_str(), &wal_file), 0);
  EXPECT_EQ(static_cast<std::uint64_t>(wal_file.st_size), after.wal_bytes);
  // The connection stays usable for well-formed ingest.
  EXPECT_TRUE(client.Ingest("stream", 2, NextRows(2)).ok());
}

// +/-1e308 is finite, so kIngest takes it, and a LODA projection over such
// rows can overflow `hi - lo`. The advances the ingest triggers score LODA
// for the drift test; they and a later kOnlineScore stay OK, finite and
// bitwise the batch recompute on the snapshot. The LOF re-index detector's
// squared distances to those rows overflow, so their raw LOF is +Inf: its
// standardized scores keep that +Inf, hold no NaN and match the batch
// recompute too.
TEST_F(OnlineServeTest, OverflowingIngestScoresMatchBatchRecompute) {
  StartServer();
  ExplainClient client = MakeClient();
  std::vector<double> rows = NextRows(32);
  rows[3 * kFeatures + 1] = 1e308;
  rows[4 * kFeatures + 1] = -1e308;
  rows[17 * kFeatures + 2] = -1e308;
  rows[17 * kFeatures + 4] = 1e308;
  rows[30 * kFeatures + 4] = -1e308;
  const ExplainClient::IngestReply ingest = client.Ingest("stream", 32, rows);
  ASSERT_TRUE(ingest.ok()) << ingest.error;
  EXPECT_EQ(ingest.result.accepted, 32u);
  EXPECT_EQ(ingest.result.advances, 2u);

  const OnlineDataset::EpochSnapshot snapshot = dataset_->Snapshot();
  ASSERT_NE(snapshot.data, nullptr);
  int lof_infinite = 0;
  for (const Subspace& subspace :
       {Subspace(), Subspace({1}), Subspace({2, 4}), Subspace({0, 1, 4})}) {
    const ExplainClient::OnlineScoreReply wire =
        client.OnlineScore("stream", "LODA", subspace);
    ASSERT_TRUE(wire.ok()) << wire.error;
    EXPECT_EQ(wire.epoch, snapshot.epoch);
    for (double s : wire.scores) EXPECT_TRUE(std::isfinite(s));
    EXPECT_EQ(wire.scores, ScoreStandardized(loda_, *snapshot.data, subspace))
        << subspace.ToString();

    const ExplainClient::OnlineScoreReply lof =
        client.OnlineScore("stream", "LOF", subspace);
    ASSERT_TRUE(lof.ok()) << lof.error;
    EXPECT_EQ(lof.epoch, snapshot.epoch);
    for (double s : lof.scores) {
      EXPECT_FALSE(std::isnan(s)) << subspace.ToString();
      lof_infinite += std::isinf(s) ? 1 : 0;
    }
    EXPECT_EQ(lof.scores, ScoreStandardized(lof_, *snapshot.data, subspace))
        << subspace.ToString();
  }
  EXPECT_GT(lof_infinite, 0);
}

TEST_F(OnlineServeTest, StatsServesOnlineSection) {
  StartServer();
  ExplainClient client = MakeClient();
  ASSERT_TRUE(client.Ingest("stream", 32, NextRows(32)).ok());
  ASSERT_TRUE(client.OnlineScore("stream", "LODA", Subspace()).ok());

  const ExplainClient::StatsReply stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.error;
  EXPECT_NE(stats.json.find("\"online\""), std::string::npos);
  EXPECT_NE(stats.json.find("\"stream\""), std::string::npos);
  EXPECT_NE(stats.json.find("\"total_ingested\":32"), std::string::npos);
  EXPECT_NE(stats.json.find("\"stale_serves\""), std::string::npos);
  EXPECT_NE(stats.json.find("\"drift_events\""), std::string::npos);
}

TEST_F(OnlineServeTest, ServedScoresStayValidAcrossAdvances) {
  StartServer();
  ExplainClient client = MakeClient();
  ASSERT_TRUE(client.Ingest("stream", 64, NextRows(64)).ok());

  // Interleave ingest and scoring; every reply must label its epoch and
  // match the in-process recompute for that window.
  for (int round = 0; round < 4; ++round) {
    const ExplainClient::OnlineScoreReply wire =
        client.OnlineScore("stream", "LODA", Subspace({0, 1}));
    ASSERT_TRUE(wire.ok()) << wire.error;
    EXPECT_EQ(wire.epoch, dataset_->epoch());
    ASSERT_TRUE(client.Ingest("stream", 16, NextRows(16)).ok());
  }
  EXPECT_EQ(dataset_->epoch(), 8u);
}

}  // namespace
}  // namespace subex
