#include "online/online_dataset.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "detect/knn_distance.h"
#include "detect/loda.h"
#include "detect/lof.h"
#include "online/drift_monitor.h"
#include "online/windowed_scorer.h"
#include "stream/drifting_stream.h"

namespace subex {
namespace {

DriftingStreamConfig SmallStream(std::uint64_t seed = 19) {
  DriftingStreamConfig config;
  config.chunk_size = 64;
  config.outliers_per_chunk = 3;
  config.drift_every_chunks = 4;
  config.subspace_dims = {2, 3};  // 5 features.
  config.seed = seed;
  return config;
}

/// Pulls `n` stream rows as one Matrix.
Matrix StreamRows(DriftingStreamGenerator& stream, std::size_t n) {
  Matrix rows(n, static_cast<std::size_t>(stream.num_features()));
  std::size_t filled = 0;
  while (filled < n) {
    const StreamChunk chunk = stream.Next();
    for (std::size_t r = 0; r < chunk.points.rows() && filled < n; ++r) {
      for (std::size_t f = 0; f < rows.cols(); ++f) {
        rows(filled, f) = chunk.points(r, f);
      }
      ++filled;
    }
  }
  return rows;
}

Matrix SliceRows(const Matrix& all, std::size_t begin, std::size_t count) {
  Matrix out(count, all.cols());
  for (std::size_t r = 0; r < count; ++r) {
    for (std::size_t f = 0; f < all.cols(); ++f) {
      out(r, f) = all(begin + r, f);
    }
  }
  return out;
}

TEST(OnlineDatasetTest, IngestAdvancesEpochAtStride) {
  OnlineDatasetOptions options;
  options.window_capacity = 16;
  options.advance_every = 4;
  options.min_score_window = 4;
  OnlineDataset dataset(options, 2);

  const OnlineDataset::IngestResult r1 =
      dataset.Append(Matrix{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}});
  EXPECT_EQ(r1.accepted, 3u);
  EXPECT_EQ(r1.epoch, 0u);  // Below the stride: rows wait in pending.
  EXPECT_EQ(r1.window_size, 0u);
  EXPECT_EQ(r1.advances, 0u);

  const OnlineDataset::IngestResult r2 = dataset.AppendRow(
      std::vector<double>{7.0, 8.0});
  EXPECT_EQ(r2.epoch, 1u);
  EXPECT_EQ(r2.window_size, 4u);
  EXPECT_EQ(r2.advances, 1u);
  EXPECT_EQ(r2.total_ingested, 4u);

  const OnlineDataset::StatsSnapshot stats = dataset.stats();
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_EQ(stats.advances, 1u);
}

TEST(OnlineDatasetTest, EmptyWindowHasNoSnapshotAndRefusesScoring) {
  OnlineDatasetOptions options;
  options.window_capacity = 8;
  options.advance_every = 4;
  options.min_score_window = 4;
  OnlineDataset dataset(options, 2);
  dataset.AddLoda("LODA", Loda::Options{});

  const OnlineDataset::EpochSnapshot snapshot = dataset.Snapshot();
  EXPECT_EQ(snapshot.data, nullptr);
  EXPECT_EQ(snapshot.epoch, 0u);

  OnlineDataset::ScoredEpoch scored;
  EXPECT_EQ(dataset.Score("LODA", Subspace(), &scored),
            OnlineDataset::Status::kWindowTooSmall);
  EXPECT_EQ(dataset.Score("nope", Subspace(), &scored),
            OnlineDataset::Status::kWindowTooSmall);  // Size checked first.
}

TEST(OnlineDatasetTest, UnknownDetectorReported) {
  OnlineDatasetOptions options;
  options.window_capacity = 8;
  options.advance_every = 4;
  options.min_score_window = 4;
  OnlineDataset dataset(options, 2);
  dataset.Append(Matrix{{1.0, 2.0}, {2.0, 1.0}, {0.5, 0.5}, {3.0, 3.0}});
  OnlineDataset::ScoredEpoch scored;
  EXPECT_EQ(dataset.Score("nope", Subspace(), &scored),
            OnlineDataset::Status::kUnknownDetector);
}

TEST(OnlineDatasetTest, SingleAppendLargerThanCapacityKeepsNewest) {
  OnlineDatasetOptions options;
  options.window_capacity = 16;
  options.advance_every = 16;
  options.min_score_window = 4;
  OnlineDataset dataset(options, 1);

  Matrix rows(100, 1);
  for (std::size_t r = 0; r < 100; ++r) rows(r, 0) = static_cast<double>(r);
  const OnlineDataset::IngestResult result = dataset.Append(rows);
  EXPECT_EQ(result.accepted, 100u);
  EXPECT_EQ(result.advances, 6u);  // floor(100 / 16), 4 rows stay pending.
  EXPECT_EQ(result.epoch, 6u);
  EXPECT_EQ(result.window_size, 16u);

  // The window holds ingested rows 80..95 (rows 96..99 are pending).
  const OnlineDataset::EpochSnapshot snapshot = dataset.Snapshot();
  ASSERT_NE(snapshot.data, nullptr);
  ASSERT_EQ(snapshot.data->num_points(), 16u);
  for (std::size_t p = 0; p < 16; ++p) {
    EXPECT_EQ(snapshot.data->Value(p, 0), static_cast<double>(80 + p));
  }
  EXPECT_EQ(dataset.stats().pending, 4u);
}

/// The tentpole parity contract: per window epoch, the incrementally
/// maintained LODA must be bitwise the batch detector recomputed from
/// scratch on a snapshot of the same window contents — through growth,
/// saturation (evictions shrinking histogram ranges) and drift.
TEST(OnlineDatasetTest, IncrementalLodaBitwiseMatchesBatchRecompute) {
  OnlineDatasetOptions options;
  options.window_capacity = 48;
  options.advance_every = 8;
  options.min_score_window = 8;
  options.drift.min_window = 16;
  Loda::Options loda_options;
  loda_options.num_projections = 24;
  loda_options.seed = 7;
  OnlineDataset dataset(options, 5);
  dataset.AddLoda("LODA", loda_options);
  const Loda batch(loda_options);

  DriftingStreamGenerator stream(SmallStream());
  const Matrix all = StreamRows(stream, 24 * options.advance_every);
  const std::vector<Subspace> subspaces = {Subspace(), Subspace({0, 1}),
                                           Subspace({1, 3, 4})};

  int epochs_checked = 0;
  for (std::size_t begin = 0; begin < all.rows();
       begin += options.advance_every) {
    dataset.Append(SliceRows(all, begin, options.advance_every));
    const OnlineDataset::EpochSnapshot snapshot = dataset.Snapshot();
    ASSERT_NE(snapshot.data, nullptr);
    if (snapshot.data->num_points() < options.min_score_window) continue;
    for (const Subspace& subspace : subspaces) {
      OnlineDataset::ScoredEpoch scored;
      ASSERT_EQ(dataset.Score("LODA", subspace, &scored),
                OnlineDataset::Status::kOk);
      EXPECT_EQ(scored.epoch, snapshot.epoch);
      const std::vector<double> expected =
          ScoreStandardized(batch, *snapshot.data, subspace);
      EXPECT_EQ(*scored.scores, expected)
          << "epoch " << snapshot.epoch << " subspace "
          << subspace.ToString();
    }
    ++epochs_checked;
  }
  // Epochs both before and after window saturation were exercised.
  EXPECT_GE(epochs_checked, 20);
}

// Rows holding +/-1e308 are finite, so ingest takes them, but a projection
// over them can overflow `hi - lo`. Across the advances that bring them
// into the window and push them out again, the incremental scores stay
// finite and bitwise the batch recompute's.
TEST(OnlineDatasetTest, IncrementalLodaOverflowingRowsMatchBatchRecompute) {
  OnlineDatasetOptions options;
  options.window_capacity = 32;
  options.advance_every = 8;
  options.min_score_window = 8;
  options.drift.min_window = 8;
  Loda::Options loda_options;
  loda_options.num_projections = 24;
  loda_options.seed = 11;
  OnlineDataset dataset(options, 5);
  dataset.AddLoda("LODA", loda_options);
  const Loda batch(loda_options);

  DriftingStreamGenerator stream(SmallStream(23));
  Matrix all = StreamRows(stream, 12 * options.advance_every);
  all(10, 1) = 1e308;
  all(11, 1) = -1e308;
  all(20, 3) = 1e308;
  all(20, 4) = -1e308;
  all(21, 4) = 1e308;
  all(45, 0) = -1e308;
  all(46, 0) = 1e308;
  const std::vector<Subspace> subspaces = {Subspace(), Subspace({1}),
                                           Subspace({0, 1}), Subspace({3, 4})};
  for (std::size_t begin = 0; begin < all.rows();
       begin += options.advance_every) {
    dataset.Append(SliceRows(all, begin, options.advance_every));
    const OnlineDataset::EpochSnapshot snapshot = dataset.Snapshot();
    ASSERT_NE(snapshot.data, nullptr);
    for (const Subspace& subspace : subspaces) {
      OnlineDataset::ScoredEpoch scored;
      ASSERT_EQ(dataset.Score("LODA", subspace, &scored),
                OnlineDataset::Status::kOk);
      for (double s : *scored.scores) EXPECT_TRUE(std::isfinite(s));
      EXPECT_EQ(*scored.scores,
                ScoreStandardized(batch, *snapshot.data, subspace))
          << "epoch " << snapshot.epoch << " subspace "
          << subspace.ToString();
    }
  }
}

TEST(OnlineDatasetTest, IncrementalLodaFastPathDominatesInSteadyState) {
  OnlineDatasetOptions options;
  options.window_capacity = 64;
  options.advance_every = 4;
  options.min_score_window = 8;
  Loda::Options loda_options;
  loda_options.num_projections = 16;
  auto scorer = std::make_unique<IncrementalLodaScorer>(loda_options);
  IncrementalLodaScorer* loda = scorer.get();
  OnlineDataset dataset(options, 5);
  dataset.AddScorer("LODA", std::move(scorer));

  DriftingStreamGenerator stream(SmallStream(5));
  const Matrix all = StreamRows(stream, 60 * options.advance_every);
  std::uint64_t rebuilds_at_steady_state = 0;
  std::uint64_t advances_counted = 0;
  for (std::size_t begin = 0; begin < all.rows();
       begin += options.advance_every) {
    dataset.Append(SliceRows(all, begin, options.advance_every));
    if (dataset.stats().window_size < options.min_score_window) continue;
    OnlineDataset::ScoredEpoch scored;
    ASSERT_EQ(dataset.Score("LODA", Subspace(), &scored),
              OnlineDataset::Status::kOk);
    if (begin == 40 * options.advance_every) {
      rebuilds_at_steady_state = loda->rebuilds();
    }
    if (begin > 40 * options.advance_every) ++advances_counted;
  }
  // Once saturated with stable structure, most advances must take the
  // histogram add/subtract path: far fewer than one full rebuild (all
  // projectors) per advance.
  const std::uint64_t late_rebuilds =
      loda->rebuilds() - rebuilds_at_steady_state;
  EXPECT_LT(late_rebuilds, advances_counted *
                               static_cast<std::uint64_t>(
                                   loda_options.num_projections) / 2);
}

TEST(OnlineDatasetTest, ReindexScorersBitwiseMatchBatchRecompute) {
  OnlineDatasetOptions options;
  options.window_capacity = 40;
  options.advance_every = 10;
  options.min_score_window = 10;
  OnlineDataset dataset(options, 5);
  const KnnDistance knn(5);
  const Lof lof(5);
  dataset.AddReindexDetector("kNN", knn);
  dataset.AddReindexDetector("LOF", lof);

  DriftingStreamGenerator stream(SmallStream(3));
  const Matrix all = StreamRows(stream, 8 * options.advance_every);
  const Subspace subspace({0, 2});
  for (std::size_t begin = 0; begin < all.rows();
       begin += options.advance_every) {
    dataset.Append(SliceRows(all, begin, options.advance_every));
    const OnlineDataset::EpochSnapshot snapshot = dataset.Snapshot();
    ASSERT_NE(snapshot.data, nullptr);
    OnlineDataset::ScoredEpoch scored;
    ASSERT_EQ(dataset.Score("kNN", subspace, &scored),
              OnlineDataset::Status::kOk);
    EXPECT_EQ(*scored.scores, ScoreStandardized(knn, *snapshot.data, subspace));
    ASSERT_EQ(dataset.Score("LOF", subspace, &scored),
              OnlineDataset::Status::kOk);
    EXPECT_EQ(*scored.scores, ScoreStandardized(lof, *snapshot.data, subspace));
  }
}

TEST(OnlineDatasetTest, AdvanceInvalidatesExactlyTheStaleEpochEntries) {
  OnlineDatasetOptions options;
  options.window_capacity = 32;
  options.advance_every = 8;
  options.min_score_window = 8;
  options.drift.min_window = 8;
  OnlineDataset dataset(options, 5);
  dataset.AddLoda("LODA", Loda::Options{.num_projections = 8});

  DriftingStreamGenerator stream(SmallStream(9));
  const Matrix all = StreamRows(stream, 3 * options.advance_every);
  dataset.Append(SliceRows(all, 0, options.advance_every));

  // Warm the epoch-1 cache with several subspaces (the drift pass already
  // cached the full space).
  const std::vector<Subspace> subspaces = {Subspace({0, 1}), Subspace({2, 3}),
                                           Subspace({1, 4})};
  OnlineDataset::ScoredEpoch scored;
  for (const Subspace& s : subspaces) {
    ASSERT_EQ(dataset.Score("LODA", s, &scored), OnlineDataset::Status::kOk);
  }
  const OnlineDataset::StatsSnapshot before = dataset.stats();
  EXPECT_EQ(before.cache_entries, subspaces.size() + 1);
  EXPECT_GT(before.cache_bytes, 0u);

  // A cache hit serves the same vector object, not a recompute.
  ASSERT_EQ(dataset.Score("LODA", subspaces[0], &scored),
            OnlineDataset::Status::kOk);
  const ScoreVectorPtr first = scored.scores;
  ASSERT_EQ(dataset.Score("LODA", subspaces[0], &scored),
            OnlineDataset::Status::kOk);
  EXPECT_EQ(scored.scores.get(), first.get());

  // The advance drops every epoch-1 entry; only the new epoch's drift
  // warm-up entry remains.
  dataset.Append(SliceRows(all, options.advance_every, options.advance_every));
  const OnlineDataset::StatsSnapshot after = dataset.stats();
  EXPECT_EQ(after.epochs_invalidated,
            before.epochs_invalidated + subspaces.size() + 1);
  EXPECT_EQ(after.cache_entries, 1u);
  EXPECT_EQ(after.epoch, before.epoch + 1);
}

TEST(OnlineDatasetTest, StaleSnapshotScoresStayEpochConsistent) {
  OnlineDatasetOptions options;
  options.window_capacity = 32;
  options.advance_every = 8;
  options.min_score_window = 8;
  Loda::Options loda_options;
  loda_options.num_projections = 16;
  OnlineDataset dataset(options, 5);
  dataset.AddLoda("LODA", loda_options);
  const Loda batch(loda_options);

  DriftingStreamGenerator stream(SmallStream(13));
  const Matrix all = StreamRows(stream, 4 * options.advance_every);
  dataset.Append(SliceRows(all, 0, 2 * options.advance_every));

  const OnlineDataset::EpochSnapshot pinned = dataset.Snapshot();
  ASSERT_NE(pinned.data, nullptr);
  const Subspace subspace({0, 1});
  const std::vector<double> expected =
      ScoreStandardized(batch, *pinned.data, subspace);

  // Live path (epoch matches).
  OnlineDataset::ScoredEpoch scored;
  ASSERT_EQ(dataset.ScoreAt(pinned, "LODA", subspace, &scored),
            OnlineDataset::Status::kOk);
  EXPECT_EQ(scored.epoch, pinned.epoch);
  EXPECT_EQ(*scored.scores, expected);

  // The window moves on; the pinned snapshot must keep serving the exact
  // epoch-consistent bits via the batch fallback.
  dataset.Append(
      SliceRows(all, 2 * options.advance_every, 2 * options.advance_every));
  ASSERT_GT(dataset.epoch(), pinned.epoch);
  ASSERT_EQ(dataset.ScoreAt(pinned, "LODA", subspace, &scored),
            OnlineDataset::Status::kOk);
  EXPECT_EQ(scored.epoch, pinned.epoch);
  EXPECT_EQ(*scored.scores, expected);

  // PinnedEpochDetector is the same path behind the Detector interface,
  // already standardized.
  const PinnedEpochDetector detector(dataset, pinned, "LODA");
  EXPECT_TRUE(detector.ReturnsStandardizedScores());
  EXPECT_EQ(detector.Score(*pinned.data, subspace), expected);
  EXPECT_EQ(ScoreStandardized(detector, *pinned.data, subspace), expected);

  EXPECT_EQ(dataset.stats().stale_serves, 0u);
  dataset.NoteStaleServe(pinned.epoch, dataset.epoch());
  EXPECT_EQ(dataset.stats().stale_serves, 1u);
}

TEST(DriftMonitorTest, FlagsDistributionShiftOnly) {
  DriftMonitorOptions options;
  options.min_window = 32;
  DriftMonitor monitor(options);
  Rng rng(71);
  const auto sample = [&rng](double shift) {
    std::vector<double> scores(128);
    for (double& s : scores) s = rng.Gaussian() + shift;
    return scores;
  };

  // First epoch: nothing to compare with.
  EXPECT_FALSE(monitor.Observe(1, sample(0.0)).tested);

  const DriftMonitor::Result stable = monitor.Observe(2, sample(0.0));
  EXPECT_TRUE(stable.tested);
  EXPECT_FALSE(stable.drifted);
  EXPECT_EQ(monitor.drift_count(), 0u);

  const DriftMonitor::Result shifted = monitor.Observe(3, sample(5.0));
  EXPECT_TRUE(shifted.tested);
  EXPECT_TRUE(shifted.drifted);
  EXPECT_GT(shifted.ks_statistic, options.ks_threshold);
  EXPECT_LE(shifted.p_value, options.max_p_value);
  EXPECT_EQ(monitor.drift_count(), 1u);
  EXPECT_EQ(monitor.last_statistic(), shifted.ks_statistic);
}

TEST(DriftMonitorTest, SmallWindowsAreNotTested) {
  DriftMonitorOptions options;
  options.min_window = 32;
  DriftMonitor monitor(options);
  EXPECT_FALSE(monitor.Observe(1, std::vector<double>(8, 1.0)).tested);
  EXPECT_FALSE(monitor.Observe(2, std::vector<double>(8, 2.0)).tested);
}

TEST(OnlineDatasetTest, MeanShiftRaisesDriftEvent) {
  OnlineDatasetOptions options;
  options.window_capacity = 64;
  options.advance_every = 32;
  options.min_score_window = 32;
  options.drift.min_window = 32;
  OnlineDataset dataset(options, 3);
  dataset.AddLoda("LODA", Loda::Options{.num_projections = 16});

  Rng rng(29);
  const auto batch_of = [&rng](std::size_t n, double shift) {
    Matrix rows(n, 3);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t f = 0; f < 3; ++f) rows(r, f) = rng.Gaussian() + shift;
    }
    return rows;
  };
  for (int i = 0; i < 4; ++i) dataset.Append(batch_of(32, 0.0));
  const OnlineDataset::StatsSnapshot before = dataset.stats();
  EXPECT_EQ(before.drift_events, 0u);
  EXPECT_TRUE(before.drift_tested);

  // An abrupt mean shift slides through the window across the next
  // advances; the score distribution jumps and the monitor must fire.
  for (int i = 0; i < 4; ++i) dataset.Append(batch_of(32, 25.0));
  EXPECT_GE(dataset.stats().drift_events, 1u);
  EXPECT_GT(dataset.stats().drift_score, 0.0);
}

}  // namespace
}  // namespace subex
