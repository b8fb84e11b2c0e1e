#include "detect/chunked_score.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <deque>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/columnar.h"
#include "data/csv.h"
#include "data/generators.h"
#include "detect/knn.h"
#include "detect/knn_distance.h"
#include "detect/loda.h"
#include "detect/lof.h"
#include "mem/eviction_manager.h"
#include "online/windowed_scorer.h"

namespace subex {
namespace {

std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

/// One fixture dataset on disk + in RAM: a generated mixture with labelled
/// outliers, written columnar with small chunks so every scorer crosses
/// many chunk boundaries.
class ChunkedScoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    HicsGeneratorConfig config;
    config.num_points = 412;
    config.subspace_dims = {3, 2};  // 5 features total.
    config.outliers_per_subspace = 6;
    config.seed = 7;
    dataset_ = GenerateHicsDataset(config).dataset;
    path_ = TempPath("fixture.cols");
    std::string error;
    ASSERT_TRUE(WriteColumnarDataset(path_, dataset_, /*rows_per_chunk=*/64,
                                     &error))
        << error;
  }

  void TearDown() override {
    for (const std::string& path : written_) std::remove(path.c_str());
  }

  /// A per-process unique path for a file the test writes, removed in
  /// `TearDown`: ctest runs tests of this suite in parallel *processes*,
  /// and two of them rewriting one file under an active mmap is a SIGBUS.
  std::string TempPath(const std::string& name) {
    written_.push_back(::testing::TempDir() + "subex_chunked_" +
                       std::to_string(::getpid()) + "_" + name);
    return written_.back();
  }

  /// Opens the columnar file under a fresh manager with `budget_bytes`.
  ChunkedDataset::OpenResult OpenChunked(EvictionManager* manager) {
    ChunkedDatasetOptions options;
    options.manager = manager;
    return ChunkedDataset::Open(path_, options);
  }

  /// One seeded generated stream, scored three ways at every window epoch:
  /// `Loda::Score` on a snapshot, `ScoreLodaChunked` on that snapshot
  /// written to `path_` and read under a budget of a few chunks, and
  /// `IncrementalLodaScorer` folding the advances. The stream mixes
  /// Gaussian, duplicate-heavy, constant and rare +/-1e308 columns and
  /// scores random subspaces (and the empty one) with fixed or automatic
  /// bins; the window grows across changes in the automatic bin count, and
  /// one advance pushes more rows than the window holds.
  void ExpectGeneratedStreamAgrees(std::uint64_t seed) {
    Rng rng(seed);
    const int num_features = rng.UniformInt(2, 5);
    std::vector<int> kinds(static_cast<std::size_t>(num_features));
    for (int& kind : kinds) kind = rng.UniformInt(0, 3);
    auto next_value = [&rng](int kind) {
      switch (kind) {
        case 0:
          return rng.Gaussian();
        case 1:
          return 0.25 * rng.UniformInt(0, 4);
        case 2:
          return 0.5;
        default:
          return rng.UniformInt(0, 15) == 0
                     ? (rng.Uniform() < 0.5 ? -1e308 : 1e308)
                     : rng.Uniform();
      }
    };
    const Loda::Options options{
        .num_projections = rng.UniformInt(3, 12),
        .num_bins = rng.Uniform() < 0.5 ? 0 : rng.UniformInt(2, 9),
        .seed = seed * 7919};
    std::vector<Subspace> subspaces = {Subspace()};
    for (int i = 0; i < 2; ++i) {
      std::vector<FeatureId> features;
      for (FeatureId f = 0; f < num_features; ++f) {
        if (rng.Uniform() < 0.5) features.push_back(f);
      }
      if (features.empty()) {
        features.push_back(rng.UniformInt(0, num_features - 1));
      }
      subspaces.emplace_back(std::move(features));
    }
    const auto capacity = static_cast<std::size_t>(rng.UniformInt(20, 60));
    const int overflow_epoch = rng.UniformInt(6, 10);

    IncrementalLodaScorer incremental(options);
    std::deque<std::vector<double>> window;
    for (int epoch = 1; epoch <= 12; ++epoch) {
      const std::size_t pushed =
          epoch == overflow_epoch
              ? capacity + static_cast<std::size_t>(rng.UniformInt(1, 9))
              : static_cast<std::size_t>(rng.UniformInt(1, 8));
      Matrix entered(pushed, static_cast<std::size_t>(num_features));
      for (std::size_t r = 0; r < pushed; ++r) {
        std::vector<double> row(static_cast<std::size_t>(num_features));
        for (std::size_t f = 0; f < row.size(); ++f) {
          entered(r, f) = row[f] = next_value(kinds[f]);
        }
        window.push_back(std::move(row));
      }
      const std::size_t exited =
          window.size() > capacity ? window.size() - capacity : 0;
      window.erase(window.begin(),
                   window.begin() + static_cast<std::ptrdiff_t>(exited));
      incremental.OnAdvance({.epoch = static_cast<std::uint64_t>(epoch),
                             .window_size = window.size(),
                             .entered = &entered,
                             .num_exited = exited});
      if (window.size() < 3) continue;

      Matrix rows(window.size(), static_cast<std::size_t>(num_features));
      for (std::size_t r = 0; r < window.size(); ++r) {
        for (std::size_t f = 0; f < rows.cols(); ++f) {
          rows(r, f) = window[r][f];
        }
      }
      const Dataset snapshot(std::move(rows));
      std::string error;
      ASSERT_TRUE(WriteColumnarDataset(path_, snapshot, 4, &error)) << error;
      EvictionManager manager(EvictionManager::Options{.budget_bytes = 64});
      auto open = OpenChunked(&manager);
      ASSERT_TRUE(open.ok) << open.error;
      for (const Subspace& subspace : subspaces) {
        SCOPED_TRACE("epoch " + std::to_string(epoch) + " " +
                     subspace.ToString());
        const std::vector<double> in_ram =
            Loda(options).Score(snapshot, subspace);
        const std::vector<double> streamed =
            ScoreLodaChunked(*open.dataset, subspace, options);
        const std::vector<double> folded =
            incremental.Score(snapshot, subspace);
        ASSERT_EQ(streamed.size(), in_ram.size());
        ASSERT_EQ(folded.size(), in_ram.size());
        for (std::size_t p = 0; p < in_ram.size(); ++p) {
          EXPECT_TRUE(std::isfinite(in_ram[p])) << p;
          EXPECT_EQ(Bits(streamed[p]), Bits(in_ram[p])) << p;
          EXPECT_EQ(Bits(folded[p]), Bits(in_ram[p])) << p;
        }
      }
    }
  }

  Dataset dataset_;
  std::string path_;
  std::vector<std::string> written_;
};

TEST_F(ChunkedScoreTest, KnnDistanceMatchesInRamBitwise) {
  EvictionManager manager(EvictionManager::Options{.budget_bytes = 16 << 20});
  auto open = OpenChunked(&manager);
  ASSERT_TRUE(open.ok) << open.error;

  const Subspace subspace({0, 2, 3});
  for (const auto aggregation : {KnnDistance::Aggregation::kMax,
                                 KnnDistance::Aggregation::kMean}) {
    const std::vector<double> in_ram =
        KnnDistance(10, aggregation).Score(dataset_, subspace);
    const std::vector<double> streamed = ScoreKnnDistanceChunked(
        *open.dataset, subspace, 10, aggregation);
    ASSERT_EQ(streamed.size(), in_ram.size());
    for (std::size_t p = 0; p < in_ram.size(); ++p) {
      EXPECT_EQ(streamed[p], in_ram[p]) << "point " << p;
    }
  }
}

TEST_F(ChunkedScoreTest, KnnDistanceQuerySubsetMatchesInRam) {
  EvictionManager manager(EvictionManager::Options{.budget_bytes = 16 << 20});
  auto open = OpenChunked(&manager);
  ASSERT_TRUE(open.ok) << open.error;

  const Subspace subspace({1, 4});
  const std::vector<double> in_ram =
      KnnDistance(5, KnnDistance::Aggregation::kMean).Score(dataset_, subspace);
  // The points of interest are the natural query set at scale.
  const std::vector<int>& queries = open.dataset->outlier_indices();
  ASSERT_FALSE(queries.empty());
  const std::vector<double> streamed = ScoreKnnDistanceChunked(
      *open.dataset, subspace, 5, KnnDistance::Aggregation::kMean, queries);
  ASSERT_EQ(streamed.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(streamed[i], in_ram[queries[i]]) << "query " << queries[i];
  }
}

TEST_F(ChunkedScoreTest, LofMatchesInRamBitwise) {
  EvictionManager manager(EvictionManager::Options{.budget_bytes = 16 << 20});
  auto open = OpenChunked(&manager);
  ASSERT_TRUE(open.ok) << open.error;

  const Subspace subspace({0, 1, 2});
  const std::vector<double> in_ram = Lof(8).Score(dataset_, subspace);
  const std::vector<double> streamed =
      ScoreLofChunked(*open.dataset, subspace, 8);
  ASSERT_EQ(streamed.size(), in_ram.size());
  for (std::size_t p = 0; p < in_ram.size(); ++p) {
    EXPECT_EQ(streamed[p], in_ram[p]) << "point " << p;
  }
}

TEST_F(ChunkedScoreTest, LofQuerySubsetMatchesInRam) {
  EvictionManager manager(EvictionManager::Options{.budget_bytes = 16 << 20});
  auto open = OpenChunked(&manager);
  ASSERT_TRUE(open.ok) << open.error;

  const Subspace subspace({0, 3});
  const std::vector<double> in_ram = Lof(6).Score(dataset_, subspace);
  const std::vector<int>& queries = open.dataset->outlier_indices();
  const std::vector<double> streamed =
      ScoreLofChunked(*open.dataset, subspace, 6, queries);
  ASSERT_EQ(streamed.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(streamed[i], in_ram[queries[i]]) << "query " << queries[i];
  }
}

TEST_F(ChunkedScoreTest, LodaMatchesInRamBitwise) {
  EvictionManager manager(EvictionManager::Options{.budget_bytes = 16 << 20});
  auto open = OpenChunked(&manager);
  ASSERT_TRUE(open.ok) << open.error;

  Loda::Options options;
  options.num_projections = 25;
  options.seed = 1234;
  const Subspace subspace({0, 1, 2, 3, 4});
  const std::vector<double> in_ram = Loda(options).Score(dataset_, subspace);
  const std::vector<double> streamed =
      ScoreLodaChunked(*open.dataset, subspace, options);
  ASSERT_EQ(streamed.size(), in_ram.size());
  for (std::size_t p = 0; p < in_ram.size(); ++p) {
    EXPECT_EQ(streamed[p], in_ram[p]) << "point " << p;
  }

  // More inputs: seeded generated streams, each also scored by
  // `IncrementalLodaScorer`; a failure names its seed.
  path_ = TempPath("generated.cols");
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectGeneratedStreamAgrees(seed);
  }
}

TEST_F(ChunkedScoreTest, EmptySubspaceMeansFullSpaceLikeDetectors) {
  EvictionManager manager(EvictionManager::Options{.budget_bytes = 16 << 20});
  auto open = OpenChunked(&manager);
  ASSERT_TRUE(open.ok) << open.error;

  const Subspace empty;
  const std::vector<double> in_ram =
      KnnDistance(4, KnnDistance::Aggregation::kMax).Score(dataset_, empty);
  const std::vector<double> streamed = ScoreKnnDistanceChunked(
      *open.dataset, empty, 4, KnnDistance::Aggregation::kMax);
  ASSERT_EQ(streamed.size(), in_ram.size());
  for (std::size_t p = 0; p < in_ram.size(); ++p) {
    EXPECT_EQ(streamed[p], in_ram[p]);
  }
}

TEST_F(ChunkedScoreTest, TinyBudgetForcesEvictionMidScoringYetScoresMatch) {
  // A budget of roughly two chunks (64 rows x 8 B = 512 B each) forces the
  // scorers to evict and reload chunks constantly; scores must not change.
  EvictionManager manager(EvictionManager::Options{.budget_bytes = 2 << 10});
  auto open = OpenChunked(&manager);
  ASSERT_TRUE(open.ok) << open.error;

  const Subspace subspace({0, 1, 2});
  const std::vector<double> in_ram =
      KnnDistance(10, KnnDistance::Aggregation::kMean).Score(dataset_, subspace);
  const std::vector<double> streamed = ScoreKnnDistanceChunked(
      *open.dataset, subspace, 10, KnnDistance::Aggregation::kMean);
  for (std::size_t p = 0; p < in_ram.size(); ++p) {
    EXPECT_EQ(streamed[p], in_ram[p]);
  }
  const ChunkedDatasetStats stats = open.dataset->stats();
  EXPECT_GT(stats.evictions, 0u);
  // Working set = 3 pinned chunks (~1.5 KB) stays near the 2 KB budget even
  // though every chunk of the dataset streams through it.
  EXPECT_LE(manager.used_bytes(), manager.budget_bytes() + 3 * 512);

  const std::vector<double> loda_in_ram = Loda().Score(dataset_, subspace);
  const std::vector<double> loda_streamed =
      ScoreLodaChunked(*open.dataset, subspace, Loda::Options{});
  for (std::size_t p = 0; p < loda_in_ram.size(); ++p) {
    EXPECT_EQ(loda_streamed[p], loda_in_ram[p]);
  }
}

// Rows holding NaN, +/-Inf and +/-1e308, in the sweep's sort feature too:
// with one NeighborLess order (a NaN distance after every number, then by
// index) the in-RAM sweep and the streaming heap keep the same neighbours,
// bit for bit, and so do LOF's scores. LODA's scores stay finite on the
// same rows and streamed LODA keeps the in-RAM bits.
TEST_F(ChunkedScoreTest, NonFiniteRowsMatchInRamBitwise) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Matrix m = dataset_.matrix();
  for (std::size_t p : {0, 1, 2, 57, 58, 130, 411}) m(p, 0) = nan;
  for (std::size_t p : {3, 99}) m(p, 1) = nan;
  m(4, 0) = inf;
  m(5, 0) = inf;
  m(6, 0) = -inf;
  m(200, 1) = inf;
  m(201, 1) = -inf;
  m(202, 2) = inf;
  m(202, 3) = nan;
  for (std::size_t f = 0; f < m.cols(); ++f) m(300, f) = nan;
  // Finite, but far enough apart that a projection's `hi - lo` overflows.
  for (std::size_t f : {1, 2, 4}) {
    m(7 + f, f) = 1e308;
    m(8 + f, f) = -1e308;
  }
  dataset_ = Dataset(std::move(m));
  path_ = TempPath("nonfinite.cols");
  std::string error;
  ASSERT_TRUE(WriteColumnarDataset(path_, dataset_, 64, &error)) << error;
  EvictionManager manager(EvictionManager::Options{.budget_bytes = 16 << 20});
  auto open = OpenChunked(&manager);
  ASSERT_TRUE(open.ok) << open.error;

  std::vector<int> all(dataset_.num_points());
  for (std::size_t p = 0; p < all.size(); ++p) all[p] = static_cast<int>(p);
  for (const Subspace& subspace :
       {Subspace({0}), Subspace({0, 1}), Subspace({1, 2}),
        Subspace({0, 2, 3}), Subspace({0, 1, 2, 3, 4})}) {
    for (int k : {1, 6, 15}) {
      SCOPED_TRACE(subspace.ToString() + " k=" + std::to_string(k));
      const KnnTable in_ram = ComputeKnn(dataset_, subspace, k);
      const std::vector<std::vector<Neighbor>> streamed =
          ComputeKnnChunked(*open.dataset, subspace.AsSpan(), k, all);
      ASSERT_EQ(streamed.size(), all.size());
      for (int p : all) {
        ASSERT_EQ(streamed[p].size(), in_ram.row(p).size());
        for (std::size_t i = 0; i < streamed[p].size(); ++i) {
          EXPECT_EQ(streamed[p][i].index, in_ram.row(p)[i].index);
          EXPECT_EQ(Bits(streamed[p][i].distance),
                    Bits(in_ram.row(p)[i].distance));
        }
      }
      const std::vector<double> lof = Lof(k).Score(dataset_, subspace);
      const std::vector<double> lof_streamed =
          ScoreLofChunked(*open.dataset, subspace, k);
      ASSERT_EQ(lof_streamed.size(), lof.size());
      for (int p : all) EXPECT_EQ(Bits(lof_streamed[p]), Bits(lof[p])) << p;
    }
  }

  for (const Subspace& subspace :
       {Subspace(), Subspace({0}), Subspace({1}), Subspace({2}),
        Subspace({4}), Subspace({1, 4}), Subspace({0, 1, 2, 3, 4})}) {
    for (int num_bins : {0, 7}) {
      SCOPED_TRACE(subspace.ToString() + " LODA bins=" +
                   std::to_string(num_bins));
      const Loda::Options options{
          .num_projections = 25, .num_bins = num_bins, .seed = 1234};
      const std::vector<double> in_ram =
          Loda(options).Score(dataset_, subspace);
      const std::vector<double> streamed =
          ScoreLodaChunked(*open.dataset, subspace, options);
      ASSERT_EQ(streamed.size(), in_ram.size());
      for (int p : all) {
        EXPECT_TRUE(std::isfinite(in_ram[p])) << p;
        EXPECT_EQ(Bits(streamed[p]), Bits(in_ram[p])) << p;
      }
    }
  }
}

}  // namespace
}  // namespace subex
