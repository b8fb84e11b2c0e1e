#include "detect/chunked_score.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "data/columnar.h"
#include "data/csv.h"
#include "data/generators.h"
#include "detect/knn.h"
#include "detect/knn_distance.h"
#include "detect/loda.h"
#include "detect/lof.h"
#include "mem/eviction_manager.h"

namespace subex {
namespace {

// Per-process unique paths: ctest runs tests of this suite in parallel
// *processes*, and two of them rewriting one file under an active mmap is
// a SIGBUS.
std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "subex_chunked_" +
         std::to_string(::getpid()) + "_" + name;
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

  /// Opens the columnar file under a fresh manager with `budget_bytes`.
  ChunkedDataset::OpenResult OpenChunked(EvictionManager* manager) {
    ChunkedDatasetOptions options;
    options.manager = manager;
    return ChunkedDataset::Open(path_, options);
  }

  Dataset dataset_;
  std::string path_;
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

std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

// Rows holding NaN and +/-Inf, in the sweep's sort feature too: with one
// NeighborLess order (a NaN distance after every number, then by index)
// the in-RAM sweep and the streaming heap keep the same neighbours, bit
// for bit, and so do LOF's scores.
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
}

}  // namespace
}  // namespace subex
