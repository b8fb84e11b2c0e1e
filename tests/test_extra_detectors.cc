// Tests of the detectors beyond the paper's core trio: kNN-distance
// (classic distance-based family), exact ABOD (approximation reference for
// Fast ABOD), and LODA (the paper's §6 stream-ready candidate).

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "common/topk.h"
#include "core/metrics.h"
#include "detect/exact_abod.h"
#include "detect/fast_abod.h"
#include "detect/knn_distance.h"
#include "detect/loda.h"
#include "knn_pinned_data.h"

namespace subex {
namespace {

Dataset BlobWithOutlier(int n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, 3);
  for (int p = 0; p < n - 1; ++p) {
    for (int f = 0; f < 3; ++f) m(p, f) = rng.Gaussian(0.5, 0.06);
  }
  m(n - 1, 0) = 0.95;
  m(n - 1, 1) = 0.05;
  m(n - 1, 2) = 0.95;
  return Dataset(std::move(m), {n - 1});
}

TEST(KnnDistanceTest, OutlierTopRankedBothAggregations) {
  const Dataset d = BlobWithOutlier(150, 1);
  for (auto agg : {KnnDistance::Aggregation::kMax,
                   KnnDistance::Aggregation::kMean}) {
    const KnnDistance det(10, agg);
    const std::vector<double> scores = det.Score(d, Subspace());
    EXPECT_EQ(TopKIndices(scores, 1).front(), 149);
  }
}

TEST(KnnDistanceTest, MaxAggregationIsKthDistance) {
  Matrix m = {{0.0}, {1.0}, {3.0}, {10.0}};
  const Dataset d(std::move(m));
  const KnnDistance det(2, KnnDistance::Aggregation::kMax);
  const std::vector<double> scores = det.Score(d, Subspace({0}));
  EXPECT_DOUBLE_EQ(scores[0], 3.0);   // Neighbors of 0: 1 (d=1), 3 (d=3).
  EXPECT_DOUBLE_EQ(scores[3], 9.0);   // Neighbors of 10: 3 (7), 1 (9).
}

TEST(KnnDistanceTest, MeanAggregationAverages) {
  Matrix m = {{0.0}, {1.0}, {3.0}, {10.0}};
  const Dataset d(std::move(m));
  const KnnDistance det(2, KnnDistance::Aggregation::kMean);
  const std::vector<double> scores = det.Score(d, Subspace({0}));
  EXPECT_DOUBLE_EQ(scores[0], 2.0);  // (1 + 3) / 2.
}

TEST(KnnDistanceTest, MissesLocalDensityOutlier) {
  // The canonical weakness vs LOF: a point near a dense cluster but inside
  // the global distance scale of a sparse cluster is not distance-extreme.
  Rng rng(2);
  Matrix m(121, 2);
  for (int p = 0; p < 60; ++p) {
    m(p, 0) = rng.Gaussian(0.0, 0.01);
    m(p, 1) = rng.Gaussian(0.0, 0.01);
  }
  for (int p = 60; p < 120; ++p) {
    m(p, 0) = rng.Gaussian(4.0, 1.0);
    m(p, 1) = rng.Gaussian(4.0, 1.0);
  }
  m(120, 0) = 0.3;
  m(120, 1) = 0.3;
  const Dataset d(std::move(m));
  const KnnDistance det(10, KnnDistance::Aggregation::kMean);
  const std::vector<double> scores = det.Score(d, Subspace());
  // Several sparse-cluster points out-distance the local outlier.
  EXPECT_NE(TopKIndices(scores, 1).front(), 120);
}

// The exact score bits of both aggregations, pinned: the empty subspace,
// one-feature subspaces (one a constant column on the duplicate-heavy set)
// and a k beyond n, which clamps to n - 1. Any change to the neighbour
// lists or to the aggregation's summation order shows up here.
TEST(KnnDistanceTest, PinnedScoreBits) {
  using knn_pinned::HashDoubles;
  const std::vector<Subspace> subspaces = {
      Subspace(), Subspace({0}), Subspace({1}), Subspace({0, 1, 2}),
      Subspace({2, 3})};
  std::vector<std::uint64_t> hashes;
  for (const Dataset& d :
       {knn_pinned::Hics(300), knn_pinned::DuplicateHeavy()}) {
    std::uint64_t hash = knn_pinned::kFnvOffsetBasis;
    for (auto agg : {KnnDistance::Aggregation::kMax,
                     KnnDistance::Aggregation::kMean}) {
      for (int k : {1, 10, 15, 1000}) {
        const KnnDistance det(k, agg);
        for (const Subspace& s : subspaces) {
          hash = HashDoubles(hash, det.Score(d, s));
        }
      }
    }
    hashes.push_back(hash);
  }
  const std::vector<std::uint64_t> pinned = {
      0xb02a4464e82d998cull,  // HiCS n = 300
      0xe961d43b4d716e75ull,  // duplicate-heavy
  };
  EXPECT_EQ(hashes, pinned);
}

TEST(ExactAbodTest, OutlierTopRanked) {
  const Dataset d = BlobWithOutlier(80, 3);
  const ExactAbod det;
  const std::vector<double> scores = det.Score(d, Subspace());
  EXPECT_EQ(TopKIndices(scores, 1).front(), 79);
}

TEST(ExactAbodTest, FastAbodApproximatesExactRanking) {
  Rng rng(4);
  Matrix m(100, 2);
  for (int p = 0; p < 95; ++p) {
    m(p, 0) = rng.Gaussian(0.5, 0.1);
    m(p, 1) = rng.Gaussian(0.5, 0.1);
  }
  std::vector<int> outliers;
  for (int p = 95; p < 100; ++p) {
    m(p, 0) = 0.5 + (rng.Uniform() < 0.5 ? -0.45 : 0.45);
    m(p, 1) = 0.5 + (rng.Uniform() < 0.5 ? -0.45 : 0.45);
    outliers.push_back(p);
  }
  const Dataset d(std::move(m), outliers);
  const std::vector<double> exact = ExactAbod().Score(d, Subspace());
  const std::vector<double> fast = FastAbod(10).Score(d, Subspace());
  std::vector<bool> labels(100, false);
  for (int p : outliers) labels[p] = true;
  // Both must separate the planted outliers cleanly.
  EXPECT_GT(RocAuc(exact, labels), 0.97);
  EXPECT_GT(RocAuc(fast, labels), 0.97);
}

TEST(ExactAbodTest, AllScoresFinite) {
  const Dataset d = BlobWithOutlier(60, 5);
  for (double s : ExactAbod().Score(d, Subspace())) {
    EXPECT_TRUE(std::isfinite(s));
  }
}

Loda::Options FastLodaOptions() {
  Loda::Options options;
  options.num_projections = 60;
  options.seed = 7;
  return options;
}

TEST(LodaTest, OutlierTopRanked) {
  const Dataset d = BlobWithOutlier(300, 6);
  const Loda loda(FastLodaOptions());
  const std::vector<double> scores = loda.Score(d, Subspace());
  EXPECT_EQ(TopKIndices(scores, 1).front(), 299);
}

TEST(LodaTest, SeparatesContamination) {
  Rng rng(8);
  Matrix m(400, 4);
  std::vector<int> outliers;
  for (int p = 0; p < 400; ++p) {
    const bool out = p >= 380;
    for (int f = 0; f < 4; ++f) {
      m(p, f) = out ? 0.5 + (rng.Uniform() < 0.5 ? -1 : 1) * rng.Uniform(0.3, 0.45)
                    : rng.Gaussian(0.5, 0.05);
    }
    if (out) outliers.push_back(p);
  }
  const Dataset d(std::move(m), outliers);
  const Loda loda(FastLodaOptions());
  std::vector<bool> labels(400, false);
  for (int p : outliers) labels[p] = true;
  EXPECT_GT(RocAuc(loda.Score(d, Subspace()), labels), 0.95);
}

TEST(LodaTest, DeterministicPerSubspace) {
  const Dataset d = BlobWithOutlier(100, 9);
  const Loda loda(FastLodaOptions());
  EXPECT_EQ(loda.Score(d, Subspace({0, 1})), loda.Score(d, Subspace({0, 1})));
  EXPECT_NE(loda.Score(d, Subspace({0, 1})), loda.Score(d, Subspace({1, 2})));
}

TEST(LodaTest, SingleFeatureSubspaceWorks) {
  const Dataset d = BlobWithOutlier(100, 10);
  const std::vector<double> scores = Loda(FastLodaOptions()).Score(d, Subspace({0}));
  EXPECT_EQ(scores.size(), 100u);
  for (double s : scores) EXPECT_TRUE(std::isfinite(s));
}

TEST(LodaTest, ExplicitBinCountHonoured) {
  const Dataset d = BlobWithOutlier(100, 11);
  Loda::Options options = FastLodaOptions();
  options.num_bins = 8;
  const std::vector<double> scores = Loda(options).Score(d, Subspace());
  for (double s : scores) EXPECT_TRUE(std::isfinite(s));
}

TEST(LodaTest, ConstantDataDoesNotCrash) {
  Matrix m(50, 2);
  for (int p = 0; p < 50; ++p) {
    m(p, 0) = 1.0;
    m(p, 1) = 1.0;
  }
  const Dataset d(std::move(m));
  for (double s : Loda(FastLodaOptions()).Score(d, Subspace())) {
    EXPECT_TRUE(std::isfinite(s));
  }
}

// The exact score bits, pinned: automatic and fixed bin counts, the empty
// subspace, one-feature subspaces and a constant column (feature 0 of the
// duplicate-heavy set, whose projections all land on one value, so its
// histogram width is the 1e-12 floor). Any change to the projector draws,
// the projection order, the bin geometry or the density term shows up here.
TEST(LodaTest, PinnedScoreBits) {
  using knn_pinned::HashDoubles;
  Loda::Options fixed_bins = FastLodaOptions();
  fixed_bins.num_bins = 8;
  Loda::Options auto_bins = FastLodaOptions();
  auto_bins.num_projections = 40;
  auto_bins.seed = 2024;
  const std::vector<Subspace> subspaces = {
      Subspace(), Subspace({0}), Subspace({1}), Subspace({0, 1, 2}),
      Subspace({2, 3})};
  std::vector<std::uint64_t> hashes;
  for (const Dataset& d :
       {knn_pinned::Hics(300), knn_pinned::DuplicateHeavy()}) {
    std::uint64_t hash = knn_pinned::kFnvOffsetBasis;
    for (const Loda::Options& options : {auto_bins, fixed_bins}) {
      const Loda loda(options);
      for (const Subspace& s : subspaces) {
        hash = HashDoubles(hash, loda.Score(d, s));
      }
    }
    hashes.push_back(hash);
  }
  const std::vector<std::uint64_t> pinned = {
      0x185be65107b9df68ull,  // HiCS n = 300
      0x6003c393c06c2fd5ull,  // duplicate-heavy
  };
  EXPECT_EQ(hashes, pinned);
}

}  // namespace
}  // namespace subex
