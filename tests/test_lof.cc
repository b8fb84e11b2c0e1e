#include "detect/lof.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "common/topk.h"
#include "knn_pinned_data.h"

namespace subex {
namespace {

// One dense Gaussian blob plus one far-away point.
Dataset BlobWithOutlier(int n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, 2);
  for (int p = 0; p < n - 1; ++p) {
    m(p, 0) = rng.Gaussian(0.0, 0.1);
    m(p, 1) = rng.Gaussian(0.0, 0.1);
  }
  m(n - 1, 0) = 3.0;
  m(n - 1, 1) = 3.0;
  return Dataset(std::move(m), {n - 1});
}

TEST(LofTest, InlierScoresNearOne) {
  const Dataset d = BlobWithOutlier(100, 1);
  const Lof lof(15);
  const std::vector<double> scores = lof.Score(d, Subspace());
  for (int p = 0; p < 99; ++p) {
    EXPECT_GT(scores[p], 0.7);
    EXPECT_LT(scores[p], 2.0);
  }
}

TEST(LofTest, OutlierScoresFarAboveOne) {
  const Dataset d = BlobWithOutlier(100, 2);
  const Lof lof(15);
  const std::vector<double> scores = lof.Score(d, Subspace());
  EXPECT_GT(scores[99], 5.0);
  EXPECT_EQ(TopKIndices(scores, 1).front(), 99);
}

TEST(LofTest, UniformDataScoresNearOne) {
  Rng rng(3);
  Matrix m(200, 2);
  for (int p = 0; p < 200; ++p) {
    m(p, 0) = rng.Uniform();
    m(p, 1) = rng.Uniform();
  }
  const Dataset d(std::move(m));
  const Lof lof(15);
  const std::vector<double> scores = lof.Score(d, Subspace());
  int near_one = 0;
  for (double s : scores) {
    if (s > 0.8 && s < 1.5) ++near_one;
  }
  EXPECT_GT(near_one, 180);
}

TEST(LofTest, DetectsLocalDensityOutlier) {
  // A point sitting between a dense and a sparse cluster is locally rare
  // relative to the dense cluster's density -- the canonical LOF scenario.
  Rng rng(4);
  Matrix m(121, 2);
  for (int p = 0; p < 60; ++p) {  // Dense cluster at (0, 0).
    m(p, 0) = rng.Gaussian(0.0, 0.02);
    m(p, 1) = rng.Gaussian(0.0, 0.02);
  }
  for (int p = 60; p < 120; ++p) {  // Sparse cluster at (4, 4).
    m(p, 0) = rng.Gaussian(4.0, 0.8);
    m(p, 1) = rng.Gaussian(4.0, 0.8);
  }
  m(120, 0) = 0.5;  // Near the dense cluster but well outside its spread.
  m(120, 1) = 0.5;
  const Dataset d(std::move(m));
  const Lof lof(15);
  const std::vector<double> scores = lof.Score(d, Subspace());
  EXPECT_EQ(TopKIndices(scores, 1).front(), 120);
}

TEST(LofTest, SubspaceScoringSeesOnlyThoseFeatures) {
  // Outlier only in feature 1; feature 0 is uniform for everyone.
  Rng rng(5);
  Matrix m(80, 2);
  for (int p = 0; p < 80; ++p) {
    m(p, 0) = rng.Uniform();
    m(p, 1) = rng.Gaussian(0.0, 0.05);
  }
  m(79, 1) = 2.0;
  const Dataset d(std::move(m));
  const Lof lof(15);
  const std::vector<double> with = lof.Score(d, Subspace({1}));
  const std::vector<double> without = lof.Score(d, Subspace({0}));
  EXPECT_EQ(TopKIndices(with, 1).front(), 79);
  EXPECT_LT(without[79], 2.0);
}

TEST(LofTest, DeterministicAcrossCalls) {
  const Dataset d = BlobWithOutlier(60, 6);
  const Lof lof(15);
  EXPECT_EQ(lof.Score(d, Subspace()), lof.Score(d, Subspace()));
}

TEST(LofTest, DuplicatePointsDoNotCrash) {
  Matrix m(30, 1);
  for (int p = 0; p < 30; ++p) m(p, 0) = (p < 15) ? 1.0 : 2.0;
  const Dataset d(std::move(m));
  const Lof lof(5);
  const std::vector<double> scores = lof.Score(d, Subspace());
  for (double s : scores) EXPECT_TRUE(std::isfinite(s));
}

TEST(LofTest, ScoresIndependentOfK) {
  // Different k values change scores but not the identity of a gross
  // outlier.
  const Dataset d = BlobWithOutlier(100, 7);
  for (int k : {5, 10, 20, 30}) {
    const Lof lof(k);
    const std::vector<double> scores = lof.Score(d, Subspace());
    EXPECT_EQ(TopKIndices(scores, 1).front(), 99) << "k=" << k;
  }
}

// The exact score bits, pinned over the shared kNN pin cases: any change to
// the neighbour lists or the per-point accumulation order shows up here.
TEST(LofTest, PinnedScoreBits) {
  using namespace knn_pinned;
  std::vector<std::uint64_t> hashes;
  for (const Case& c : Cases({1, 10, 15})) {
    std::uint64_t hash = kFnvOffsetBasis;
    for (int k : c.ks) {
      const Lof detector(k);
      for (const Subspace& s : Subspaces(c.data)) {
        hash = HashDoubles(hash, detector.Score(c.data, s));
      }
    }
    hashes.push_back(hash);
  }
  const std::vector<std::uint64_t> pinned = {
      0xf33e89a641d1d4a6ull,  // HiCS n = 300
      0xecdaf7d90da22d9aull,  // HiCS n = 1000
      0xafc875d422fbc1f5ull,  // duplicate-heavy
  };
  EXPECT_EQ(hashes, pinned);
}

}  // namespace
}  // namespace subex
