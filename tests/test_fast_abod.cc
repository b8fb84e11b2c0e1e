#include "detect/fast_abod.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "common/topk.h"
#include "knn_pinned_data.h"

namespace subex {
namespace {

Dataset BlobWithBorderOutlier(int n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, 2);
  for (int p = 0; p < n - 1; ++p) {
    m(p, 0) = rng.Gaussian(0.0, 0.2);
    m(p, 1) = rng.Gaussian(0.0, 0.2);
  }
  // Far outside: all neighbors lie in a narrow angular cone.
  m(n - 1, 0) = 4.0;
  m(n - 1, 1) = 4.0;
  return Dataset(std::move(m), {n - 1});
}

TEST(FastAbodTest, OutlierGetsHighestScore) {
  const Dataset d = BlobWithBorderOutlier(100, 1);
  const FastAbod abod(10);
  const std::vector<double> scores = abod.Score(d, Subspace());
  EXPECT_EQ(TopKIndices(scores, 1).front(), 99);
}

TEST(FastAbodTest, BorderPointScoresAboveCentralPoint) {
  // Angle variance is high for points surrounded in many directions
  // (blob center) and low for border points whose neighbors all lie in a
  // narrow cone -- so the border point must outscore the central one.
  Rng rng(7);
  const int n = 120;
  Matrix m(n + 2, 2);
  for (int p = 0; p < n; ++p) {
    m(p, 0) = rng.Gaussian(0.0, 0.3);
    m(p, 1) = rng.Gaussian(0.0, 0.3);
  }
  m(n, 0) = 0.0;  // Central point.
  m(n, 1) = 0.0;
  m(n + 1, 0) = 1.5;  // Border point, ~5 sigma out.
  m(n + 1, 1) = 1.5;
  const Dataset d(std::move(m));
  const FastAbod abod(10);
  const std::vector<double> scores = abod.Score(d, Subspace());
  EXPECT_GT(scores[n + 1], scores[n]);
  EXPECT_EQ(TopKIndices(scores, 1).front(), n + 1);
}

TEST(FastAbodTest, AllScoresFinite) {
  const Dataset d = BlobWithBorderOutlier(80, 2);
  const FastAbod abod(10);
  for (double s : abod.Score(d, Subspace())) EXPECT_TRUE(std::isfinite(s));
}

TEST(FastAbodTest, DuplicatePointsHandled) {
  Matrix m(30, 2);
  Rng rng(3);
  for (int p = 0; p < 28; ++p) {
    m(p, 0) = (p % 2 == 0) ? 1.0 : 2.0;  // Many coincident points.
    m(p, 1) = (p % 2 == 0) ? 1.0 : 2.0;
  }
  m(28, 0) = 1.5;
  m(28, 1) = 1.5;
  m(29, 0) = 9.0;
  m(29, 1) = 9.0;
  const Dataset d(std::move(m));
  const FastAbod abod(10);
  const std::vector<double> scores = abod.Score(d, Subspace());
  for (double s : scores) EXPECT_TRUE(std::isfinite(s));
}

TEST(FastAbodTest, SubspaceRestriction) {
  Rng rng(4);
  Matrix m(90, 3);
  for (int p = 0; p < 90; ++p) {
    m(p, 0) = rng.Gaussian(0.0, 0.2);
    m(p, 1) = rng.Gaussian(0.0, 0.2);
    m(p, 2) = rng.Uniform();
  }
  m(89, 0) = 4.0;
  m(89, 1) = 4.0;
  const Dataset d(std::move(m));
  const FastAbod abod(10);
  const std::vector<double> in_sub = abod.Score(d, Subspace({0, 1}));
  EXPECT_EQ(TopKIndices(in_sub, 1).front(), 89);
  const std::vector<double> decoy = abod.Score(d, Subspace({2}));
  EXPECT_NE(TopKIndices(decoy, 1).front(), 89);
}

TEST(FastAbodTest, Deterministic) {
  const Dataset d = BlobWithBorderOutlier(60, 5);
  const FastAbod abod(10);
  EXPECT_EQ(abod.Score(d, Subspace()), abod.Score(d, Subspace()));
}

TEST(FastAbodTest, NameAndK) {
  const FastAbod abod(12);
  EXPECT_EQ(abod.name(), "FastABOD");
  EXPECT_EQ(abod.k(), 12);
}

// The exact score bits, pinned over the shared kNN pin cases: any change to
// the neighbour lists or the per-point accumulation order shows up here.
// FastABOD needs k >= 2, so its smallest pinned k is 2.
TEST(FastAbodTest, PinnedScoreBits) {
  using namespace knn_pinned;
  std::vector<std::uint64_t> hashes;
  for (const Case& c : Cases({2, 10, 15})) {
    std::uint64_t hash = kFnvOffsetBasis;
    for (int k : c.ks) {
      const FastAbod detector(k);
      for (const Subspace& s : Subspaces(c.data)) {
        hash = HashDoubles(hash, detector.Score(c.data, s));
      }
    }
    hashes.push_back(hash);
  }
  const std::vector<std::uint64_t> pinned = {
      0xc72b2998eeee29d9ull,  // HiCS n = 300
      0x5ef3055dce1bf693ull,  // HiCS n = 1000
      0x459635dabc5e2725ull,  // duplicate-heavy
  };
  EXPECT_EQ(hashes, pinned);
}

}  // namespace
}  // namespace subex
