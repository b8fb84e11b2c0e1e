#include "detect/isolation_forest.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/topk.h"

namespace subex {
namespace {

Dataset BlobWithOutlier(int n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, 2);
  for (int p = 0; p < n - 1; ++p) {
    m(p, 0) = rng.Gaussian(0.5, 0.05);
    m(p, 1) = rng.Gaussian(0.5, 0.05);
  }
  m(n - 1, 0) = 0.99;
  m(n - 1, 1) = 0.01;
  return Dataset(std::move(m), {n - 1});
}

IsolationForest::Options FastOptions() {
  IsolationForest::Options options;
  options.num_trees = 50;
  options.subsample_size = 64;
  options.num_repetitions = 2;
  options.seed = 11;
  return options;
}

TEST(IsolationForestTest, AveragePathLengthClosedForm) {
  EXPECT_EQ(IsolationForest::AveragePathLength(0), 0.0);
  EXPECT_EQ(IsolationForest::AveragePathLength(1), 0.0);
  EXPECT_EQ(IsolationForest::AveragePathLength(2), 1.0);
  // c(n) = 2 H(n-1) - 2(n-1)/n with H via the log approximation.
  const double h255 = std::log(255.0) + 0.5772156649015329;
  EXPECT_NEAR(IsolationForest::AveragePathLength(256),
              2.0 * h255 - 2.0 * 255.0 / 256.0, 1e-12);
}

TEST(IsolationForestTest, ScoresWithinUnitInterval) {
  const Dataset d = BlobWithOutlier(200, 1);
  const IsolationForest forest(FastOptions());
  for (double s : forest.Score(d, Subspace())) {
    EXPECT_GT(s, 0.0);
    EXPECT_LT(s, 1.0);
  }
}

TEST(IsolationForestTest, OutlierNearOneInlierBelowHalf) {
  const Dataset d = BlobWithOutlier(300, 2);
  const IsolationForest forest(FastOptions());
  const std::vector<double> scores = forest.Score(d, Subspace());
  EXPECT_GT(scores[299], 0.6);
  double inlier_mean = 0.0;
  for (int p = 0; p < 299; ++p) inlier_mean += scores[p];
  inlier_mean /= 299.0;
  EXPECT_LT(inlier_mean, 0.55);
  EXPECT_EQ(TopKIndices(scores, 1).front(), 299);
}

TEST(IsolationForestTest, DeterministicPerSubspace) {
  const Dataset d = BlobWithOutlier(100, 3);
  const IsolationForest forest(FastOptions());
  EXPECT_EQ(forest.Score(d, Subspace()), forest.Score(d, Subspace()));
  EXPECT_EQ(forest.Score(d, Subspace({0})), forest.Score(d, Subspace({0})));
}

TEST(IsolationForestTest, DifferentSubspaceDifferentRandomness) {
  const Dataset d = BlobWithOutlier(100, 4);
  const IsolationForest forest(FastOptions());
  // Feature 0 and feature 1 carry differently distributed values, so the
  // scores should differ (also exercises per-subspace seed salting).
  EXPECT_NE(forest.Score(d, Subspace({0})), forest.Score(d, Subspace({1})));
}

TEST(IsolationForestTest, SeedChangesScores) {
  const Dataset d = BlobWithOutlier(100, 5);
  IsolationForest::Options a = FastOptions();
  IsolationForest::Options b = FastOptions();
  b.seed = 999;
  EXPECT_NE(IsolationForest(a).Score(d, Subspace()),
            IsolationForest(b).Score(d, Subspace()));
}

TEST(IsolationForestTest, MoreRepetitionsReduceVariance) {
  const Dataset d = BlobWithOutlier(150, 6);
  IsolationForest::Options one = FastOptions();
  one.num_repetitions = 1;
  IsolationForest::Options ten = FastOptions();
  ten.num_repetitions = 10;
  // Compare the outlier score across two different seeds: with more
  // repetitions the two runs must agree more closely.
  auto spread = [&](const IsolationForest::Options& base) {
    IsolationForest::Options o1 = base;
    o1.seed = 100;
    IsolationForest::Options o2 = base;
    o2.seed = 200;
    const double s1 = IsolationForest(o1).Score(d, Subspace())[149];
    const double s2 = IsolationForest(o2).Score(d, Subspace())[149];
    return std::fabs(s1 - s2);
  };
  EXPECT_LE(spread(ten), spread(one) + 0.02);
}

TEST(IsolationForestTest, ConstantFeatureDoesNotCrash) {
  Matrix m(50, 2);
  Rng rng(7);
  for (int p = 0; p < 50; ++p) {
    m(p, 0) = 1.0;  // Constant.
    m(p, 1) = rng.Uniform();
  }
  const Dataset d(std::move(m));
  const IsolationForest forest(FastOptions());
  for (double s : forest.Score(d, Subspace())) {
    EXPECT_TRUE(std::isfinite(s));
  }
}

TEST(IsolationForestTest, SubsampleClampedToDatasetSize) {
  const Dataset d = BlobWithOutlier(40, 8);  // Smaller than subsample 64.
  const IsolationForest forest(FastOptions());
  const std::vector<double> scores = forest.Score(d, Subspace());
  EXPECT_EQ(scores.size(), 40u);
  EXPECT_EQ(TopKIndices(scores, 1).front(), 39);
}

// splitmix64: a platform-independent value stream for the pinned datasets,
// so the golden hashes below depend only on the forest, not on std::
// distribution internals used to build the inputs.
std::uint64_t SplitMix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Unit(std::uint64_t& state) {
  return static_cast<double>(SplitMix(state) >> 11) * 0x1.0p-53;
}

constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;

// FNV-1a over the bit patterns of `values`, continuing from `hash`.
std::uint64_t HashBits(std::uint64_t hash, const std::vector<double>& values) {
  for (double v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      hash ^= (bits >> (8 * b)) & 0xffu;
      hash *= 0x100000001b3ull;
    }
  }
  return hash;
}

// 300 x 5 uniform values with a few points pushed out in features 1 and 2.
Dataset PinnedFinite() {
  std::uint64_t state = 1;
  Matrix m(300, 5);
  for (int p = 0; p < 300; ++p) {
    for (int f = 0; f < 5; ++f) m(p, f) = Unit(state);
  }
  for (int p : {17, 123, 250}) {
    m(p, 1) = 1.5 + Unit(state);
    m(p, 2) = -0.5 - Unit(state);
  }
  return Dataset(std::move(m));
}

// 200 x 4: a constant column, a five-level column, a three-level column,
// and rows repeating every 50 (every point has exact duplicates).
Dataset PinnedTies() {
  std::uint64_t state = 2;
  Matrix m(200, 4);
  for (int p = 0; p < 50; ++p) {
    m(p, 0) = 0.5;
    m(p, 1) = 0.25 * static_cast<double>(SplitMix(state) % 5);
    m(p, 2) = static_cast<double>(SplitMix(state) % 3);
    m(p, 3) = Unit(state);
  }
  for (int p = 50; p < 200; ++p) {
    for (int f = 0; f < 4; ++f) m(p, f) = m(p % 50, f);
  }
  return Dataset(std::move(m));
}

// 150 x 3 uniform values with NaN (including in the first rows, which seed
// each node's range) and +/-Inf sprinkled in.
Dataset PinnedNonFinite() {
  std::uint64_t state = 3;
  Matrix m(150, 3);
  for (int p = 0; p < 150; ++p) {
    for (int f = 0; f < 3; ++f) m(p, f) = Unit(state);
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  m(0, 0) = nan;
  m(1, 1) = nan;
  m(2, 2) = nan;
  m(40, 0) = nan;
  m(77, 1) = inf;
  m(90, 2) = -inf;
  m(101, 0) = inf;
  m(101, 1) = -inf;
  m(149, 2) = nan;
  return Dataset(std::move(m));
}

// 40 x 3, smaller than either pinned subsample size.
Dataset PinnedSmall() {
  std::uint64_t state = 4;
  Matrix m(40, 3);
  for (int p = 0; p < 40; ++p) {
    for (int f = 0; f < 3; ++f) m(p, f) = Unit(state);
  }
  m(39, 0) = 3.0;
  return Dataset(std::move(m));
}

// Hash of every pinned option set x subspace (empty included) on `d`.
std::uint64_t PinnedScoreHash(const Dataset& d) {
  IsolationForest::Options wide;
  wide.num_trees = 30;
  wide.subsample_size = 128;
  wide.num_repetitions = 3;
  wide.seed = 2024;
  const int last = static_cast<int>(d.num_features()) - 1;
  const std::vector<Subspace> subspaces = {
      Subspace(), Subspace({0}), Subspace({last}), Subspace({0, 1}),
      Subspace({1, last}), Subspace({0, 1, 2})};
  std::uint64_t hash = kFnvOffsetBasis;
  for (const IsolationForest::Options& options : {FastOptions(), wide}) {
    const IsolationForest forest(options);
    for (const Subspace& s : subspaces) {
      hash = HashBits(hash, forest.Score(d, s));
    }
  }
  return hash;
}

// The exact score bits, pinned: any change to the RNG draw order, the tree
// shapes or the per-point accumulation order shows up here.
TEST(IsolationForestTest, PinnedScoreBits) {
  EXPECT_EQ(PinnedScoreHash(PinnedFinite()), 0xd1b59e09c48348c8ull);
  EXPECT_EQ(PinnedScoreHash(PinnedTies()), 0xbd47377c9fc4eb0dull);
  EXPECT_EQ(PinnedScoreHash(PinnedNonFinite()), 0xf45cf44fc5125397ull);
  EXPECT_EQ(PinnedScoreHash(PinnedSmall()), 0x68015d7c48219db6ull);
}

// Score keeps all scratch call-local: concurrent calls on one const forest
// give the serial bits.
TEST(IsolationForestTest, ConcurrentScoresMatchSerial) {
  const Dataset d = PinnedFinite();
  const IsolationForest forest(FastOptions());
  const std::vector<Subspace> subspaces = {Subspace({0, 1}), Subspace({2, 3}),
                                           Subspace({1, 4}), Subspace()};
  std::vector<std::vector<double>> serial;
  for (const Subspace& s : subspaces) serial.push_back(forest.Score(d, s));
  std::vector<std::vector<double>> concurrent(subspaces.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < subspaces.size(); ++i) {
    threads.emplace_back([&, i] {
      for (int round = 0; round < 3; ++round) {
        concurrent[i] = forest.Score(d, subspaces[i]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 0; i < subspaces.size(); ++i) {
    EXPECT_EQ(HashBits(kFnvOffsetBasis, concurrent[i]),
              HashBits(kFnvOffsetBasis, serial[i]))
        << subspaces[i].ToString();
  }
}

}  // namespace
}  // namespace subex
