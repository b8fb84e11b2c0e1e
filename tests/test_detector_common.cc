#include "detect/detector.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "core/metrics.h"
#include "detect/knn_distance.h"
#include "detect/lof.h"
#include "stats/descriptive.h"

namespace subex {
namespace {

// 64 x 3 Gaussian points with one +1e308 and one -1e308 cell in feature 1:
// finite, so `kIngest` accepts such rows, but squared distances to them
// overflow.
Dataset OverflowProbe() {
  Rng rng(64);
  Matrix m(64, 3);
  for (int p = 0; p < 64; ++p) {
    for (int f = 0; f < 3; ++f) m(p, f) = rng.Gaussian(0.5, 0.1);
  }
  m(10, 1) = 1e308;
  m(40, 1) = -1e308;
  return Dataset(std::move(m));
}

// `ScoreStandardized` over the probe on {f1}, {f0,f1} and the full space:
// no NaN; finite raw scores stay finite and non-finite ones keep their
// value, so they rank at the ends. Returns the number of non-finite raw
// scores seen.
int ExpectProbeStandardizesWithoutNan(const Detector& detector) {
  const Dataset d = OverflowProbe();
  int non_finite = 0;
  for (const Subspace& s : {Subspace({1}), Subspace({0, 1}), Subspace()}) {
    const std::vector<double> raw = detector.Score(d, s);
    const std::vector<double> z = ScoreStandardized(detector, d, s);
    for (std::size_t p = 0; p < z.size(); ++p) {
      EXPECT_FALSE(std::isnan(z[p]))
          << detector.name() << " " << s.ToString() << " point " << p;
      if (std::isfinite(raw[p])) {
        EXPECT_TRUE(std::isfinite(z[p])) << detector.name() << " point " << p;
      } else {
        EXPECT_EQ(z[p], raw[p]) << detector.name() << " point " << p;
        ++non_finite;
      }
    }
  }
  return non_finite;
}

// Shared cross-detector property tests, parameterized over the three
// detector families of the testbed.
class DetectorPropertyTest : public ::testing::TestWithParam<DetectorKind> {
 protected:
  // A dataset with a dense blob and 5% gross outliers, *scattered* in
  // random directions so they do not form a micro-cluster (which would be
  // invisible to small-k neighborhood detectors like Fast ABOD).
  static Dataset MakeContaminated(int n, std::uint64_t seed) {
    Rng rng(seed);
    Matrix m(n, 3);
    std::vector<int> outliers;
    for (int p = 0; p < n; ++p) {
      const bool is_outlier = p >= n - n / 20;
      for (int f = 0; f < 3; ++f) {
        if (is_outlier) {
          const double sign = rng.Uniform() < 0.5 ? -1.0 : 1.0;
          m(p, f) = 0.35 + sign * rng.Uniform(0.3, 0.5);
        } else {
          m(p, f) = rng.Gaussian(0.35, 0.06);
        }
      }
      if (is_outlier) outliers.push_back(p);
    }
    return Dataset(std::move(m), std::move(outliers));
  }
};

TEST_P(DetectorPropertyTest, FactoryProducesWorkingDetector) {
  const auto detector = MakeDetector(GetParam());
  ASSERT_NE(detector, nullptr);
  EXPECT_EQ(detector->name(), DetectorKindName(GetParam()));
}

TEST_P(DetectorPropertyTest, SeparatesGrossOutliers) {
  const auto detector = MakeDetector(GetParam());
  const Dataset d = MakeContaminated(300, 21);
  const std::vector<double> scores = detector->Score(d, Subspace());
  std::vector<bool> labels(d.num_points(), false);
  for (int p : d.outlier_indices()) labels[p] = true;
  EXPECT_GT(RocAuc(scores, labels), 0.95)
      << "detector " << detector->name();
}

TEST_P(DetectorPropertyTest, OneScorePerPointAllFinite) {
  const auto detector = MakeDetector(GetParam());
  const Dataset d = MakeContaminated(120, 22);
  const std::vector<double> scores = detector->Score(d, Subspace({0, 2}));
  ASSERT_EQ(scores.size(), d.num_points());
  for (double s : scores) EXPECT_TRUE(std::isfinite(s));
}

TEST_P(DetectorPropertyTest, ScoreIsPure) {
  const auto detector = MakeDetector(GetParam());
  const Dataset d = MakeContaminated(100, 23);
  EXPECT_EQ(detector->Score(d, Subspace({0, 1})),
            detector->Score(d, Subspace({0, 1})));
}

TEST_P(DetectorPropertyTest, StandardizedScoresAreZeroMeanUnitVariance) {
  const auto detector = MakeDetector(GetParam());
  const Dataset d = MakeContaminated(150, 24);
  const std::vector<double> z = ScoreStandardized(*detector, d, Subspace());
  EXPECT_NEAR(Mean(z), 0.0, 1e-9);
  EXPECT_NEAR(PopulationVariance(z), 1.0, 1e-9);
}

TEST_P(DetectorPropertyTest, StandardizedOutlierScoresPositive) {
  const auto detector = MakeDetector(GetParam());
  const Dataset d = MakeContaminated(300, 25);
  const std::vector<double> z = ScoreStandardized(*detector, d, Subspace());
  for (int p : d.outlier_indices()) {
    EXPECT_GT(z[p], 1.0) << "detector " << detector->name();
  }
}

// The probe is one in-RAM case per detector; LOF's raw scores of the two
// rows overflow to +Inf.
TEST_P(DetectorPropertyTest, OverflowingCellsStandardizeWithoutNan) {
  const int non_finite = ExpectProbeStandardizesWithoutNan(
      *MakeDetector(GetParam()));
  if (GetParam() == DetectorKind::kLof) {
    EXPECT_GT(non_finite, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDetectors, DetectorPropertyTest,
    ::testing::ValuesIn(AllDetectorKinds()),
    [](const ::testing::TestParamInfo<DetectorKind>& info) {
      return DetectorKindName(info.param);
    });

TEST(DetectorOverflowTest, KnnDistanceStandardizesWithoutNan) {
  for (auto agg : {KnnDistance::Aggregation::kMax,
                   KnnDistance::Aggregation::kMean}) {
    EXPECT_GT(ExpectProbeStandardizesWithoutNan(KnnDistance(10, agg)), 0);
  }
}

// 63 rows on two positions, each with more than k = 15 exact duplicates
// (lrd 1/1e-10), and one row at 1e150 in both features: that row's LOF is a
// finite 1e160 whose squared deviation overflows. It must still rank first.
TEST(DetectorOverflowTest, LofOverflowingFiniteScoreRanksFirst) {
  Matrix m(64, 2);
  for (int p = 0; p < 63; ++p) {
    m(p, 0) = p % 2;
    m(p, 1) = p % 2;
  }
  m(63, 0) = 1e150;
  m(63, 1) = 1e150;
  const Dataset d(std::move(m));
  const Lof lof(15);
  const std::vector<double> raw = lof.Score(d, Subspace());
  ASSERT_TRUE(std::isfinite(raw[63]));
  const std::vector<double> z = ScoreStandardized(lof, d, Subspace());
  for (int p = 0; p < 63; ++p) {
    EXPECT_TRUE(std::isfinite(z[p])) << p;
    EXPECT_LT(z[p], z[63]) << p;
  }
  EXPECT_GT(z[63], 0.0);
}

TEST(DetectorFactoryTest, AllKindsListed) {
  EXPECT_EQ(AllDetectorKinds().size(), 3u);
}

TEST(DetectorFactoryTest, KindNames) {
  EXPECT_STREQ(DetectorKindName(DetectorKind::kLof), "LOF");
  EXPECT_STREQ(DetectorKindName(DetectorKind::kFastAbod), "FastABOD");
  EXPECT_STREQ(DetectorKindName(DetectorKind::kIsolationForest), "iForest");
}

}  // namespace
}  // namespace subex
