// Contract-violation (death) tests: the library aborts with a diagnostic
// rather than silently corrupting results when API preconditions are
// broken.

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/matrix.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "detect/knn.h"
#include "detect/lof.h"
#include "explain/beam.h"
#include "ml/regression_tree.h"
#include "subspace/subspace.h"

namespace subex {
namespace {

TEST(CheckDeathTest, CheckMacroAborts) {
  EXPECT_DEATH(SUBEX_CHECK(1 == 2), "SUBEX_CHECK failed");
}

TEST(CheckDeathTest, CheckMsgIncludesMessage) {
  EXPECT_DEATH(SUBEX_CHECK_MSG(false, "the reason"), "the reason");
}

TEST(CheckDeathTest, RaggedMatrixInitializer) {
  EXPECT_DEATH((Matrix{{1.0, 2.0}, {3.0}}), "ragged");
}

TEST(CheckDeathTest, AppendRowWidthMismatch) {
  Matrix m = {{1.0, 2.0}};
  const std::vector<double> bad = {1.0, 2.0, 3.0};
  EXPECT_DEATH(m.AppendRow(bad), "row width mismatch");
}

TEST(CheckDeathTest, NegativeFeatureId) {
  EXPECT_DEATH(Subspace({-1, 2}), "negative feature id");
}

TEST(CheckDeathTest, OutlierIndexOutOfRange) {
  Matrix m = {{1.0}, {2.0}};
  EXPECT_DEATH(Dataset(std::move(m), {5}), "out of range");
}

TEST(CheckDeathTest, KnnNeedsTwoPoints) {
  Matrix m = {{1.0}};
  const Dataset d(std::move(m));
  EXPECT_DEATH(ComputeKnn(d, Subspace(), 1), "at least two points");
}

TEST(CheckDeathTest, KnnNeedsAFeature) {
  const Dataset d(Matrix(3, 0));
  EXPECT_DEATH(ComputeKnn(d, Subspace(), 1), "at least one feature");
}

TEST(CheckDeathTest, BeamRejectsBadTargetDim) {
  const SyntheticDataset d = GenerateFigure1Dataset(1, 50);
  const Lof lof(5);
  const Beam beam;
  EXPECT_DEATH(beam.Explain(d.dataset, lof, 0, 1), "SUBEX_CHECK failed");
  EXPECT_DEATH(beam.Explain(d.dataset, lof, 0, 99), "SUBEX_CHECK failed");
}

TEST(CheckDeathTest, BeamRejectsBadPoint) {
  const SyntheticDataset d = GenerateFigure1Dataset(2, 50);
  const Lof lof(5);
  const Beam beam;
  EXPECT_DEATH(beam.Explain(d.dataset, lof, -1, 2), "SUBEX_CHECK failed");
}

TEST(CheckDeathTest, TreePredictBeforeFit) {
  RegressionTree tree;
  const std::vector<double> row = {1.0};
  EXPECT_DEATH(tree.Predict(row), "Predict before Fit");
}

TEST(CheckDeathTest, TreeFitSizeMismatch) {
  Matrix x = {{1.0}, {2.0}};
  const std::vector<double> y = {1.0};
  RegressionTree tree;
  EXPECT_DEATH(tree.Fit(x, y), "SUBEX_CHECK failed");
}

}  // namespace
}  // namespace subex
