#include "detect/fast_abod.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "detect/knn.h"

namespace subex {

FastAbod::FastAbod(int k) : k_(k) { SUBEX_CHECK(k >= 2); }

std::vector<double> FastAbod::Score(const Dataset& data,
                                    const Subspace& subspace) const {
  const int n = static_cast<int>(data.num_points());
  const KnnTable knn = ComputeKnn(data, subspace, k_);

  std::vector<FeatureId> full;
  const std::span<const FeatureId> features =
      ResolveFeatures(subspace, data.num_features(), full);
  const std::size_t dim = features.size();
  const Matrix& m = data.matrix();

  std::vector<double> scores(n, 0.0);
  // Difference vectors p -> neighbor, recomputed per point (k * dim scratch).
  std::vector<double> diffs;
  std::vector<double> sq_norms;
  constexpr double kMinSqNorm = 1e-18;  // Skip coincident points.

  for (int p = 0; p < n; ++p) {
    const std::span<const Neighbor> nbs = knn.row(p);
    const std::size_t k = nbs.size();
    diffs.assign(k * dim, 0.0);
    sq_norms.assign(k, 0.0);
    const double* rp = m.data() + static_cast<std::size_t>(p) * m.cols();
    for (std::size_t i = 0; i < k; ++i) {
      const double* rq =
          m.data() + static_cast<std::size_t>(nbs[i].index) * m.cols();
      double sq = 0.0;
      for (std::size_t j = 0; j < dim; ++j) {
        const double d = rq[features[j]] - rp[features[j]];
        diffs[i * dim + j] = d;
        sq += d * d;
      }
      sq_norms[i] = sq;
    }
    // Variance of the angle factor over all neighbor pairs (Welford-free
    // two-pass: pair count is small, k*(k-1)/2 <= 45 for the default k).
    double sum = 0.0;
    double sum_sq = 0.0;
    int count = 0;
    for (std::size_t i = 0; i < k; ++i) {
      if (sq_norms[i] < kMinSqNorm) continue;
      for (std::size_t j = i + 1; j < k; ++j) {
        if (sq_norms[j] < kMinSqNorm) continue;
        double dot = 0.0;
        for (std::size_t t = 0; t < dim; ++t) {
          dot += diffs[i * dim + t] * diffs[j * dim + t];
        }
        const double value = dot / (sq_norms[i] * sq_norms[j]);
        sum += value;
        sum_sq += value * value;
        ++count;
      }
    }
    double abof = 0.0;
    if (count >= 2) {
      const double mean = sum / count;
      abof = std::max(0.0, sum_sq / count - mean * mean);
    }
    // Low angle variance = outlier. The ABOF has a heavy 1/dist^4 tail, so
    // the rank-preserving -log transform keeps downstream z-scores (and
    // Welch statistics over score populations) from being dominated by a
    // few ultra-dense inliers. Higher = more outlying.
    scores[p] = -std::log(abof + 1e-12);
  }
  return scores;
}

}  // namespace subex
