#include "detect/exact_abod.h"

#include <cmath>

#include "common/check.h"
#include "common/matrix.h"

namespace subex {

std::vector<double> ExactAbod::Score(const Dataset& data,
                                     const Subspace& subspace) const {
  const int n = static_cast<int>(data.num_points());
  SUBEX_CHECK(n >= 3);

  std::vector<FeatureId> full;
  const std::span<const FeatureId> features =
      ResolveFeatures(subspace, data.num_features(), full);
  const std::size_t dim = features.size();
  const Matrix& m = data.matrix();
  constexpr double kMinSqNorm = 1e-18;

  std::vector<double> scores(n);
  std::vector<double> diffs(static_cast<std::size_t>(n) * dim);
  std::vector<double> sq_norms(n);
  for (int p = 0; p < n; ++p) {
    const double* rp = m.data() + static_cast<std::size_t>(p) * m.cols();
    // Difference vectors p -> q for all q.
    for (int q = 0; q < n; ++q) {
      const double* rq = m.data() + static_cast<std::size_t>(q) * m.cols();
      double sq = 0.0;
      for (std::size_t j = 0; j < dim; ++j) {
        const double d = rq[features[j]] - rp[features[j]];
        diffs[static_cast<std::size_t>(q) * dim + j] = d;
        sq += d * d;
      }
      sq_norms[q] = sq;
    }
    double sum = 0.0;
    double sum_sq = 0.0;
    long long count = 0;
    for (int a = 0; a < n; ++a) {
      if (a == p || sq_norms[a] < kMinSqNorm) continue;
      for (int b = a + 1; b < n; ++b) {
        if (b == p || sq_norms[b] < kMinSqNorm) continue;
        double dot = 0.0;
        for (std::size_t j = 0; j < dim; ++j) {
          dot += diffs[static_cast<std::size_t>(a) * dim + j] *
                 diffs[static_cast<std::size_t>(b) * dim + j];
        }
        const double value = dot / (sq_norms[a] * sq_norms[b]);
        sum += value;
        sum_sq += value * value;
        ++count;
      }
    }
    double abof = 0.0;
    if (count >= 2) {
      const double mean = sum / static_cast<double>(count);
      abof = std::max(0.0, sum_sq / static_cast<double>(count) - mean * mean);
    }
    scores[p] = -std::log(abof + 1e-12);
  }
  return scores;
}

}  // namespace subex
