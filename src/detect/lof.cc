#include "detect/lof.h"

#include "common/check.h"

namespace subex {

Lof::Lof(int k) : k_(k) { SUBEX_CHECK(k >= 1); }

std::vector<double> Lof::Score(const Dataset& data,
                               const Subspace& subspace) const {
  const int n = static_cast<int>(data.num_points());
  const KnnTable knn = ComputeKnn(data, subspace, k_);
  std::vector<double> lrd(n);
  for (int p = 0; p < n; ++p) {
    lrd[p] = LofLrd(knn.row(p), [&knn](int o) { return knn.KDistance(o); });
  }
  std::vector<double> scores(n);
  for (int p = 0; p < n; ++p) {
    scores[p] = LofRatio(p, knn.row(p), [&lrd](int o) { return lrd[o]; });
  }
  return scores;
}

}  // namespace subex
