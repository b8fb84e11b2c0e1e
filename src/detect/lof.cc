#include "detect/lof.h"

#include <algorithm>

#include "common/check.h"
#include "detect/knn.h"

namespace subex {

Lof::Lof(int k) : k_(k) { SUBEX_CHECK(k >= 1); }

std::vector<double> Lof::Score(const Dataset& data,
                               const Subspace& subspace) const {
  const int n = static_cast<int>(data.num_points());
  const KnnTable knn = ComputeKnn(data, subspace, k_);

  // Local reachability density:
  //   lrd_k(p) = 1 / mean_{o in kNN(p)} max(k-dist(o), d(p, o)).
  const double k = static_cast<double>(knn.k);
  std::vector<double> lrd(n);
  for (int p = 0; p < n; ++p) {
    double sum = 0.0;
    for (const Neighbor& nb : knn.row(p)) {
      sum += std::max(knn.KDistance(nb.index), nb.distance);
    }
    lrd[p] = 1.0 / std::max(sum / k, kLofEpsilon);
  }

  // LOF_k(p) = mean_{o in kNN(p)} lrd(o) / lrd(p).
  std::vector<double> scores(n);
  for (int p = 0; p < n; ++p) {
    double sum = 0.0;
    for (const Neighbor& nb : knn.row(p)) sum += lrd[nb.index];
    scores[p] = sum / (k * lrd[p]);
  }
  return scores;
}

}  // namespace subex
