#include "detect/knn_distance.h"

#include "common/check.h"
#include "detect/knn.h"

namespace subex {

KnnDistance::KnnDistance(int k, Aggregation aggregation)
    : k_(k), aggregation_(aggregation) {
  SUBEX_CHECK(k >= 1);
}

std::vector<double> KnnDistance::Score(const Dataset& data,
                                       const Subspace& subspace) const {
  const KnnTable knn = ComputeKnn(data, subspace, k_);
  std::vector<double> scores(data.num_points());
  for (std::size_t p = 0; p < scores.size(); ++p) {
    if (aggregation_ == Aggregation::kMax) {
      scores[p] = knn.KDistance(static_cast<int>(p));
    } else {
      double sum = 0.0;
      for (const Neighbor& nb : knn.row(static_cast<int>(p))) {
        sum += nb.distance;
      }
      scores[p] = sum / static_cast<double>(knn.k);
    }
  }
  return scores;
}

}  // namespace subex
