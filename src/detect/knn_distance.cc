#include "detect/knn_distance.h"

#include "common/check.h"

namespace subex {

KnnDistance::KnnDistance(int k, Aggregation aggregation)
    : k_(k), aggregation_(aggregation) {
  SUBEX_CHECK(k >= 1);
}

double KnnDistance::Aggregate(std::span<const Neighbor> row,
                              Aggregation aggregation) {
  if (aggregation == Aggregation::kMax) return row.back().distance;
  double sum = 0.0;
  for (const Neighbor& nb : row) sum += nb.distance;
  return sum / static_cast<double>(row.size());
}

std::vector<double> KnnDistance::Score(const Dataset& data,
                                       const Subspace& subspace) const {
  const KnnTable knn = ComputeKnn(data, subspace, k_);
  std::vector<double> scores(data.num_points());
  for (std::size_t p = 0; p < scores.size(); ++p) {
    scores[p] = Aggregate(knn.row(static_cast<int>(p)), aggregation_);
  }
  return scores;
}

}  // namespace subex
