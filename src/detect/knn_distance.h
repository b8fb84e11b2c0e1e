#ifndef SUBEX_DETECT_KNN_DISTANCE_H_
#define SUBEX_DETECT_KNN_DISTANCE_H_

#include <span>

#include "detect/detector.h"
#include "detect/knn.h"

namespace subex {

/// Classic distance-based outlier detector (Ramaswamy et al., 2000):
/// a point's outlyingness is its distance to its k-th nearest neighbor
/// (`kMax` aggregation) or the mean distance to its k nearest neighbors
/// (`kMean`, often more stable).
///
/// Included as the representative of the distance-based family that the
/// paper's §3.1 cites as "frequently outperformed" by LOF / ABOD / iForest
/// in prior experimental studies [6, 8, 13] — the detector-choice ablation
/// bench quantifies that claim on this testbed's datasets.
class KnnDistance final : public Detector {
 public:
  enum class Aggregation { kMax, kMean };

  /// `k`: neighborhood size; `aggregation`: k-th distance or mean distance.
  explicit KnnDistance(int k = 10,
                       Aggregation aggregation = Aggregation::kMean);

  std::string name() const override { return "kNNDist"; }
  std::vector<double> Score(const Dataset& data,
                            const Subspace& subspace) const override;

  /// The score of one point from its k nearest neighbours, sorted by
  /// `NeighborLess`: the last distance (`kMax`) or the mean summed in row
  /// order (`kMean`). Shared with the chunked `ScoreKnnDistanceChunked`.
  static double Aggregate(std::span<const Neighbor> row,
                          Aggregation aggregation);

  int k() const { return k_; }

 private:
  int k_;
  Aggregation aggregation_;
};

}  // namespace subex

#endif  // SUBEX_DETECT_KNN_DISTANCE_H_
