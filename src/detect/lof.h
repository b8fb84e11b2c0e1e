#ifndef SUBEX_DETECT_LOF_H_
#define SUBEX_DETECT_LOF_H_

#include <algorithm>
#include <span>

#include "detect/detector.h"
#include "detect/knn.h"

namespace subex {

/// Floor of LOF's mean reachability distance. Duplicate-heavy data can make
/// the mean zero; the floor keeps lrd finite and preserves ordering.
inline constexpr double kLofEpsilon = 1e-10;

/// LOF's two formulas, written once for `Lof::Score` (over its all-points
/// `KnnTable`) and `ScoreLofChunked` (over the neighbourhood closure of its
/// queries). `row` is a point's k nearest neighbours, sorted by
/// `NeighborLess`; each sum runs in row order.
///
/// Local reachability density of the row's point:
///   lrd_k(p) = 1 / max(mean_{o in kNN(p)} max(k-dist(o), d(p, o)), eps).
/// `k_distance(o)` is the distance from `o` to its k-th nearest neighbour.
template <class KDistance>
double LofLrd(std::span<const Neighbor> row, KDistance&& k_distance) {
  double sum = 0.0;
  for (const Neighbor& nb : row) {
    sum += std::max(k_distance(nb.index), nb.distance);
  }
  return 1.0 / std::max(sum / static_cast<double>(row.size()), kLofEpsilon);
}

/// LOF_k(p) = mean_{o in kNN(p)} lrd(o) / lrd(p), for the point `p` whose
/// neighbours are `row`. `lrd(o)` is `LofLrd` of point `o`.
template <class Lrd>
double LofRatio(int p, std::span<const Neighbor> row, Lrd&& lrd) {
  double sum = 0.0;
  for (const Neighbor& nb : row) sum += lrd(nb.index);
  return sum / (static_cast<double>(row.size()) * lrd(p));
}

/// Local Outlier Factor [Breunig et al., SIGMOD 2000].
///
/// Density-based detector: compares each point's local reachability density
/// with that of its k nearest neighbors. Inliers score ~1, outliers
/// substantially above 1. O(n^2) per subspace. The paper runs it with k=15
/// and finds it the fastest and, for clustered/density outliers, the most
/// effective detector of the testbed.
class Lof final : public Detector {
 public:
  /// `k`: neighborhood size (MinPts); the testbed default is 15.
  explicit Lof(int k = 15);

  std::string name() const override { return "LOF"; }
  std::vector<double> Score(const Dataset& data,
                            const Subspace& subspace) const override;

  int k() const { return k_; }

 private:
  int k_;
};

}  // namespace subex

#endif  // SUBEX_DETECT_LOF_H_
