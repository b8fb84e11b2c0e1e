#ifndef SUBEX_DETECT_KNN_H_
#define SUBEX_DETECT_KNN_H_

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "subspace/subspace.h"

namespace subex {

/// One neighbor of a query point.
struct Neighbor {
  double distance = 0.0;  // Euclidean, within the query subspace.
  int index = -1;
};

/// The one neighbor order of every kNN path: ascending distance, a NaN
/// distance after every number, ties (NaN included) broken by index. It is
/// a strict weak order on all doubles, and a total order on neighbors with
/// distinct indices, so the k smallest — and their order — do not depend on
/// the order candidates are visited in.
inline bool NeighborLess(const Neighbor& a, const Neighbor& b) {
  if (a.distance < b.distance) return true;
  if (b.distance < a.distance) return false;
  const bool a_nan = std::isnan(a.distance);
  if (a_nan != std::isnan(b.distance)) return !a_nan;
  return a.index < b.index;
}

/// Inserts `cand` into the sorted best-k list `best[0, count)` if it ranks
/// among the k best under NeighborLess, growing `count` up to k. On
/// candidates with distinct indices the list ends as the k smallest in
/// order, whatever order they arrive in.
inline void InsertCandidate(const Neighbor& cand, int k, Neighbor* best,
                            int& count) {
  int i = count;
  if (count < k) {
    ++count;
  } else if (NeighborLess(cand, best[k - 1])) {
    i = k - 1;
  } else {
    return;
  }
  for (; i > 0 && NeighborLess(cand, best[i - 1]); --i) {
    best[i] = best[i - 1];
  }
  best[i] = cand;
}

/// k-nearest-neighbor lists for every point of a dataset within one
/// subspace, in one flat n x k array. `row(p)` holds p's k neighbors sorted
/// by `NeighborLess`, excluding `p` itself.
struct KnnTable {
  int k = 0;
  std::vector<Neighbor> entries;  // Row-major: row p is [p * k, p * k + k).

  std::span<const Neighbor> row(int p) const {
    return {entries.data() + static_cast<std::size_t>(p) * k,
            static_cast<std::size_t>(k)};
  }

  /// Distance from point `p` to its k-th nearest neighbor.
  double KDistance(int p) const {
    return entries[static_cast<std::size_t>(p) * k + k - 1].distance;
  }
};

/// Exact kNN of every point, restricted to `subspace` (empty = full space).
/// `k` is clamped to n-1. This is the shared substrate of LOF, Fast ABOD
/// and kNN-distance. When the calling thread has a `KnnShareBinding` for
/// `data` installed (knn_share.h), the table may come from the sweep
/// another detector already ran on the same subspace; it is bitwise the
/// table `SweepKnn` returns either way.
KnnTable ComputeKnn(const Dataset& data, const Subspace& subspace, int k);

/// The neighbour search itself, never shared. Explainers query thousands
/// of *different* low-dimensional subspaces, so no index amortizes;
/// instead each call sorts the points along the subspace's first feature
/// and sweeps outward from every point, stopping a direction once the axis
/// gap alone exceeds the current k-th distance. O(n log n + n * visited *
/// |subspace|) time, O(n * k) output and O(n * |subspace|) per-thread
/// scratch. Counted by the registry counter `detect.knn.sweeps`. On hosts
/// with AVX-512 (detect/simd.h), finite inputs with k <= 16 sweep 8
/// positions per side at a time, from values packed column-major so each
/// feature's 8 lanes are one load, and keep each query's best-k list in
/// registers, inserting without a branch. The table is the same.
KnnTable SweepKnn(const Dataset& data, const Subspace& subspace, int k);

}  // namespace subex

#endif  // SUBEX_DETECT_KNN_H_
