#include "detect/knn.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "common/matrix.h"
#include "detect/knn_share.h"
#include "obs/metrics.h"

namespace subex {
namespace {

/// Fills every row of the n x k table `out`. `axis[r]` is the (first-
/// feature value, point id) at sweep position r, ascending; `packed` holds
/// each position's subspace values, `dim` per row. `kDim` fixes `dim` at
/// compile time for the common 2-d and 3-d subspaces (0 = use `dim`).
template <std::size_t kDim>
void Sweep(std::span<const Neighbor> axis, const double* packed,
           std::size_t dim, int k, Neighbor* out) {
  if constexpr (kDim != 0) dim = kDim;
  const int n = static_cast<int>(axis.size());
  for (int r = 0; r < n; ++r) {
    const double* pr = packed + static_cast<std::size_t>(r) * dim;
    const double x = axis[r].distance;
    // p's row of the table doubles as its best-k list: `count` entries
    // sorted by NeighborLess, holding squared distances until the end.
    Neighbor* best = out + static_cast<std::size_t>(axis[r].index) * k;
    int count = 0;
    // Visits sweep position `s`; returns false, closing that side, once
    // its axis gap rules out s and everything beyond it. Every summand of
    // a squared distance is >= 0 and rounding is monotone, so d(p, q) >=
    // fl(g * g) for the axis gap g of q and of every point further out.
    // Strictly greater than the k-th means strictly worse, whatever the
    // index. (A NaN gap or k-th never compares greater, so never prunes.)
    auto visit = [&](int s) {
      const double g = axis[s].distance - x;
      if (count == k && g * g > best[k - 1].distance) return false;
      // The accumulation order of `SquaredDistance`: start at 0.0 and add
      // one squared difference per feature, in subspace order.
      const double* ps = packed + static_cast<std::size_t>(s) * dim;
      double sum = 0.0;
      for (std::size_t j = 0; j < dim; ++j) {
        const double d = pr[j] - ps[j];
        sum += d * d;
      }
      const Neighbor cand{sum, axis[s].index};
      int i = count;
      if (count < k) {
        ++count;
      } else if (NeighborLess(cand, best[k - 1])) {
        i = k - 1;
      } else {
        return true;
      }
      for (; i > 0 && NeighborLess(cand, best[i - 1]); --i) {
        best[i] = best[i - 1];
      }
      best[i] = cand;
      return true;
    };
    // One step outward per open side per round.
    int lo = r - 1;
    int hi = r + 1;
    bool lo_open = lo >= 0;
    bool hi_open = hi < n;
    while (lo_open || hi_open) {
      if (hi_open) hi_open = visit(hi) && ++hi < n;
      if (lo_open) lo_open = visit(lo) && --lo >= 0;
    }
    for (int i = 0; i < k; ++i) best[i].distance = std::sqrt(best[i].distance);
  }
}

}  // namespace

KnnTable ComputeKnn(const Dataset& data, const Subspace& subspace, int k) {
  KnnTable table;
  if (TakeSharedKnn(data, subspace, k, &table)) return table;
  return SweepKnn(data, subspace, k);
}

KnnTable SweepKnn(const Dataset& data, const Subspace& subspace, int k) {
  const int n = static_cast<int>(data.num_points());
  SUBEX_CHECK_MSG(n >= 2, "kNN needs at least two points");
  SUBEX_CHECK(k >= 1);
  k = std::min(k, n - 1);

  // Resolve the feature list once; empty subspace means every feature.
  std::vector<FeatureId> full;
  std::span<const FeatureId> features = subspace.AsSpan();
  if (subspace.empty()) {
    full.resize(data.num_features());
    std::iota(full.begin(), full.end(), 0);
    features = full;
  }
  SUBEX_CHECK_MSG(!features.empty(), "kNN needs at least one feature");
  const std::size_t dim = features.size();
  const Matrix& m = data.matrix();

  // Per-thread scratch reused across calls: batch scoring evaluates
  // thousands of subspaces per thread. `axis` holds (first-feature value,
  // point id) pairs sorted by NeighborLess — by value, NaN last, ties by
  // id; `packed` holds the subspace's values of each point in that order.
  static thread_local std::vector<Neighbor> axis;
  static thread_local std::vector<double> packed;
  axis.resize(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) {
    axis[p] = {m(p, static_cast<std::size_t>(features[0])), p};
  }
  std::sort(axis.begin(), axis.end(), NeighborLess);
  packed.resize(static_cast<std::size_t>(n) * dim);
  for (int r = 0; r < n; ++r) {
    const double* row =
        m.data() + static_cast<std::size_t>(axis[r].index) * m.cols();
    double* out = packed.data() + static_cast<std::size_t>(r) * dim;
    for (std::size_t j = 0; j < dim; ++j) out[j] = row[features[j]];
  }

  KnnTable table;
  table.k = k;
  table.entries.resize(static_cast<std::size_t>(n) * k);
  auto* sweep = dim == 2 ? &Sweep<2> : dim == 3 ? &Sweep<3> : &Sweep<0>;
  sweep(axis, packed.data(), dim, k, table.entries.data());
  KnnSweepCounter().Increment();
  return table;
}

}  // namespace subex
