#include "detect/knn.h"

#include <algorithm>
#include <cmath>
#if defined(__x86_64__)
#include <immintrin.h>
#endif
#include <numeric>

#include "common/check.h"
#include "common/matrix.h"
#include "detect/knn_share.h"
#include "detect/simd.h"
#include "obs/metrics.h"

namespace subex {
namespace {

// Inserts `cand` into the sorted best-k list `best[0, count)` if it ranks
// among the k best under NeighborLess, growing `count` up to k.
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
      InsertCandidate({sum, axis[s].index}, k, best, count);
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

#if SUBEX_HAVE_AVX512_KERNELS

// Sweep positions visited per side per round by `SweepAvx512`.
constexpr int kLanes = 8;

// Visits the up to `kLanes` sweep positions `s0, s0 + step, ...` that lie
// in [0, n) (`step` is +1 or -1; `offsets` holds lane * step * dim) for the
// query at sweep position `r`, unless the axis gap of `s0` closes the
// side, which returns false. As `Sweep`'s visit, but lane-parallel.
SUBEX_AVX512_TARGET inline bool VisitLanes(std::span<const Neighbor> axis,
                                           const double* packed,
                                           std::size_t dim, int k, int r,
                                           int s0, int step, __m256i offsets,
                                           Neighbor* best, int& count) {
  const double g = axis[s0].distance - axis[r].distance;
  if (count == k && g * g > best[k - 1].distance) return false;
  const int n = static_cast<int>(axis.size());
  const int lanes = std::min(kLanes, step > 0 ? n - s0 : s0 + 1);
  __mmask8 m = static_cast<__mmask8>((1u << lanes) - 1u);
  // `Sweep`'s accumulation order in every lane: 0.0, then one squared
  // difference (query minus candidate) per feature, in subspace order.
  const double* pr = packed + static_cast<std::size_t>(r) * dim;
  const double* ps = packed + static_cast<std::size_t>(s0) * dim;
  __m512d sum = _mm512_setzero_pd();
  for (std::size_t j = 0; j < dim; ++j) {
    const __m512d q =
        _mm512_mask_i32gather_pd(_mm512_setzero_pd(), m, offsets, ps + j, 8);
    const __m512d d = _mm512_sub_pd(_mm512_set1_pd(pr[j]), q);
    sum = _mm512_add_pd(sum, _mm512_mul_pd(d, d));
  }
  // A candidate strictly greater than the k-th can never enter.
  if (count == k) {
    m = _mm512_mask_cmp_pd_mask(m, sum, _mm512_set1_pd(best[k - 1].distance),
                                _CMP_LE_OQ);
  }
  alignas(64) double sums[kLanes];
  _mm512_store_pd(sums, sum);
  for (unsigned bits = m; bits != 0; bits &= bits - 1) {
    const int lane = __builtin_ctz(bits);
    InsertCandidate({sums[lane], axis[s0 + lane * step].index}, k, best,
                    count);
  }
  return true;
}

/// `Sweep`, visiting `kLanes` positions per open side per round. Exact:
/// the k best under a total order do not depend on the visit order, and
/// the prune, checked on the nearest position of each batch, still only
/// closes a side whose every remaining candidate is strictly worse than
/// the k-th. The positions past a prune point that a batch computes only
/// lose. Requires every packed value to be finite, so no distance is NaN.
SUBEX_AVX512_TARGET void SweepAvx512(std::span<const Neighbor> axis,
                                     const double* packed, std::size_t dim,
                                     int k, Neighbor* out) {
  const int n = static_cast<int>(axis.size());
  const __m256i lane_rows = _mm256_mullo_epi32(
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
      _mm256_set1_epi32(static_cast<int>(dim)));
  const __m256i hi_offsets = lane_rows;
  const __m256i lo_offsets =
      _mm256_sub_epi32(_mm256_setzero_si256(), lane_rows);
  for (int r = 0; r < n; ++r) {
    Neighbor* best = out + static_cast<std::size_t>(axis[r].index) * k;
    int count = 0;
    int lo = r - 1;
    int hi = r + 1;
    bool lo_open = lo >= 0;
    bool hi_open = hi < n;
    while (lo_open || hi_open) {
      if (hi_open) {
        hi_open = VisitLanes(axis, packed, dim, k, r, hi, 1, hi_offsets, best,
                             count) &&
                  (hi += kLanes) < n;
      }
      if (lo_open) {
        lo_open = VisitLanes(axis, packed, dim, k, r, lo, -1, lo_offsets,
                             best, count) &&
                  (lo -= kLanes) >= 0;
      }
    }
    for (int i = 0; i < k; ++i) best[i].distance = std::sqrt(best[i].distance);
  }
}

#endif  // SUBEX_HAVE_AVX512_KERNELS

}  // namespace

KnnTable ComputeKnn(const Dataset& data, const Subspace& subspace, int k) {
  KnnTable table;
  if (TakeSharedKnn(data, subspace, k, &table)) return table;
  return SweepKnn(data, subspace, k);
}

KnnTable SweepKnn(const Dataset& data, const Subspace& subspace, int k) {
  return SweepKnnOn(data, subspace, k, ActiveKernelPath());
}

KnnTable SweepKnnOn(const Dataset& data, const Subspace& subspace, int k,
                    KernelPath path) {
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
#if SUBEX_HAVE_AVX512_KERNELS
  // With finite values every distance is a number, so the lanes need not
  // reproduce how NaN operands propagate.
  if (path == KernelPath::kAvx512 &&
      std::all_of(packed.begin(), packed.end(),
                  [](double v) { return std::isfinite(v); })) {
    sweep = &SweepAvx512;
  }
#else
  (void)path;
#endif
  sweep(axis, packed.data(), dim, k, table.entries.data());
  KnnSweepCounter().Increment();
  return table;
}

}  // namespace subex
