#include "detect/knn.h"

#include <algorithm>
#include <cmath>
#if defined(__x86_64__)
#include <immintrin.h>
#endif
#include <limits>

#include "common/check.h"
#include "common/matrix.h"
#include "detect/knn_share.h"
#include "detect/simd.h"
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
// The largest k whose best-k list `RegisterTopK` holds.
constexpr int kMaxVectorK = 16;

// One query's best-k list in registers, sorted by NeighborLess: squared
// distances of entries 0-7 in `lo` and 8-15 in `hi`, the entries' point ids
// in `ids`. Only lanes [0, k) are ever compared; entries not yet filled hold
// (+Inf, INT_MAX), which ranks after every candidate.
struct RegisterTopK {
  __m512d lo, hi;
  __m512i ids;
  __mmask16 valid;

  SUBEX_AVX512_TARGET static RegisterTopK Empty(int k) {
    const __m512d inf =
        _mm512_set1_pd(std::numeric_limits<double>::infinity());
    return {inf, inf, _mm512_set1_epi32(std::numeric_limits<int>::max()),
            static_cast<__mmask16>((1u << k) - 1u)};
  }

  // Inserts (`dist`, `id`), both broadcast to every lane, if it ranks among
  // the k best, without a branch. With no NaN distance (+Inf equals +Inf),
  // NeighborLess(entry, candidate) is "smaller, or equal with a smaller
  // id", and the entries that rank before the candidate form a prefix
  // `before` of the sorted list. The entries past it move up one lane and
  // the candidate takes the lane just past it. A candidate ranking after
  // all k entries writes only lanes >= k, which are never read.
  SUBEX_AVX512_TARGET void Insert(__m512d dist, __m512i id) {
    const unsigned less =
        _mm512_kunpackb(_mm512_cmp_pd_mask(hi, dist, _CMP_LT_OQ),
                        _mm512_cmp_pd_mask(lo, dist, _CMP_LT_OQ));
    const unsigned tied =
        _mm512_kunpackb(_mm512_cmp_pd_mask(hi, dist, _CMP_EQ_OQ),
                        _mm512_cmp_pd_mask(lo, dist, _CMP_EQ_OQ));
    const unsigned before =
        (less | (tied & _mm512_cmplt_epi32_mask(ids, id))) & valid;
    const unsigned at = before + 1;
    const unsigned after = ~(before | at);
    // The lanes `after` take entry i - 1, the lane `at` the candidate; `hi`
    // first, as its lane 0 takes the old lane 7 of `lo`.
    hi = _mm512_mask_mov_pd(
        _mm512_mask_permutex2var_pd(
            hi, after >> 8, _mm512_setr_epi64(15, 0, 1, 2, 3, 4, 5, 6), lo),
        at >> 8, dist);
    lo = _mm512_mask_mov_pd(
        _mm512_mask_permutexvar_pd(
            lo, after, _mm512_setr_epi64(0, 0, 1, 2, 3, 4, 5, 6), lo),
        at, dist);
    ids = _mm512_mask_mov_epi32(
        _mm512_mask_permutexvar_epi32(
            ids, after,
            _mm512_setr_epi32(0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                              14),
            ids),
        at, id);
  }

  // The squared distance of entry k - 1: +Inf until k entries are filled.
  SUBEX_AVX512_TARGET double Kth(int k) const {
    return _mm512_cvtsd_f64(_mm512_maskz_permutexvar_pd(
        1, _mm512_set1_epi64((k - 1) & 7), k > kLanes ? hi : lo));
  }

  // Writes the k entries to `best`, square-rooted.
  SUBEX_AVX512_TARGET void Store(int k, Neighbor* best) const {
    alignas(64) double dist[kMaxVectorK];
    alignas(64) int id[kMaxVectorK];
    _mm512_store_pd(dist, _mm512_maskz_sqrt_pd(0xff, lo));
    _mm512_store_pd(dist + kLanes, _mm512_maskz_sqrt_pd(0xff, hi));
    _mm512_store_si512(id, ids);
    for (int i = 0; i < k; ++i) best[i] = {dist[i], id[i]};
  }
};

// Visits the up to `kLanes` sweep positions next to `s0` on one side, `s0`
// included, that lie in [0, n): [s0, s0 + 8) for `step` +1, (s0 - 8, s0] for
// -1, for the query at sweep position `r`, unless the axis gap of `s0`
// closes the side, which returns false. `columns` is column-major, n per
// feature, so each feature's lanes are one contiguous load. As `Sweep`'s
// visit, but lane-parallel; `kth` is the list's k-th squared distance.
SUBEX_AVX512_TARGET inline bool VisitLanes(std::span<const Neighbor> axis,
                                           const double* columns,
                                           std::size_t dim, int k, int r,
                                           int s0, int step,
                                           RegisterTopK& best, double& kth) {
  const double g = axis[s0].distance - axis[r].distance;
  if (g * g > kth) return false;
  const int n = static_cast<int>(axis.size());
  const int lanes = std::min(kLanes, step > 0 ? n - s0 : s0 + 1);
  const int first = step > 0 ? s0 : s0 - lanes + 1;
  __mmask8 m = static_cast<__mmask8>((1u << lanes) - 1u);
  // `Sweep`'s accumulation order in every lane: 0.0, then one squared
  // difference (query minus candidate) per feature, in subspace order.
  __m512d sum = _mm512_setzero_pd();
  for (std::size_t j = 0; j < dim; ++j) {
    const double* column = columns + j * n;
    const __m512d d = _mm512_sub_pd(_mm512_set1_pd(column[r]),
                                    _mm512_maskz_loadu_pd(m, column + first));
    sum = _mm512_add_pd(sum, _mm512_mul_pd(d, d));
  }
  // A candidate strictly greater than the k-th can never enter.
  m = _mm512_mask_cmp_pd_mask(m, sum, _mm512_set1_pd(kth), _CMP_LE_OQ);
  if (m == 0) return true;
  alignas(64) double sums[kLanes];
  _mm512_store_pd(sums, sum);
  for (unsigned bits = m; bits != 0; bits &= bits - 1) {
    const int lane = __builtin_ctz(bits);
    best.Insert(_mm512_set1_pd(sums[lane]),
                _mm512_set1_epi32(axis[first + lane].index));
  }
  kth = best.Kth(k);
  return true;
}

/// `Sweep`, visiting `kLanes` positions per open side per round and keeping
/// the best-k list in registers; `columns` holds the packed values column-
/// major. Exact: the k best under a total order do not depend on the visit
/// order, and the prune, checked on the nearest position of each batch,
/// still only closes a side whose every remaining candidate is strictly
/// worse than the k-th. The positions past a prune point that a batch
/// computes only lose. Requires k <= kMaxVectorK and every packed value to
/// be finite, so no distance is NaN.
SUBEX_AVX512_TARGET void SweepAvx512(std::span<const Neighbor> axis,
                                     const double* columns, std::size_t dim,
                                     int k, Neighbor* out) {
  const int n = static_cast<int>(axis.size());
  for (int r = 0; r < n; ++r) {
    RegisterTopK best = RegisterTopK::Empty(k);
    double kth = std::numeric_limits<double>::infinity();
    int lo = r - 1;
    int hi = r + 1;
    bool lo_open = lo >= 0;
    bool hi_open = hi < n;
    while (lo_open || hi_open) {
      if (hi_open) {
        hi_open = VisitLanes(axis, columns, dim, k, r, hi, 1, best, kth) &&
                  (hi += kLanes) < n;
      }
      if (lo_open) {
        lo_open = VisitLanes(axis, columns, dim, k, r, lo, -1, best, kth) &&
                  (lo -= kLanes) >= 0;
      }
    }
    best.Store(k, out + static_cast<std::size_t>(axis[r].index) * k);
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

  std::vector<FeatureId> full;
  const std::span<const FeatureId> features =
      ResolveFeatures(subspace, data.num_features(), full);
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
  // The scalar sweep reads `packed` row-major (position r's feature j at
  // r * dim + j), the AVX-512 sweep column-major (at j * n + r).
  const auto pack = [&](bool column_major) {
    packed.resize(static_cast<std::size_t>(n) * dim);
    const std::size_t position_step = column_major ? 1 : dim;
    const std::size_t feature_step = column_major ? n : 1;
    for (int r = 0; r < n; ++r) {
      const double* row =
          m.data() + static_cast<std::size_t>(axis[r].index) * m.cols();
      double* out = packed.data() + r * position_step;
      for (std::size_t j = 0; j < dim; ++j) {
        out[j * feature_step] = row[features[j]];
      }
    }
  };

  KnnTable table;
  table.k = k;
  table.entries.resize(static_cast<std::size_t>(n) * k);
  auto* sweep = dim == 2 ? &Sweep<2> : dim == 3 ? &Sweep<3> : &Sweep<0>;
#if SUBEX_HAVE_AVX512_KERNELS
  const bool vector = path == KernelPath::kAvx512 && k <= kMaxVectorK;
  pack(vector);
  // With finite values every distance is a number, so the lanes need not
  // reproduce how NaN operands propagate. Otherwise repack for the scalar
  // sweep.
  if (vector) {
    if (std::all_of(packed.begin(), packed.end(),
                    [](double v) { return std::isfinite(v); })) {
      sweep = &SweepAvx512;
    } else {
      pack(false);
    }
  }
#else
  (void)path;
  pack(false);
#endif
  sweep(axis, packed.data(), dim, k, table.entries.data());
  KnnSweepCounter().Increment();
  return table;
}

}  // namespace subex
