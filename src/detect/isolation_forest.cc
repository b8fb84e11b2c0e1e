#include "detect/isolation_forest.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#if defined(__x86_64__)
#include <immintrin.h>
#endif
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "detect/simd.h"

namespace subex {
namespace {

// Per-call scratch for growing isolation trees one at a time: the
// subspace's columns gathered column-major, the subsample's membership mask,
// one index buffer holding the subsample in [0, psi) and the rows outside
// it in [psi, n), both partitioned in place down the tree, the sample
// values of the node's current column, and each index position's leaf path
// length. Holds no state shared between calls, so concurrent Score calls
// stay independent. `Ops` is `ScalarIForestOps` or `Avx512IForestOps`
// (simd.h).
template <class Ops>
class TreeKernel {
 public:
  TreeKernel(const Dataset& data, std::span<const FeatureId> features,
             int psi, int height_limit)
      : n_(static_cast<int>(data.num_points())),
        psi_(psi),
        num_columns_(features.size()),
        height_limit_(height_limit),
        columns_(static_cast<std::size_t>(n_) * num_columns_),
        taken_(n_),
        index_(n_),
        scratch_(n_),
        values_(psi),
        leaf_path_(n_),
        leaf_c_(psi + 1) {
    for (int p = 0; p < n_; ++p) {
      for (std::size_t j = 0; j < num_columns_; ++j) {
        columns_[j * n_ + p] = data.Value(p, features[j]);
      }
    }
    for (int size = 0; size <= psi; ++size) {
      leaf_c_[size] = IsolationForest::AveragePathLength(size);
    }
  }

  /// Grows one tree over a fresh psi-row subsample drawn from `rng` and adds
  /// every point's path length to `path_sum`. Each node sends the rows
  /// outside the subsample down the split it chose for the subsample, so
  /// every point reaches the leaf its walk of the finished tree would reach.
  /// Each leaf stores its `depth + c(size)` at its rows' index positions,
  /// and one pass then adds those to `path_sum`: one addition per point per
  /// tree, in tree order, as a per-leaf credit would make.
  void AddPathLengths(Rng& rng, double* path_sum) {
    rng.SampleMask(psi_, taken_);
    Ops::Split(taken_.data(), n_, index_.data(), index_.data() + psi_);
    Build(0, psi_, psi_, n_, 0, rng);
    Ops::Credit(index_.data(), n_, leaf_path_.data(), path_sum);
  }

 private:
  // Grows the subtree over the subsample's index_[begin, end) at depth
  // `height`, splitting until isolation or the height limit, and carries the
  // other rows' index_[rest_begin, rest_end) down the same splits.
  void Build(int begin, int end, int rest_begin, int rest_end, int height,
             Rng& rng) {
    int* sample = index_.data() + begin;
    int* rest = index_.data() + rest_begin;
    if (height < height_limit_ && end - begin > 1) {
      // Pick a column whose sample range is finite and not constant; give
      // up after a few tries (all-constant region -> leaf). A NaN or
      // infinite range cannot bound a uniform split. The range is seeded
      // from the first sample row, and the stable partitions keep which
      // row is first.
      for (int attempt = 0; attempt < 8; ++attempt) {
        const std::size_t j = rng.UniformIndex(num_columns_);
        const double* column = columns_.data() + j * n_;
        const auto [lo, hi] =
            Ops::ScanRange(column, sample, end - begin, values_.data());
        const double width = hi - lo;
        if (!(width >= 1e-12) || std::isinf(width)) continue;
        const double split = rng.Uniform(lo, hi);
        const int mid = begin + Ops::Partition(sample, end - begin,
                                               values_.data(), split,
                                               scratch_.data());
        if (mid == begin || mid == end) continue;
        const int rest_mid =
            rest_begin + Ops::PartitionGather(rest, rest_end - rest_begin,
                                              column, split, scratch_.data());
        Build(begin, mid, rest_begin, rest_mid, height + 1, rng);
        Build(mid, end, rest_mid, rest_end, height + 1, rng);
        return;
      }
    }
    const double path = static_cast<double>(height) + leaf_c_[end - begin];
    Ops::Fill(leaf_path_.data() + begin, end - begin, path);
    Ops::Fill(leaf_path_.data() + rest_begin, rest_end - rest_begin, path);
  }

  int n_;
  int psi_;
  std::size_t num_columns_;
  int height_limit_;
  std::vector<double> columns_;  // Column j of the subspace at [j * n_, ...).
  std::vector<unsigned char> taken_;  // The current tree's subsample mask.
  std::vector<int> index_;
  std::vector<int> scratch_;
  std::vector<double> values_;  // The node's sample values, in index order.
  std::vector<double> leaf_path_;  // Per index position, its leaf's path.
  std::vector<double> leaf_c_;  // c(size) for size in [0, psi].
};

template <class Ops>
std::vector<double> ScoreForest(const IsolationForest::Options& options,
                                const Dataset& data,
                                const Subspace& subspace) {
  const int n = static_cast<int>(data.num_points());
  SUBEX_CHECK(n >= 2);

  std::vector<FeatureId> full;
  const std::span<const FeatureId> features =
      ResolveFeatures(subspace, data.num_features(), full);

  const int psi = std::min(options.subsample_size, n);
  const int height_limit =
      static_cast<int>(std::ceil(std::log2(static_cast<double>(psi))));
  const double c_psi = IsolationForest::AveragePathLength(psi);
  TreeKernel<Ops> kernel(data, features, psi, height_limit);

  // Deterministic per-(seed, subspace) randomness so Score is pure.
  const std::uint64_t subspace_salt = SubspaceHash()(subspace);
  std::vector<double> mean_scores(n, 0.0);
  std::vector<double> path_sum(n);

  for (int rep = 0; rep < options.num_repetitions; ++rep) {
    Rng rng(options.seed ^ subspace_salt ^
            (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(rep + 1)));
    std::fill(path_sum.begin(), path_sum.end(), 0.0);
    for (int t = 0; t < options.num_trees; ++t) {
      kernel.AddPathLengths(rng, path_sum.data());
    }
    for (int p = 0; p < n; ++p) {
      const double mean_path = path_sum[p] / options.num_trees;
      mean_scores[p] += std::pow(2.0, -mean_path / c_psi);
    }
  }
  for (double& s : mean_scores) s /= options.num_repetitions;
  return mean_scores;
}

// {min, max} of values[0, count), count >= 1, in two accumulator pairs
// seeded from values[0] (an odd count starts past it). std::min/max keep
// their first argument when either is NaN, so only a NaN first value makes
// the range NaN.
std::pair<double, double> RangeOfValues(const double* values, int count) {
  const double first = values[0];
  double lo = first, hi = first, lo2 = first, hi2 = first;
  for (int i = count % 2; i < count; i += 2) {
    lo = std::min(lo, values[i]);
    hi = std::max(hi, values[i]);
    lo2 = std::min(lo2, values[i + 1]);
    hi2 = std::max(hi2, values[i + 1]);
  }
  return {std::min(lo, lo2), std::max(hi, hi2)};
}

// Stable partition of rows[0, count) by `value(i) < split`; see
// `ScalarIForestOps::Partition`.
template <class Value>
int StablePartition(int* rows, int count, Value value, double split,
                    int* scratch) {
  int mid = 0;
  int num_right = 0;
  for (int i = 0; i < count; ++i) {
    // Branch-free: write both slots, advance one (mid <= i, so the
    // in-place write never clobbers an unread row).
    const int p = rows[i];
    const bool below = value(i, p) < split;
    rows[mid] = p;
    scratch[num_right] = p;
    mid += below;
    num_right += !below;
  }
  std::copy_n(scratch, num_right, rows + mid);
  return mid;
}

}  // namespace

IsolationForest::IsolationForest(const Options& options) : options_(options) {
  SUBEX_CHECK(options.num_trees >= 1);
  SUBEX_CHECK(options.subsample_size >= 2);
  SUBEX_CHECK(options.num_repetitions >= 1);
}

double IsolationForest::AveragePathLength(int n) {
  if (n <= 1) return 0.0;
  if (n == 2) return 1.0;
  const double h = std::log(static_cast<double>(n - 1)) + 0.5772156649015329;
  return 2.0 * h - 2.0 * static_cast<double>(n - 1) / static_cast<double>(n);
}

int ScalarIForestOps::Split(const unsigned char* taken, int n, int* front,
                            int* back) {
  int num_front = 0;
  int num_back = 0;
  for (int p = 0; p < n; ++p) {
    // Branch-free: pick the slot, then advance its side.
    const bool in = taken[p] != 0;
    *(in ? front + num_front : back + num_back) = p;
    num_front += in;
    num_back += !in;
  }
  return num_front;
}

std::pair<double, double> ScalarIForestOps::ScanRange(const double* column,
                                                     const int* rows,
                                                     int count,
                                                     double* values) {
  for (int i = 0; i < count; ++i) values[i] = column[rows[i]];
  return RangeOfValues(values, count);
}

int ScalarIForestOps::Partition(int* rows, int count, const double* values,
                                double split, int* scratch) {
  return StablePartition(
      rows, count, [values](int i, int) { return values[i]; }, split,
      scratch);
}

int ScalarIForestOps::PartitionGather(int* rows, int count,
                                      const double* column, double split,
                                      int* scratch) {
  return StablePartition(
      rows, count, [column](int, int p) { return column[p]; }, split,
      scratch);
}

void ScalarIForestOps::Fill(double* paths, int count, double path) {
  std::fill_n(paths, count, path);
}

void ScalarIForestOps::Credit(const int* rows, int count,
                              const double* paths, double* path_sum) {
  for (int i = 0; i < count; ++i) path_sum[rows[i]] += paths[i];
}

#if SUBEX_HAVE_AVX512_KERNELS
namespace {

// Lanes [0, count) of an 8-lane mask, count <= 8.
SUBEX_AVX512_TARGET inline __mmask8 FirstLanes(int count) {
  return static_cast<__mmask8>((1u << count) - 1u);
}

// min_pd(a, b), or max_pd with kMax. (The masked forms, with every lane
// set, keep GCC 12's -Wuninitialized quiet about the unmasked forms'
// undefined pass-through operand.)
template <bool kMax>
SUBEX_AVX512_TARGET inline __m512d LaneStep(__m512d a, __m512d b) {
  return kMax ? _mm512_mask_max_pd(a, 0xff, a, b)
              : _mm512_mask_min_pd(a, 0xff, a, b);
}

// The least (kMax: greatest) lane of `v`. Lanes that compare equal may
// come back in either's bits.
template <bool kMax>
SUBEX_AVX512_TARGET inline double ReduceLanes(__m512d v) {
  v = LaneStep<kMax>(v, _mm512_mask_shuffle_f64x2(v, 0xff, v, v, 0x4e));
  v = LaneStep<kMax>(v, _mm512_mask_shuffle_f64x2(v, 0xff, v, v, 0xb1));
  v = LaneStep<kMax>(v, _mm512_mask_permute_pd(v, 0xff, v, 0x55));
  return _mm512_cvtsd_f64(v);
}

// Which lanes `m` of the rows `idx`, loaded from positions [i, i + 8), have
// a value below `split`: lane l's value is `source[i + l]` or, with
// `gather`, `source[idx[l]]`.
SUBEX_AVX512_TARGET inline __mmask8 BelowLanes(__m256i idx, int i,
                                               __mmask8 m,
                                               const double* source,
                                               bool gather, __m512d split) {
  const __m512d v =
      gather ? _mm512_mask_i32gather_pd(_mm512_setzero_pd(), m, idx, source,
                                        8)
             : _mm512_maskz_loadu_pd(m, source + i);
  return _mm512_mask_cmp_pd_mask(m, v, split, _CMP_LT_OQ);
}

// Stable partition of rows[0, count) by value < split (see BelowLanes). A
// node of at most 8 rows is one register: its below lanes are compressed
// onto the front and its other lanes expanded behind them, in one store.
// Otherwise, per 8 rows, the rows below `split` are compressed (in lane
// order) onto the front and the rest onto `scratch`, which a masked copy
// moves behind the front at the end.
SUBEX_AVX512_TARGET inline int PartitionLanes(int* rows, int count,
                                              const double* source,
                                              bool gather, double split,
                                              int* scratch) {
  const __m512d split_v = _mm512_set1_pd(split);
  if (count <= 8) {
    const __mmask8 m = FirstLanes(count);
    const __m256i idx = _mm256_maskz_loadu_epi32(m, rows);
    const __mmask8 below = BelowLanes(idx, 0, m, source, gather, split_v);
    const __mmask8 above = m & static_cast<__mmask8>(~below);
    const int num_below = __builtin_popcount(below);
    const __m256i front = _mm256_maskz_compress_epi32(below, idx);
    _mm256_mask_storeu_epi32(
        rows, m,
        _mm256_mask_expand_epi32(
            front, m & static_cast<__mmask8>(~FirstLanes(num_below)),
            _mm256_maskz_compress_epi32(above, idx)));
    return num_below;
  }
  int mid = 0;
  int num_right = 0;
  for (int i = 0; i < count; i += 8) {
    const __mmask8 m = FirstLanes(std::min(count - i, 8));
    const __m256i idx = _mm256_maskz_loadu_epi32(m, rows + i);
    const __mmask8 below = BelowLanes(idx, i, m, source, gather, split_v);
    const __mmask8 above = m & static_cast<__mmask8>(~below);
    const int num_below = __builtin_popcount(below);
    const int num_above = __builtin_popcount(above);
    // mid <= i, and lanes [i, i + 8) are already loaded.
    _mm256_mask_storeu_epi32(rows + mid, FirstLanes(num_below),
                             _mm256_maskz_compress_epi32(below, idx));
    _mm256_mask_storeu_epi32(scratch + num_right, FirstLanes(num_above),
                             _mm256_maskz_compress_epi32(above, idx));
    mid += num_below;
    num_right += num_above;
  }
  for (int i = 0; i < num_right; i += 8) {
    const __mmask8 m = FirstLanes(std::min(num_right - i, 8));
    _mm256_mask_storeu_epi32(rows + mid + i, m,
                             _mm256_maskz_loadu_epi32(m, scratch + i));
  }
  return mid;
}

}  // namespace

SUBEX_AVX512_TARGET int Avx512IForestOps::Split(const unsigned char* taken,
                                                int n, int* front,
                                                int* back) {
  // Per 16 mask bytes, widened to 32-bit lanes (AVX-512F has no masked byte
  // load, so a short tail is copied into a zeroed block first), the taken
  // rows' ids are compressed onto `front` and the others onto `back`. The
  // widening is the maskz form for the reason LaneStep gives.
  const __m512i step = _mm512_set1_epi32(16);
  __m512i ids = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                  13, 14, 15);
  alignas(16) unsigned char tail[16] = {};
  int num_front = 0;
  int num_back = 0;
  for (int p = 0; p < n; p += 16) {
    const int count = std::min(n - p, 16);
    const unsigned char* block = taken + p;
    if (count < 16) {
      std::memcpy(tail, block, count);
      block = tail;
    }
    const __m128i bytes =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(block));
    const __mmask16 valid = static_cast<__mmask16>((1u << count) - 1u);
    const __m512i flags = _mm512_maskz_cvtepu8_epi32(0xffff, bytes);
    const __mmask16 in = _mm512_test_epi32_mask(flags, flags);
    const __mmask16 out = valid & static_cast<__mmask16>(~in);
    const int num_in = __builtin_popcount(in);
    const int num_out = __builtin_popcount(out);
    _mm512_mask_storeu_epi32(front + num_front,
                             static_cast<__mmask16>((1u << num_in) - 1u),
                             _mm512_maskz_compress_epi32(in, ids));
    _mm512_mask_storeu_epi32(back + num_back,
                             static_cast<__mmask16>((1u << num_out) - 1u),
                             _mm512_maskz_compress_epi32(out, ids));
    num_front += num_in;
    num_back += num_out;
    ids = _mm512_add_epi32(ids, step);
  }
  return num_front;
}

SUBEX_AVX512_TARGET std::pair<double, double> Avx512IForestOps::ScanRange(
    const double* column, const int* rows, int count, double* values) {
  // _mm512_mask_min_pd(acc, m, v, acc) is `v < acc ? v : acc`, that is
  // std::min(acc, v) operand for operand (max likewise), so a lane seeded
  // from a NaN first value stays NaN and a lane seeded from a number
  // ignores NaNs, as the scalar pairs do. Any two results that compare
  // equal then have the same bits, except +0 and -0: a zero bound is
  // recomputed by the scalar accumulation order.
  const __m512d first = _mm512_set1_pd(column[rows[0]]);
  __m512d lo = first;
  __m512d hi = first;
  for (int i = 0; i < count; i += 8) {
    const __mmask8 m = FirstLanes(std::min(count - i, 8));
    const __m256i idx = _mm256_maskz_loadu_epi32(m, rows + i);
    const __m512d v =
        _mm512_mask_i32gather_pd(_mm512_setzero_pd(), m, idx, column, 8);
    _mm512_mask_storeu_pd(values + i, m, v);
    lo = _mm512_mask_min_pd(lo, m, v, lo);
    hi = _mm512_mask_max_pd(hi, m, v, hi);
  }
  const double min = ReduceLanes<false>(lo);
  const double max = ReduceLanes<true>(hi);
  if (min == 0.0 || max == 0.0) return RangeOfValues(values, count);
  return {min, max};
}

SUBEX_AVX512_TARGET int Avx512IForestOps::Partition(int* rows, int count,
                                                    const double* values,
                                                    double split,
                                                    int* scratch) {
  return PartitionLanes(rows, count, values, false, split, scratch);
}

SUBEX_AVX512_TARGET int Avx512IForestOps::PartitionGather(
    int* rows, int count, const double* column, double split, int* scratch) {
  return PartitionLanes(rows, count, column, true, split, scratch);
}

SUBEX_AVX512_TARGET void Avx512IForestOps::Fill(double* paths, int count,
                                                double path) {
  const __m512d path_v = _mm512_set1_pd(path);
  for (int i = 0; i < count; i += 8) {
    _mm512_mask_storeu_pd(paths + i, FirstLanes(std::min(count - i, 8)),
                          path_v);
  }
}

SUBEX_AVX512_TARGET void Avx512IForestOps::Credit(const int* rows, int count,
                                                  const double* paths,
                                                  double* path_sum) {
  for (int i = 0; i < count; i += 8) {
    const __mmask8 m = FirstLanes(std::min(count - i, 8));
    const __m256i idx = _mm256_maskz_loadu_epi32(m, rows + i);
    const __m512d sum =
        _mm512_mask_i32gather_pd(_mm512_setzero_pd(), m, idx, path_sum, 8);
    const __m512d path = _mm512_maskz_loadu_pd(m, paths + i);
    _mm512_mask_i32scatter_pd(path_sum, m, idx, _mm512_add_pd(sum, path), 8);
  }
}

#endif  // SUBEX_HAVE_AVX512_KERNELS

std::vector<double> IsolationForestScores(
    const IsolationForest::Options& options, const Dataset& data,
    const Subspace& subspace, KernelPath path) {
#if SUBEX_HAVE_AVX512_KERNELS
  if (path == KernelPath::kAvx512) {
    return ScoreForest<Avx512IForestOps>(options, data, subspace);
  }
#else
  (void)path;
#endif
  return ScoreForest<ScalarIForestOps>(options, data, subspace);
}

std::vector<double> IsolationForest::Score(const Dataset& data,
                                           const Subspace& subspace) const {
  return IsolationForestScores(options_, data, subspace, ActiveKernelPath());
}

}  // namespace subex
