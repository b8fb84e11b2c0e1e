#include "detect/isolation_forest.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "common/rng.h"

namespace subex {
namespace {

// Per-call scratch for growing isolation trees one at a time: the
// subspace's columns gathered column-major, the subsample's membership mask,
// and one index buffer holding the subsample in [0, psi) and the rows
// outside it in [psi, n), both partitioned in place down the tree. Holds no
// state shared between calls, so concurrent Score calls stay independent.
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
  /// every point reaches the leaf its walk of the finished tree would reach
  /// and is credited there with that leaf's `depth + c(size)`.
  void AddPathLengths(Rng& rng, double* path_sum) {
    rng.SampleMask(psi_, taken_);
    int next_sampled = 0;
    int next_rest = psi_;
    for (int p = 0; p < n_; ++p) {
      index_[taken_[p] ? next_sampled++ : next_rest++] = p;
    }
    Build(0, psi_, psi_, n_, 0, rng, path_sum);
  }

 private:
  // Grows the subtree over the subsample's index_[begin, end) at depth
  // `height`, splitting until isolation or the height limit, and carries the
  // other rows' index_[rest_begin, rest_end) down the same splits.
  void Build(int begin, int end, int rest_begin, int rest_end, int height,
             Rng& rng, double* path_sum) {
    if (height < height_limit_ && end - begin > 1) {
      // Pick a column whose sample range is finite and not constant; give
      // up after a few tries (all-constant region -> leaf). A NaN or
      // infinite range cannot bound a uniform split.
      for (int attempt = 0; attempt < 8; ++attempt) {
        const std::size_t j = rng.UniformIndex(num_columns_);
        const double* column = columns_.data() + j * n_;
        const auto [lo, hi] = SampleRange(column, begin, end);
        const double width = hi - lo;
        if (!(width >= 1e-12) || std::isinf(width)) continue;
        const double split = rng.Uniform(lo, hi);
        const int mid = Partition(begin, end, column, split);
        if (mid == begin || mid == end) continue;
        const int rest_mid = Partition(rest_begin, rest_end, column, split);
        Build(begin, mid, rest_begin, rest_mid, height + 1, rng, path_sum);
        Build(mid, end, rest_mid, rest_end, height + 1, rng, path_sum);
        return;
      }
    }
    const double path = static_cast<double>(height) + leaf_c_[end - begin];
    for (int i = begin; i < end; ++i) path_sum[index_[i]] += path;
    for (int i = rest_begin; i < rest_end; ++i) path_sum[index_[i]] += path;
  }

  // {min, max} of `column` over index_[begin, end), begin < end, in two
  // accumulator pairs seeded from the first row (an odd count starts past
  // it). std::min/max keep their first argument when either is NaN, so only
  // a NaN first row makes the range NaN; the stable partition keeps which
  // row is first.
  std::pair<double, double> SampleRange(const double* column, int begin,
                                        int end) const {
    const double first = column[index_[begin]];
    double lo = first, hi = first, lo2 = first, hi2 = first;
    for (int i = begin + (end - begin) % 2; i < end; i += 2) {
      lo = std::min(lo, column[index_[i]]);
      hi = std::max(hi, column[index_[i]]);
      lo2 = std::min(lo2, column[index_[i + 1]]);
      hi2 = std::max(hi2, column[index_[i + 1]]);
    }
    return {std::min(lo, lo2), std::max(hi, hi2)};
  }

  // Stable partition of index_[begin, end): rows below `split` first, then
  // the rest, each side in its prior order. Returns the boundary.
  int Partition(int begin, int end, const double* column, double split) {
    int mid = begin;
    int num_right = 0;
    for (int i = begin; i < end; ++i) {
      // Branch-free: write both slots, advance one (mid <= i, so the
      // in-place write never clobbers an unread row).
      const int p = index_[i];
      const bool below = column[p] < split;
      index_[mid] = p;
      scratch_[num_right] = p;
      mid += below;
      num_right += !below;
    }
    std::copy_n(scratch_.begin(), num_right, index_.begin() + mid);
    return mid;
  }

  int n_;
  int psi_;
  std::size_t num_columns_;
  int height_limit_;
  std::vector<double> columns_;  // Column j of the subspace at [j * n_, ...).
  std::vector<unsigned char> taken_;  // The current tree's subsample mask.
  std::vector<int> index_;
  std::vector<int> scratch_;
  std::vector<double> leaf_c_;  // c(size) for size in [0, psi].
};

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

std::vector<double> IsolationForest::Score(const Dataset& data,
                                           const Subspace& subspace) const {
  const int n = static_cast<int>(data.num_points());
  SUBEX_CHECK(n >= 2);

  std::vector<FeatureId> full;
  std::span<const FeatureId> features = subspace.AsSpan();
  if (subspace.empty()) {
    full.resize(data.num_features());
    std::iota(full.begin(), full.end(), 0);
    features = full;
  }

  const int psi = std::min(options_.subsample_size, n);
  const int height_limit =
      static_cast<int>(std::ceil(std::log2(static_cast<double>(psi))));
  const double c_psi = AveragePathLength(psi);
  TreeKernel kernel(data, features, psi, height_limit);

  // Deterministic per-(seed, subspace) randomness so Score is pure.
  const std::uint64_t subspace_salt = SubspaceHash()(subspace);
  std::vector<double> mean_scores(n, 0.0);
  std::vector<double> path_sum(n);

  for (int rep = 0; rep < options_.num_repetitions; ++rep) {
    Rng rng(options_.seed ^ subspace_salt ^
            (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(rep + 1)));
    std::fill(path_sum.begin(), path_sum.end(), 0.0);
    for (int t = 0; t < options_.num_trees; ++t) {
      kernel.AddPathLengths(rng, path_sum.data());
    }
    for (int p = 0; p < n; ++p) {
      const double mean_path = path_sum[p] / options_.num_trees;
      mean_scores[p] += std::pow(2.0, -mean_path / c_psi);
    }
  }
  for (double& s : mean_scores) s /= options_.num_repetitions;
  return mean_scores;
}

}  // namespace subex
