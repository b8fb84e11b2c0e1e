#include "detect/isolation_forest.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "common/rng.h"

namespace subex {
namespace {

// One node of an isolation tree, stored in a flat vector. An inner node
// sends a point left when its value in block column `column` is below
// `value`; a leaf (`column` = -1) holds its path length depth + c(size).
struct Node {
  int column = -1;
  int left = -1;
  int right = -1;
  double value = 0.0;
};

// Per-call scratch for growing isolation trees one at a time: the
// subspace's columns gathered column-major, one index buffer partitioned in
// place, and a node vector reused across trees. Holds no state shared
// between calls, so concurrent Score calls stay independent.
class TreeKernel {
 public:
  TreeKernel(const Dataset& data, std::span<const FeatureId> features,
             int psi, int height_limit)
      : n_(data.num_points()),
        num_columns_(features.size()),
        height_limit_(height_limit),
        columns_(n_ * num_columns_),
        index_(psi),
        scratch_(psi),
        leaf_c_(psi + 1) {
    for (std::size_t p = 0; p < n_; ++p) {
      for (std::size_t j = 0; j < num_columns_; ++j) {
        columns_[j * n_ + p] = data.Value(p, features[j]);
      }
    }
    for (int size = 0; size <= psi; ++size) {
      leaf_c_[size] = IsolationForest::AveragePathLength(size);
    }
    nodes_.reserve(2 * static_cast<std::size_t>(psi));
  }

  /// Grows one tree over the ascending rows `sample` and adds every point's
  /// path length to `path_sum`. A sampled point would walk exactly the
  /// comparisons that partitioned it, so it is credited as its leaf is
  /// built; only the points outside the sample walk the finished tree.
  void AddPathLengths(const std::vector<int>& sample, Rng& rng,
                      std::vector<double>& path_sum) {
    nodes_.clear();
    std::copy(sample.begin(), sample.end(), index_.begin());
    Build(0, static_cast<int>(sample.size()), 0, rng, path_sum.data());
    auto next = sample.begin();
    for (int p = 0; p < static_cast<int>(n_); ++p) {
      if (next != sample.end() && *next == p) {
        ++next;
      } else {
        path_sum[p] += PathLength(p);
      }
    }
  }

 private:
  const double* Column(int j) const {
    return columns_.data() + static_cast<std::size_t>(j) * n_;
  }

  double PathLength(int p) const {
    const Node* node = &nodes_[0];
    while (node->column >= 0) {
      node = &nodes_[Column(node->column)[p] < node->value ? node->left
                                                           : node->right];
    }
    return node->value;
  }

  // Grows the subtree over index_[begin, end) at depth `height`, splitting
  // until isolation or the height limit; returns its node id.
  int Build(int begin, int end, int height, Rng& rng, double* path_sum) {
    const int id = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    if (height < height_limit_ && end - begin > 1) {
      // Pick a column that still varies within the sample; give up after a
      // few tries (all-constant region -> leaf).
      for (int attempt = 0; attempt < 8; ++attempt) {
        const int j = static_cast<int>(rng.UniformIndex(num_columns_));
        const double* column = Column(j);
        double lo = column[index_[begin]];
        double hi = lo;
        for (int i = begin; i < end; ++i) {
          lo = std::min(lo, column[index_[i]]);
          hi = std::max(hi, column[index_[i]]);
        }
        if (hi - lo < 1e-12) continue;
        const double split = rng.Uniform(lo, hi);
        const int mid = Partition(begin, end, column, split);
        if (mid == begin || mid == end) continue;
        const int left = Build(begin, mid, height + 1, rng, path_sum);
        const int right = Build(mid, end, height + 1, rng, path_sum);
        nodes_[id] = {j, left, right, split};
        return id;
      }
    }
    const double path = static_cast<double>(height) + leaf_c_[end - begin];
    nodes_[id].value = path;
    for (int i = begin; i < end; ++i) path_sum[index_[i]] += path;
    return id;
  }

  // Stable partition of index_[begin, end): rows below `split` first, then
  // the rest, each side in its prior order (lo/hi above are seeded from the
  // first row, which decides the range when it is NaN). Returns the
  // boundary.
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

  std::size_t n_;
  std::size_t num_columns_;
  int height_limit_;
  std::vector<double> columns_;  // Column j of the subspace at [j * n_, ...).
  std::vector<int> index_;
  std::vector<int> scratch_;
  std::vector<double> leaf_c_;  // c(size) for size in [0, psi].
  std::vector<Node> nodes_;
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
      kernel.AddPathLengths(rng.SampleWithoutReplacement(n, psi), rng,
                            path_sum);
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
