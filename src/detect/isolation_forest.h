#ifndef SUBEX_DETECT_ISOLATION_FOREST_H_
#define SUBEX_DETECT_ISOLATION_FOREST_H_

#include <cstdint>

#include "detect/detector.h"

namespace subex {

/// Isolation Forest [Liu, Ting & Zhou, ICDM 2008].
///
/// Isolation-based detector: builds `num_trees` random binary trees on
/// subsamples of the data (uniform feature, uniform split value) and scores
/// each point by its average path length, normalized to
/// `s(x) = 2^(-E(h(x)) / c(subsample))` so outliers approach 1 and inliers
/// fall below 0.5. Following §3.1 the detector averages the score over
/// `num_repetitions` independent forests to reduce variance.
///
/// Scoring is deterministic: the forest seeds derive from the constructor
/// seed and the queried subspace, so repeated calls (possibly from multiple
/// threads) agree.
///
/// Each `Score` call gathers the subspace's columns once and grows every
/// tree by stable in-place partitioning of the subsample's index buffer;
/// each accepted split also partitions the rows outside the subsample, so
/// every point ends in the leaf its walk would reach and no tree is stored
/// or walked. Each leaf stores its `depth + c(size)` at its rows' index
/// positions, and one pass per tree adds them to the points' sums. All
/// scratch is local to the call. The tree loops run in AVX-512 on hosts
/// that have it (detect/simd.h), with the same score bits.
class IsolationForest final : public Detector {
 public:
  struct Options {
    int num_trees = 100;      ///< t in the original paper.
    int subsample_size = 256; ///< psi; clamped to the dataset size.
    int num_repetitions = 10; ///< Independent forests averaged (§3.1).
    std::uint64_t seed = 42;
  };

  /// Builds a forest detector with the given options.
  explicit IsolationForest(const Options& options);
  /// Builds a forest detector with the §3.1 defaults.
  IsolationForest() : IsolationForest(Options{}) {}

  std::string name() const override { return "iForest"; }
  std::vector<double> Score(const Dataset& data,
                            const Subspace& subspace) const override;

  const Options& options() const { return options_; }

  /// Average path length of an unsuccessful BST search in a tree of `n`
  /// points: c(n) = 2 H(n-1) - 2 (n-1)/n, with c(1) = 0. Exposed for tests.
  static double AveragePathLength(int n);

 private:
  Options options_;
};

}  // namespace subex

#endif  // SUBEX_DETECT_ISOLATION_FOREST_H_
