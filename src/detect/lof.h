#ifndef SUBEX_DETECT_LOF_H_
#define SUBEX_DETECT_LOF_H_

#include "detect/detector.h"

namespace subex {

/// Floor of LOF's mean reachability distance. Duplicate-heavy data can make
/// the mean zero; the floor keeps lrd finite and preserves ordering. Shared
/// by `Lof::Score` and the chunked `ScoreLofChunked`, which must match it
/// bit for bit.
inline constexpr double kLofEpsilon = 1e-10;

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
