#ifndef SUBEX_DETECT_LODA_H_
#define SUBEX_DETECT_LODA_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "detect/detector.h"

namespace subex {

/// LODA — Lightweight On-line Detector of Anomalies [Pevny, Machine
/// Learning 2015].
///
/// An ensemble of one-dimensional histograms over sparse random
/// projections: each projector uses ~sqrt(|subspace|) random features with
/// Gaussian weights, the projected values are binned into an equal-width
/// histogram, and a point's outlyingness is the negative mean log density
/// across projectors (higher = more outlying).
///
/// The paper's §6 names LODA as the natural candidate for extending the
/// testbed toward stream processing; this batch implementation slots into
/// the same `Detector` interface, so every explainer can be paired with it
/// out of the box. Deterministic per (seed, subspace), like the forest.
///
/// The kernel parts below — `DrawProjectors`, `Projector::Project`,
/// `NumBins`, `Range` and `Histogram` — are the only LODA arithmetic in the
/// tree: `Score` runs them over an in-RAM column, `ScoreLodaChunked` over
/// streamed chunks and `IncrementalLodaScorer` over a sliding window, so
/// the three paths agree bit for bit.
class Loda final : public Detector {
 public:
  struct Options {
    int num_projections = 100;
    /// 0 = automatic (2 * n^(1/3)) bins per histogram.
    int num_bins = 0;
    std::uint64_t seed = 42;
  };

  /// One sparse projector: entry `j` adds `weights[j]` times the point's
  /// value of `features[j]`.
  struct Projector {
    std::vector<FeatureId> features;
    std::vector<double> weights;

    /// A point's projected value; `value(j)` returns its value of
    /// `features[j]` (from a `Dataset` row, a `Matrix` row or a pinned
    /// chunk). Sums in `j` order, the one order every path uses.
    template <typename ValueOf>
    double Project(ValueOf&& value) const {
      double v = 0.0;
      for (std::size_t j = 0; j < weights.size(); ++j) {
        v += weights[j] * value(j);
      }
      return v;
    }
  };

  /// The range of one projector's values. NaN is ignored: `std::min` and
  /// `std::max` keep their first argument when a comparison is false.
  struct Range {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();

    void Fold(double v) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    bool operator==(const Range&) const = default;
  };

  /// One projector's equal-width histogram over a `Range`, and the
  /// Laplace-smoothed density term read from it.
  ///
  /// `Bin` maps every double into `[0, bins)`, NaN to the last bin, so
  /// `Add` and `Remove` never leave the counts. A projector whose density
  /// denominator `(n + bins) * width` is not finite — its range holds ±Inf,
  /// `hi - lo` overflows, or the width is so large that the product does —
  /// has no finite density: `finite(n)` is false and it adds nothing to
  /// any point's score.
  class Histogram {
   public:
    Histogram() = default;
    /// Empty counts of `bins` bins spanning `range`.
    Histogram(const Range& range, int bins);

    bool finite(int n) const { return std::isfinite((n + bins_) * width_); }
    int Bin(double v) const {
      return static_cast<int>(
          std::max(0.0, std::min(last_bin_, (v - lo_) / width_)));
    }
    void Add(double v) { ++counts_[static_cast<std::size_t>(Bin(v))]; }
    void Remove(double v) { --counts_[static_cast<std::size_t>(Bin(v))]; }
    /// log of the smoothed density of `v`'s bin among `n` points:
    /// (count + 1) / ((n + bins) * width), finite for empty bins too.
    double LogDensity(double v, int n) const {
      return std::log((counts_[static_cast<std::size_t>(Bin(v))] + 1.0) /
                      ((n + bins_) * width_));
    }

   private:
    double lo_ = 0.0;
    double width_ = 0.0;
    double last_bin_ = 0.0;
    int bins_ = 0;
    std::vector<int> counts_;
  };

  /// Builds the detector with the given options.
  explicit Loda(const Options& options);
  /// Builds the detector with the defaults of the LODA paper.
  Loda() : Loda(Options{}) {}

  std::string name() const override { return "LODA"; }
  std::vector<double> Score(const Dataset& data,
                            const Subspace& subspace) const override;

  const Options& options() const { return options_; }

  /// The projectors of `subspace` (empty = all `num_features` features),
  /// drawn from `Rng(seed ^ SubspaceHash()(subspace))`: per projector the
  /// feature sample, then its Gaussian weights.
  std::vector<Projector> DrawProjectors(const Subspace& subspace,
                                        std::size_t num_features) const;

  /// Bins per histogram for `n` points.
  int NumBins(int n) const;

 private:
  Options options_;
};

}  // namespace subex

#endif  // SUBEX_DETECT_LODA_H_
