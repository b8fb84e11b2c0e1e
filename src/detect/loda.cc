#include "detect/loda.h"

#include <cmath>

#include "common/check.h"
#include "common/rng.h"

namespace subex {

Loda::Histogram::Histogram(const Range& range, int bins)
    : lo_(range.lo),
      width_(std::max((range.hi - range.lo) / bins, 1e-12)),
      last_bin_(bins - 1.0),
      bins_(bins),
      counts_(static_cast<std::size_t>(bins), 0) {}

Loda::Loda(const Options& options) : options_(options) {
  SUBEX_CHECK(options.num_projections >= 1);
  SUBEX_CHECK(options.num_bins >= 0);
}

std::vector<Loda::Projector> Loda::DrawProjectors(
    const Subspace& subspace, std::size_t num_features) const {
  std::vector<FeatureId> full;
  const std::span<const FeatureId> features =
      ResolveFeatures(subspace, num_features, full);
  const int dim = static_cast<int>(features.size());
  const int sparse_count =
      std::max(1, static_cast<int>(std::lround(std::sqrt(dim))));

  Rng rng(options_.seed ^ SubspaceHash()(subspace));
  std::vector<Projector> projectors(
      static_cast<std::size_t>(options_.num_projections));
  for (Projector& proj : projectors) {
    for (int a : rng.SampleWithoutReplacement(dim, sparse_count)) {
      proj.features.push_back(features[static_cast<std::size_t>(a)]);
    }
    proj.weights.resize(proj.features.size());
    for (double& w : proj.weights) w = rng.Gaussian();
  }
  return projectors;
}

int Loda::NumBins(int n) const {
  return options_.num_bins > 0
             ? options_.num_bins
             : std::max(4, static_cast<int>(2.0 * std::cbrt(n)));
}

std::vector<double> Loda::Score(const Dataset& data,
                                const Subspace& subspace) const {
  const int n = static_cast<int>(data.num_points());
  SUBEX_CHECK(n >= 3);
  const int bins = NumBins(n);

  std::vector<double> neg_log_density_sum(n, 0.0);
  std::vector<double> projected(n);
  for (const Projector& proj :
       DrawProjectors(subspace, data.num_features())) {
    Range range;
    for (int p = 0; p < n; ++p) {
      projected[p] = proj.Project(
          [&](std::size_t j) { return data.Value(p, proj.features[j]); });
      range.Fold(projected[p]);
    }
    Histogram histogram(range, bins);
    if (!histogram.finite(n)) continue;
    for (double v : projected) histogram.Add(v);
    for (int p = 0; p < n; ++p) {
      neg_log_density_sum[p] -= histogram.LogDensity(projected[p], n);
    }
  }
  for (double& s : neg_log_density_sum) s /= options_.num_projections;
  return neg_log_density_sum;
}

}  // namespace subex
