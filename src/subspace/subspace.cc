#include "subspace/subspace.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace subex {

Subspace::Subspace(std::vector<FeatureId> features)
    : features_(std::move(features)) {
  std::sort(features_.begin(), features_.end());
  features_.erase(std::unique(features_.begin(), features_.end()),
                  features_.end());
  SUBEX_CHECK_MSG(features_.empty() || features_.front() >= 0,
                  "negative feature id");
}

Subspace::Subspace(std::initializer_list<FeatureId> features)
    : Subspace(std::vector<FeatureId>(features)) {}

bool Subspace::Contains(FeatureId f) const {
  return std::binary_search(features_.begin(), features_.end(), f);
}

bool Subspace::ContainsAll(const Subspace& other) const {
  return std::includes(features_.begin(), features_.end(),
                       other.features_.begin(), other.features_.end());
}

Subspace Subspace::With(FeatureId f) const {
  std::vector<FeatureId> merged = features_;
  merged.push_back(f);
  return Subspace(std::move(merged));
}

Subspace Subspace::Union(const Subspace& other) const {
  std::vector<FeatureId> merged;
  merged.reserve(features_.size() + other.features_.size());
  std::merge(features_.begin(), features_.end(), other.features_.begin(),
             other.features_.end(), std::back_inserter(merged));
  return Subspace(std::move(merged));
}

std::string Subspace::ToString() const {
  std::string out = "{";
  for (std::size_t i = 0; i < features_.size(); ++i) {
    if (i > 0) out += ",";
    out += "f" + std::to_string(features_[i]);
  }
  out += "}";
  return out;
}

std::span<const FeatureId> ResolveFeatures(const Subspace& subspace,
                                           std::size_t num_features,
                                           std::vector<FeatureId>& scratch) {
  if (!subspace.empty()) return subspace.AsSpan();
  scratch.resize(num_features);
  std::iota(scratch.begin(), scratch.end(), 0);
  return scratch;
}

std::size_t SubspaceHash::operator()(const Subspace& s) const {
  // FNV-1a over the feature ids.
  std::size_t h = 1469598103934665603ull;
  for (FeatureId f : s.features()) {
    h ^= static_cast<std::size_t>(f);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace subex
