#ifndef SUBEX_SUBSPACE_SUBSPACE_H_
#define SUBEX_SUBSPACE_SUBSPACE_H_

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace subex {

/// Feature identifier: the column index of a feature in a `Dataset`.
using FeatureId = int;

/// A feature subspace: an immutable, canonical (sorted, duplicate-free) set
/// of feature ids.
///
/// Subspaces are the currency of every explanation algorithm — explainers
/// enumerate them, detectors score points inside them, and ground truth maps
/// outliers to the subspaces that explain them. Canonical ordering makes
/// equality, hashing and containment cheap and deterministic.
class Subspace {
 public:
  /// The empty subspace (used by detectors to mean "all features").
  Subspace() = default;

  /// Builds a subspace from arbitrary feature ids; duplicates are removed
  /// and the ids are sorted.
  explicit Subspace(std::vector<FeatureId> features);

  /// Convenience literal form: `Subspace({0, 3, 7})`.
  Subspace(std::initializer_list<FeatureId> features);

  /// Number of features (the subspace "dimensionality").
  std::size_t size() const { return features_.size(); }
  /// True for the empty subspace.
  bool empty() const { return features_.empty(); }

  /// Sorted feature ids.
  const std::vector<FeatureId>& features() const { return features_; }
  /// Span view of the sorted feature ids (what detectors consume).
  std::span<const FeatureId> AsSpan() const { return features_; }

  /// True if `f` is a member.
  bool Contains(FeatureId f) const;
  /// True if every feature of `other` is a member (subset test).
  bool ContainsAll(const Subspace& other) const;

  /// Union of this subspace with a single extra feature.
  Subspace With(FeatureId f) const;
  /// Union with another subspace.
  Subspace Union(const Subspace& other) const;

  /// Renders as "{f0,f3,f7}" for reports and test diagnostics.
  std::string ToString() const;

  friend bool operator==(const Subspace& a, const Subspace& b) {
    return a.features_ == b.features_;
  }
  friend bool operator<(const Subspace& a, const Subspace& b) {
    return a.features_ < b.features_;
  }

 private:
  std::vector<FeatureId> features_;
};

/// The features a detector scores `subspace` on: its own, or every feature
/// of a `num_features`-wide dataset when it is empty (the full space). The
/// span views `subspace` itself when it is non-empty, so that case
/// allocates nothing; otherwise it views `scratch`, filled with
/// 0 .. num_features - 1.
std::span<const FeatureId> ResolveFeatures(const Subspace& subspace,
                                           std::size_t num_features,
                                           std::vector<FeatureId>& scratch);

/// Hash functor so subspaces can key `std::unordered_{set,map}`.
struct SubspaceHash {
  std::size_t operator()(const Subspace& s) const;
};

}  // namespace subex

#endif  // SUBEX_SUBSPACE_SUBSPACE_H_
