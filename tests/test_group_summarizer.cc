#include "explain/group_summarizer.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "data/generators.h"
#include "detect/lof.h"
#include "explain/beam.h"

namespace subex {
namespace {

SyntheticDataset TwoSubspaceData() {
  HicsGeneratorConfig config;
  config.num_points = 300;
  config.subspace_dims = {2, 2};
  config.seed = 57;
  return GenerateHicsDataset(config);
}

Beam SmallBeam() {
  Beam::Options options;
  options.beam_width = 10;
  return Beam(options);
}

TEST(GroupSummarizerTest, RecoversPlantedGroupStructure) {
  const SyntheticDataset d = TwoSubspaceData();
  const Lof lof(15);
  const Beam beam = SmallBeam();
  const std::vector<OutlierGroup> groups = GroupAndCharacterize(
      d.dataset, lof, beam, d.dataset.outlier_indices(), 2);

  // Two planted subspaces with 5 outliers each -> expect 2 groups whose
  // top characterizing subspace is the planted one.
  ASSERT_EQ(groups.size(), 2u);
  for (const OutlierGroup& group : groups) {
    EXPECT_EQ(group.points.size(), 5u);
    ASSERT_FALSE(group.characterizing_subspaces.empty());
    const Subspace& top = group.characterizing_subspaces.front();
    EXPECT_NE(std::find(d.relevant_subspaces.begin(),
                        d.relevant_subspaces.end(), top),
              d.relevant_subspaces.end())
        << "characterizing subspace " << top.ToString() << " not planted";
    // Every member's ground truth matches the group's characterization.
    for (int p : group.points) {
      EXPECT_EQ(d.ground_truth.RelevantFor(p).front(), top);
    }
  }
  // The two groups characterize different subspaces.
  EXPECT_NE(groups[0].characterizing_subspaces.front(),
            groups[1].characterizing_subspaces.front());
}

TEST(GroupSummarizerTest, GroupsPartitionThePointSet) {
  const SyntheticDataset d = TwoSubspaceData();
  const Lof lof(15);
  const Beam beam = SmallBeam();
  const std::vector<OutlierGroup> groups = GroupAndCharacterize(
      d.dataset, lof, beam, d.dataset.outlier_indices(), 2);
  std::vector<int> all;
  for (const OutlierGroup& g : groups) {
    all.insert(all.end(), g.points.begin(), g.points.end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, d.dataset.outlier_indices());
}

TEST(GroupSummarizerTest, HighJaccardThresholdSplitsGroups) {
  const SyntheticDataset d = TwoSubspaceData();
  const Lof lof(15);
  const Beam beam = SmallBeam();
  GroupSummarizerOptions options;
  options.min_similarity = 0.99;     // Near-identical fingerprints only.
  options.subspaces_per_point = 5;   // Longer fingerprints rarely match.
  const std::vector<OutlierGroup> strict = GroupAndCharacterize(
      d.dataset, lof, beam, d.dataset.outlier_indices(), 2, options);
  GroupSummarizerOptions loose = options;
  loose.min_similarity = 0.2;
  const std::vector<OutlierGroup> merged = GroupAndCharacterize(
      d.dataset, lof, beam, d.dataset.outlier_indices(), 2, loose);
  EXPECT_GE(strict.size(), merged.size());
}

TEST(GroupSummarizerTest, SortedLargestFirstAndDeterministic) {
  const SyntheticDataset d = TwoSubspaceData();
  const Lof lof(15);
  const Beam beam = SmallBeam();
  const std::vector<OutlierGroup> a = GroupAndCharacterize(
      d.dataset, lof, beam, d.dataset.outlier_indices(), 2);
  const std::vector<OutlierGroup> b = GroupAndCharacterize(
      d.dataset, lof, beam, d.dataset.outlier_indices(), 2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].points, b[i].points);
    EXPECT_EQ(a[i].characterizing_subspaces, b[i].characterizing_subspaces);
    if (i > 0) {
      EXPECT_GE(a[i - 1].points.size(), a[i].points.size());
    }
  }
}

TEST(GroupSummarizerTest, SinglePointIsItsOwnGroup) {
  const SyntheticDataset d = TwoSubspaceData();
  const Lof lof(15);
  const Beam beam = SmallBeam();
  const std::vector<int> one = {d.dataset.outlier_indices().front()};
  const std::vector<OutlierGroup> groups =
      GroupAndCharacterize(d.dataset, lof, beam, one, 2);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].points, one);
}

TEST(GroupSummarizerTest, MaxCharacterizingHonoured) {
  const SyntheticDataset d = TwoSubspaceData();
  const Lof lof(15);
  const Beam beam = SmallBeam();
  GroupSummarizerOptions options;
  options.max_characterizing = 1;
  const std::vector<OutlierGroup> groups = GroupAndCharacterize(
      d.dataset, lof, beam, d.dataset.outlier_indices(), 2, options);
  for (const OutlierGroup& g : groups) {
    EXPECT_LE(g.characterizing_subspaces.size(), 1u);
  }
}

}  // namespace
}  // namespace subex
