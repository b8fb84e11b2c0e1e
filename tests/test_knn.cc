#include "detect/knn.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "knn_pinned_data.h"

namespace subex {
namespace {

Dataset LineDataset() {
  // Points at x = 0, 1, 2, 10 on a line (second feature is a decoy).
  Matrix m = {{0.0, 100.0}, {1.0, -50.0}, {2.0, 0.0}, {10.0, 7.0}};
  return Dataset(std::move(m));
}

TEST(KnnTest, NearestNeighborOnLine) {
  const Dataset d = LineDataset();
  const KnnTable knn = ComputeKnn(d, Subspace({0}), 1);
  EXPECT_EQ(knn.row(0)[0].index, 1);
  EXPECT_DOUBLE_EQ(knn.row(0)[0].distance, 1.0);
  EXPECT_EQ(knn.row(3)[0].index, 2);
  EXPECT_DOUBLE_EQ(knn.row(3)[0].distance, 8.0);
}

TEST(KnnTest, ExcludesSelf) {
  const Dataset d = LineDataset();
  const KnnTable knn = ComputeKnn(d, Subspace({0}), 3);
  for (std::size_t p = 0; p < d.num_points(); ++p) {
    for (const Neighbor& nb : knn.row(static_cast<int>(p))) {
      EXPECT_NE(nb.index, static_cast<int>(p));
    }
  }
}

TEST(KnnTest, DistancesAscending) {
  Rng rng(4);
  Matrix m(60, 3);
  for (std::size_t p = 0; p < 60; ++p) {
    for (std::size_t f = 0; f < 3; ++f) m(p, f) = rng.Uniform();
  }
  const Dataset d(std::move(m));
  const KnnTable knn = ComputeKnn(d, Subspace(), 10);
  ASSERT_EQ(knn.entries.size(), 60u * 10u);
  for (int p = 0; p < 60; ++p) {
    const std::span<const Neighbor> nbs = knn.row(p);
    ASSERT_EQ(nbs.size(), 10u);
    for (std::size_t i = 1; i < nbs.size(); ++i) {
      EXPECT_GE(nbs[i].distance, nbs[i - 1].distance);
    }
  }
}

TEST(KnnTest, KClampedToNMinusOne) {
  const Dataset d = LineDataset();
  const KnnTable knn = ComputeKnn(d, Subspace({0}), 100);
  EXPECT_EQ(knn.k, 3);
  EXPECT_EQ(knn.row(0).size(), 3u);
}

TEST(KnnTest, KDistanceIsLastNeighbor) {
  const Dataset d = LineDataset();
  const KnnTable knn = ComputeKnn(d, Subspace({0}), 2);
  EXPECT_DOUBLE_EQ(knn.KDistance(0), 2.0);  // Neighbors of 0: x=1, x=2.
}

TEST(KnnTest, SubspaceRestrictsDistance) {
  const Dataset d = LineDataset();
  // In feature 1, the nearest neighbor of point 2 (value 0) is point 3
  // (value 7), not its feature-0 neighbors.
  const KnnTable knn = ComputeKnn(d, Subspace({1}), 1);
  EXPECT_EQ(knn.row(2)[0].index, 3);
}

TEST(KnnTest, EmptySubspaceMeansFullSpace) {
  const Dataset d = LineDataset();
  const KnnTable full = ComputeKnn(d, Subspace(), 2);
  const KnnTable both = ComputeKnn(d, Subspace({0, 1}), 2);
  for (std::size_t p = 0; p < d.num_points(); ++p) {
    for (int i = 0; i < 2; ++i) {
      EXPECT_EQ(full.row(p)[i].index, both.row(p)[i].index);
      EXPECT_DOUBLE_EQ(full.row(p)[i].distance,
                       both.row(p)[i].distance);
    }
  }
}

TEST(KnnTest, TieBrokenByIndex) {
  Matrix m = {{0.0}, {1.0}, {-1.0}, {5.0}};
  const Dataset d(std::move(m));
  const KnnTable knn = ComputeKnn(d, Subspace({0}), 1);
  // Points 1 and 2 are both at distance 1 from point 0; index 1 wins.
  EXPECT_EQ(knn.row(0)[0].index, 1);
}

TEST(KnnTest, DuplicatePointsZeroDistance) {
  Matrix m = {{2.0, 2.0}, {2.0, 2.0}, {3.0, 3.0}};
  const Dataset d(std::move(m));
  const KnnTable knn = ComputeKnn(d, Subspace(), 1);
  EXPECT_EQ(knn.row(0)[0].index, 1);
  EXPECT_DOUBLE_EQ(knn.row(0)[0].distance, 0.0);
}

// The exact neighbour bits, pinned: every (index, distance) of every table
// over the shared kNN pin cases. Any change to the candidate set, the
// accumulation order or the tie-break shows up here.
TEST(KnnTest, PinnedNeighborBits) {
  using namespace knn_pinned;
  std::vector<std::uint64_t> hashes;
  for (const Case& c : Cases({1, 10, 15})) {
    std::uint64_t hash = kFnvOffsetBasis;
    for (int k : c.ks) {
      for (const Subspace& s : Subspaces(c.data)) {
        const KnnTable knn = ComputeKnn(c.data, s, k);
        for (const Neighbor& nb : knn.entries) {
          hash = HashWord(hash, static_cast<std::uint64_t>(nb.index));
          hash = HashDouble(hash, nb.distance);
        }
      }
    }
    hashes.push_back(hash);
  }
  const std::vector<std::uint64_t> pinned = {
      0x70392684b4f20b93ull,  // HiCS n = 300
      0x5edd39f128487642ull,  // HiCS n = 1000
      0xc00376095fa78c52ull,  // duplicate-heavy
  };
  EXPECT_EQ(hashes, pinned);
}

// The kernel's sort and packing scratch is thread_local, and every
// ScoringService pool worker reuses its own: concurrent calls over
// different subspaces and sizes give the serial tables.
TEST(KnnTest, ConcurrentTablesMatchSerial) {
  const Dataset small = knn_pinned::Hics(300);
  const Dataset large = knn_pinned::Hics(1000);
  const std::vector<Subspace> subspaces = {
      Subspace({0, 1}), Subspace({2, 3, 4}), Subspace({1, 5, 6, 7}),
      Subspace()};
  auto tables = [&](int t) {
    std::vector<Neighbor> out;
    for (int round = 0; round < 3; ++round) {
      const Dataset& d = (t + round) % 2 == 0 ? small : large;
      const KnnTable knn = ComputeKnn(d, subspaces[t], 10 + round);
      out.insert(out.end(), knn.entries.begin(), knn.entries.end());
    }
    return out;
  };
  std::vector<std::vector<Neighbor>> serial;
  for (int t = 0; t < 4; ++t) serial.push_back(tables(t));
  std::vector<std::vector<Neighbor>> concurrent(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] { concurrent[t] = tables(t); });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < 4; ++t) {
    ASSERT_EQ(concurrent[t].size(), serial[t].size());
    for (std::size_t i = 0; i < serial[t].size(); ++i) {
      EXPECT_EQ(concurrent[t][i].index, serial[t][i].index);
      EXPECT_EQ(concurrent[t][i].distance, serial[t][i].distance);
    }
  }
}

}  // namespace
}  // namespace subex
