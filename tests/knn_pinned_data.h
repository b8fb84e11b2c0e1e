#ifndef SUBEX_TESTS_KNN_PINNED_DATA_H_
#define SUBEX_TESTS_KNN_PINNED_DATA_H_

// Fixtures shared by the kNN-family pinned-bits tests (KnnTest, LofTest,
// FastAbodTest): the datasets, subspaces and k values whose exact output
// bits are pinned, and an FNV-1a hash over those bits.

#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "data/generators.h"
#include "subspace/enumeration.h"

namespace subex::knn_pinned {

constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;

// FNV-1a over the 8 bytes of `bits`, continuing from `hash`.
inline std::uint64_t HashWord(std::uint64_t hash, std::uint64_t bits) {
  for (int b = 0; b < 8; ++b) {
    hash ^= (bits >> (8 * b)) & 0xffu;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

inline std::uint64_t HashDouble(std::uint64_t hash, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return HashWord(hash, bits);
}

inline std::uint64_t HashDoubles(std::uint64_t hash,
                                 const std::vector<double>& values) {
  for (double v : values) hash = HashDouble(hash, v);
  return hash;
}

// An 8-feature HiCS dataset (relevant subspaces of 3, 3 and 2 features)
// with `n` points.
inline Dataset Hics(int n) {
  HicsGeneratorConfig config;
  config.num_points = n;
  config.subspace_dims = {3, 3, 2};
  config.seed = 14;
  return GenerateHicsDataset(config).dataset;
}

// 200 x 4: a constant column, a five-level and a three-level column, and
// rows repeating every 50, so every point has exact duplicates and many
// candidates tie on distance (index tie-break; LOF's epsilon).
inline Dataset DuplicateHeavy() {
  std::uint64_t state = 5;
  auto next = [&state] {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  Matrix m(200, 4);
  for (int p = 0; p < 50; ++p) {
    m(p, 0) = 0.5;
    m(p, 1) = 0.25 * static_cast<double>(next() % 5);
    m(p, 2) = static_cast<double>(next() % 3);
    m(p, 3) = static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  for (int p = 50; p < 200; ++p) {
    for (int f = 0; f < 4; ++f) m(p, f) = m(p % 50, f);
  }
  return Dataset(std::move(m));
}

// `Hics(300)` with NaN and +/-Inf cells, in the sweep's sort feature (0)
// too, so some distances are NaN or infinite.
inline Dataset NonFinite() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Matrix m = Hics(300).matrix();
  for (std::size_t p : {0, 1, 2, 57, 58, 130}) m(p, 0) = nan;
  for (std::size_t p : {3, 99}) m(p, 1) = nan;
  m(4, 0) = inf;
  m(5, 0) = inf;
  m(6, 0) = -inf;
  m(200, 1) = inf;
  m(201, 1) = -inf;
  m(202, 2) = inf;
  m(202, 3) = nan;
  return Dataset(std::move(m));
}

// Every 2-d and 3-d subspace, one 7-d subspace when there are enough
// features, and the full space (empty subspace).
inline std::vector<Subspace> Subspaces(const Dataset& d) {
  const int f = static_cast<int>(d.num_features());
  std::vector<Subspace> out = EnumerateSubspaces(f, 2);
  for (Subspace& s : EnumerateSubspaces(f, 3)) out.push_back(std::move(s));
  if (f > 7) out.push_back(Subspace({0, 1, 2, 4, 5, 6, 7}));
  out.push_back(Subspace());
  return out;
}

// One pinned case: a dataset and the neighbourhood sizes run on it. The
// duplicate-heavy set adds a k beyond n, which clamps to n - 1.
struct Case {
  Dataset data;
  std::vector<int> ks;
};

inline std::vector<Case> Cases(std::vector<int> ks) {
  std::vector<Case> cases;
  cases.push_back({Hics(300), ks});
  cases.push_back({Hics(1000), ks});
  ks.push_back(1000);
  cases.push_back({DuplicateHeavy(), ks});
  return cases;
}

}  // namespace subex::knn_pinned

#endif  // SUBEX_TESTS_KNN_PINNED_DATA_H_
