#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <random>
#include <set>
#include <utility>
#include <vector>

namespace subex {
namespace {

// The engine is a drop-in for std::mt19937_64: raw output over many twists
// and every std:: distribution the facade wraps agree value for value.
TEST(RngTest, EngineMatchesStdMt19937_64) {
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{42},
        std::uint64_t{0x9e3779b97f4a7c15ull}, ~std::uint64_t{0}}) {
    Mt19937_64 engine(seed);
    std::mt19937_64 reference(seed);
    int mismatches = 0;
    for (int i = 0; i < (1 << 20); ++i) {  // 1M draws, ~3400 twists.
      mismatches += engine() != reference();
    }
    EXPECT_EQ(mismatches, 0) << "seed " << seed;

    // One distribution object per engine: normal_distribution caches the
    // second deviate of each pair it draws.
    std::normal_distribution<double> normals(0.5, 2.0);
    std::normal_distribution<double> reference_normals(0.5, 2.0);
    int distribution_mismatches = 0;
    for (int i = 0; i < 20000; ++i) {
      std::uniform_int_distribution<int> ints(-3, 1000 + i);
      std::uniform_int_distribution<std::size_t> indices(0, 7 + i);
      std::uniform_real_distribution<double> reals(-2.5, 1.0 + i);
      distribution_mismatches += ints(engine) != ints(reference);
      distribution_mismatches += indices(engine) != indices(reference);
      distribution_mismatches += reals(engine) != reals(reference);
      distribution_mismatches += normals(engine) != reference_normals(reference);
    }
    EXPECT_EQ(distribution_mismatches, 0) << "seed " << seed;
  }
}

std::uint64_t Bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

// A 64-bit engine that returns one fixed word, to drive a distribution
// with chosen words.
struct FixedWordEngine {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type word;
  result_type operator()() { return word; }
};

// `Uniform` returns `std::uniform_real_distribution<double>`'s bits over
// the same stream, for many seeds and ranges, and `CanonicalFromWord`
// returns `std::generate_canonical`'s for chosen words: around 2^53, where
// doubles stop being exact, and near 2^64, where 2^64 - 1024 rounds up to
// 2^64 and the clamp below 1 fires.
TEST(RngTest, UniformMatchesStdDistribution) {
  const std::pair<double, double> ranges[] = {
      {0.0, 1.0},   {-2.5, 1.0},     {-1.0, 2.0},         {0.15, 0.3},
      {5.0, 5.0},   {-7.0, -3.0},    {-1e-300, 1e-300},   {0.0, 1e300},
      {-0.0, 0.0},  {1.0, 1.0 + 1e-15}};
  int mismatches = 0;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    Rng rng(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < 2000; ++i) {
      const auto [lo, hi] = ranges[i % std::size(ranges)];
      std::uniform_real_distribution<double> reals(lo, hi);
      mismatches += Bits(rng.Uniform(lo, hi)) != Bits(reals(reference));
    }
  }
  EXPECT_EQ(mismatches, 0);

  constexpr std::uint64_t kTop = ~std::uint64_t{0};
  constexpr std::uint64_t k53 = std::uint64_t{1} << 53;
  const std::uint64_t words[] = {0,          1,          2,
                                 k53 - 1,    k53,        k53 + 1,
                                 k53 + 3,    std::uint64_t{1} << 63,
                                 kTop,       kTop - 1023, kTop - 1024,
                                 kTop - 2047, 0x9e3779b97f4a7c15ull};
  for (const std::uint64_t word : words) {
    FixedWordEngine engine{word};
    const double u = CanonicalFromWord(word);
    EXPECT_EQ(Bits(u), Bits(std::generate_canonical<double, 53>(engine)))
        << "word " << word;
    EXPECT_LT(u, 1.0) << "word " << word;
    for (const auto& [lo, hi] : ranges) {
      std::uniform_real_distribution<double> reals(lo, hi);
      EXPECT_EQ(Bits(u * (hi - lo) + lo), Bits(reals(engine)))
          << "word " << word << ", range [" << lo << ", " << hi << ")";
    }
  }
  // 2^64 - 1024 and 2^64 - 1025 land on the largest double below 1, the
  // first through the clamp, the second by rounding.
  EXPECT_EQ(CanonicalFromWord(kTop - 1023), 0x1.fffffffffffffp-1);
  EXPECT_EQ(CanonicalFromWord(kTop - 1024), 0x1.fffffffffffffp-1);
}

// `Gaussian` returns a fresh `std::normal_distribution<double>`'s bits
// over the same stream, polar rejections included, so the stream stays
// aligned after each deviate.
TEST(RngTest, GaussianMatchesStdDistribution) {
  const std::pair<double, double> params[] = {
      {0.0, 1.0}, {0.0, 0.045}, {5.0, 2.0}, {-3.0, 1e-9}, {0.5, 1e300}};
  int mismatches = 0;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    Rng rng(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < 2000; ++i) {
      const auto [mean, stddev] = params[i % std::size(params)];
      std::normal_distribution<double> normals(mean, stddev);
      mismatches +=
          Bits(rng.Gaussian(mean, stddev)) != Bits(normals(reference));
    }
    mismatches += rng.engine()() != reference();
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(RngTest, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.UniformInt(0, 1 << 30) != b.UniformInt(0, 1 << 30)) ++differing;
  }
  EXPECT_GT(differing, 45);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= (v == 3);
    saw_hi |= (v == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformIndexInRange) {
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    EXPECT_LT(rng.UniformIndex(9), 9u);
  }
}

TEST(RngTest, UniformRealHalfOpen) {
  Rng rng(13);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.Uniform(2.0, 4.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 4.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 3.0, 0.05);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Gaussian(5.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(RngTest, SampleWithoutReplacementDistinctSortedInRange) {
  Rng rng(19);
  for (int trial = 0; trial < 50; ++trial) {
    const std::vector<int> sample = rng.SampleWithoutReplacement(20, 8);
    ASSERT_EQ(sample.size(), 8u);
    EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
    const std::set<int> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 8u);
    EXPECT_GE(sample.front(), 0);
    EXPECT_LT(sample.back(), 20);
  }
}

TEST(RngTest, SampleWithoutReplacementFullRange) {
  Rng rng(23);
  const std::vector<int> sample = rng.SampleWithoutReplacement(5, 5);
  EXPECT_EQ(sample, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(RngTest, SampleWithoutReplacementCoversAllValues) {
  Rng rng(29);
  std::set<int> seen;
  for (int trial = 0; trial < 300; ++trial) {
    for (int v : rng.SampleWithoutReplacement(10, 3)) seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

// Literal outputs for fixed seeds, plus the draw that follows each sample:
// together they pin both the sampled values and how many draws the sampler
// consumed, which the property tests above would not notice changing.
TEST(RngTest, SampleWithoutReplacementPinnedOutput) {
  struct Case {
    std::uint64_t seed;
    int n;
    int k;
    std::vector<int> expected;
    int next_draw;
  };
  const std::vector<Case> cases = {
      {1, 10, 0, {}, 143748952},
      {2, 6, 6, {0, 1, 2, 3, 4, 5}, 241098694},
      {3, 9, 8, {0, 1, 2, 3, 4, 5, 6, 8}, 756692667},
      {4, 20, 5, {1, 7, 10, 12, 19}, 60544439},
      {5, 1000, 7, {38, 90, 96, 129, 224, 669, 673}, 738497251},
      {6, 12, 11, {0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11}, 936403806},
  };
  for (const Case& c : cases) {
    Rng rng(c.seed);
    EXPECT_EQ(rng.SampleWithoutReplacement(c.n, c.k), c.expected)
        << "seed " << c.seed;
    EXPECT_EQ(rng.UniformInt(0, 1 << 30), c.next_draw) << "seed " << c.seed;
  }
  // An Isolation Forest subsample of `grid_batch`'s shape, 256 of 300 rows,
  // pinned by a checksum of the set.
  Rng rng(7);
  const std::vector<int> subsample = rng.SampleWithoutReplacement(300, 256);
  ASSERT_EQ(subsample.size(), 256u);
  std::uint64_t checksum = 0;
  for (int i : subsample) checksum = checksum * 1000003u + i;
  EXPECT_EQ(checksum, 4573380496075266774ull);
  EXPECT_EQ(rng.UniformInt(0, 1 << 30), 404273700);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(31);
  std::vector<int> values = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = values;
  rng.Shuffle(shuffled);
  std::vector<int> sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, values);
}

TEST(RngTest, ForkIsIndependentStream) {
  Rng parent(37);
  Rng child = parent.Fork();
  // The child must not replay the parent's stream.
  Rng parent_copy(37);
  Mt19937_64& parent_engine = parent_copy.engine();
  (void)parent_engine();  // Parent consumed one draw for the fork.
  int matches = 0;
  for (int i = 0; i < 20; ++i) {
    if (child.UniformInt(0, 1 << 30) == parent_copy.UniformInt(0, 1 << 30)) {
      ++matches;
    }
  }
  EXPECT_LT(matches, 5);
}

}  // namespace
}  // namespace subex
