#ifndef SUBEX_COMMON_RNG_H_
#define SUBEX_COMMON_RNG_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "common/check.h"

namespace subex {

/// MT19937-64 [Matsumoto & Nishimura 1998; Nishimura 2000] with a
/// branch-free twist. Same recurrence, seeding and tempering as
/// `std::mt19937_64`, so it emits that engine's exact stream for every seed
/// and every `std::` distribution over it returns the same values; only the
/// twist differs, selecting the matrix term with a mask instead of a branch
/// on each word's low bit.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Seeds the state as `std::mt19937_64(seed)` does.
  explicit Mt19937_64(result_type seed);

  result_type operator()() {
    if (next_ == kStateSize) Twist();
    result_type z = state_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71d67fffeda60000ull;
    z ^= (z << 37) & 0xfff7eee000000000ull;
    return z ^ (z >> 43);
  }

 private:
  static constexpr int kStateSize = 312;

  // Regenerates all kStateSize words and rewinds `next_`.
  void Twist();

  result_type state_[kStateSize];
  int next_ = kStateSize;
};

/// `std::generate_canonical<double, 53>`'s value in [0, 1) for the 64-bit
/// engine word `x`: libstdc++ takes `double(x) / 2^64`, clamped below 1.
/// `hi32 * 2^32 + lo32` is `double(x)` with the same single rounding,
/// without the branch on the top bit that an unsigned 64-bit conversion
/// compiles to.
inline double CanonicalFromWord(std::uint64_t x) {
  const double hi32 = static_cast<double>(static_cast<std::uint32_t>(x >> 32));
  const double lo32 = static_cast<double>(static_cast<std::uint32_t>(x));
  return std::min((hi32 * 0x1p32 + lo32) * 0x1p-64, 0x1.fffffffffffffp-1);
}

// libstdc++'s real distributions assert their parameters under
// _GLIBCXX_ASSERTIONS, which the sanitizer build defines along with NDEBUG;
// `Rng` checks the same there and in debug builds.
#if defined(_GLIBCXX_ASSERTIONS)
#define SUBEX_RNG_PARAM_CHECK(cond) SUBEX_CHECK(cond)
#else
#define SUBEX_RNG_PARAM_CHECK(cond) SUBEX_DCHECK(cond)
#endif

/// Seeded pseudo-random number generator facade.
///
/// Every stochastic component in the library (isolation forest, RefOut's
/// subspace pool, HiCS' Monte-Carlo slices, the dataset generators) takes an
/// `Rng&` so that experiments are reproducible bit-for-bit from a single seed
/// and so that tests can pin randomness. Draws from `Mt19937_64`, whose
/// stream is `std::mt19937_64`'s.
class Rng {
 public:
  /// Creates a generator from an explicit seed (deterministic stream).
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  Rng(const Rng&) = delete;
  Rng& operator=(const Rng&) = delete;

  /// Uniform integer in `[lo, hi]` (inclusive). Requires `lo <= hi`.
  int UniformInt(int lo, int hi) {
    SUBEX_DCHECK(lo <= hi);
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  /// Uniform index in `[0, n)`. Requires `n > 0`.
  std::size_t UniformIndex(std::size_t n) {
    SUBEX_DCHECK(n > 0);
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
  }

  /// Uniform double in `[lo, hi)`: the value
  /// `std::uniform_real_distribution<double>(lo, hi)` returns, as libstdc++
  /// computes it from one word.
  double Uniform(double lo = 0.0, double hi = 1.0) {
    SUBEX_RNG_PARAM_CHECK(lo <= hi);
    return CanonicalFromWord(engine_()) * (hi - lo) + lo;
  }

  /// Standard normal deviate scaled to N(mean, stddev^2): the value a fresh
  /// `std::normal_distribution<double>(mean, stddev)` returns, by libstdc++'s
  /// Marsaglia polar steps over `CanonicalFromWord`.
  double Gaussian(double mean = 0.0, double stddev = 1.0) {
    SUBEX_RNG_PARAM_CHECK(stddev > 0.0);
    double x, y, r2;
    do {
      x = 2.0 * CanonicalFromWord(engine_()) - 1.0;
      y = 2.0 * CanonicalFromWord(engine_()) - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    return y * std::sqrt(-2 * std::log(r2) / r2) * stddev + mean;
  }

  /// Derives an independent child generator; used to hand each parallel task
  /// or repetition its own deterministic stream.
  Rng Fork() { return Rng(engine_()); }

  /// Samples `k` distinct values from `[0, n)` without replacement, where
  /// n = `taken.size()`, and marks them: afterwards `taken[i]` is 1 exactly
  /// for the sampled i. Requires `k <= n`. Makes exactly `k` draws (Floyd's
  /// algorithm) and costs O(n + k) time with no allocation. Each step's
  /// stores go to addresses fixed before its load, so no step waits on the
  /// byte the previous one stored.
  void SampleMask(int k, std::span<unsigned char> taken);

  /// The values `SampleMask` marks, returned in ascending order.
  std::vector<int> SampleWithoutReplacement(int n, int k);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      std::swap(values[i - 1], values[UniformIndex(i)]);
    }
  }

  /// Access to the raw engine for `std::` distributions not wrapped above.
  Mt19937_64& engine() { return engine_; }

 private:
  Mt19937_64 engine_;
};

}  // namespace subex

#endif  // SUBEX_COMMON_RNG_H_
