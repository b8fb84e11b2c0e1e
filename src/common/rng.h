#ifndef SUBEX_COMMON_RNG_H_
#define SUBEX_COMMON_RNG_H_

#include <cstdint>
#include <random>
#include <vector>

#include "common/check.h"

namespace subex {

/// Seeded pseudo-random number generator facade.
///
/// Every stochastic component in the library (isolation forest, RefOut's
/// subspace pool, HiCS' Monte-Carlo slices, the dataset generators) takes an
/// `Rng&` so that experiments are reproducible bit-for-bit from a single seed
/// and so that tests can pin randomness. Wraps `std::mt19937_64`.
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

  /// Uniform double in `[lo, hi)`.
  double Uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Standard normal deviate scaled to N(mean, stddev^2).
  double Gaussian(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Derives an independent child generator; used to hand each parallel task
  /// or repetition its own deterministic stream.
  Rng Fork() { return Rng(engine_()); }

  /// Samples `k` distinct values from `[0, n)` without replacement,
  /// returned in ascending order. Requires `k <= n`. Makes exactly `k`
  /// draws; costs O(n + k) time and O(n) scratch.
  std::vector<int> SampleWithoutReplacement(int n, int k);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      std::swap(values[i - 1], values[UniformIndex(i)]);
    }
  }

  /// Access to the raw engine for `std::` distributions not wrapped above.
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace subex

#endif  // SUBEX_COMMON_RNG_H_
