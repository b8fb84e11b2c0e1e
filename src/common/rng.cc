#include "common/rng.h"

#include <algorithm>

namespace subex {

Mt19937_64::Mt19937_64(result_type seed) {
  state_[0] = seed;
  for (int i = 1; i < kStateSize; ++i) {
    const result_type prev = state_[i - 1];
    state_[i] = 6364136223846793005ull * (prev ^ (prev >> 62)) +
                static_cast<result_type>(i);
  }
}

void Mt19937_64::Twist() {
  constexpr int kShift = 156;  // The recurrence's middle offset m.
  constexpr result_type kLowerMask = (result_type{1} << 31) - 1;
  // x_k = x_{k+m} ^ (y >> 1) ^ (a if y is odd), y = the upper 33 bits of
  // x_k joined to the lower 31 of x_{k+1}; `0 - (y & 1)` is all ones or
  // zero, so the matrix term a is masked in without a branch.
  const auto mix = [](result_type upper, result_type lower, result_type far) {
    const result_type y = (upper & ~kLowerMask) | (lower & kLowerMask);
    return far ^ (y >> 1) ^ (0xb5026f5aa96619e9ull & (0 - (y & 1)));
  };
  int k = 0;
  for (; k < kStateSize - kShift; ++k) {
    state_[k] = mix(state_[k], state_[k + 1], state_[k + kShift]);
  }
  for (; k < kStateSize - 1; ++k) {
    state_[k] = mix(state_[k], state_[k + 1], state_[k + kShift - kStateSize]);
  }
  state_[k] = mix(state_[k], state_[0], state_[kShift - 1]);
  next_ = 0;
}

void Rng::SampleMask(int k, std::span<unsigned char> taken) {
  const int n = static_cast<int>(taken.size());
  SUBEX_CHECK(k >= 0 && k <= n);
  // Floyd's algorithm: exactly k draws, membership tested on the mask.
  // Step j marks t, or j when t is already marked. Every earlier step marked
  // an index below j, so taken[j] is 0 here and storing `taken[t]` there
  // marks j exactly when t was taken. Storing taken[t] = 1 second also
  // covers t == j, which must end marked.
  std::fill(taken.begin(), taken.end(), 0);
  for (int j = n - k; j < n; ++j) {
    const int t = UniformInt(0, j);
    const unsigned char hit = taken[t];
    taken[j] = hit;
    taken[t] = 1;
  }
}

std::vector<int> Rng::SampleWithoutReplacement(int n, int k) {
  SUBEX_CHECK(n >= 0);
  std::vector<unsigned char> taken(n);
  SampleMask(k, taken);
  std::vector<int> chosen;
  chosen.reserve(k);
  for (int i = 0; i < n; ++i) {
    if (taken[i]) chosen.push_back(i);
  }
  return chosen;
}

}  // namespace subex
