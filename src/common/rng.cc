#include "common/rng.h"

namespace subex {

std::vector<int> Rng::SampleWithoutReplacement(int n, int k) {
  SUBEX_CHECK(k >= 0 && k <= n);
  // Floyd's algorithm: exactly k draws. Membership is an n-entry map, read
  // off in ascending order, so the whole sample costs O(n + k).
  std::vector<unsigned char> taken(n, 0);
  for (int j = n - k; j < n; ++j) {
    const int t = UniformInt(0, j);
    taken[taken[t] ? j : t] = 1;
  }
  std::vector<int> chosen;
  chosen.reserve(k);
  for (int i = 0; i < n; ++i) {
    if (taken[i]) chosen.push_back(i);
  }
  return chosen;
}

}  // namespace subex
