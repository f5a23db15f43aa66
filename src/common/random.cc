#include "common/random.h"

namespace bionicdb {

std::string Rng::AlphaString(int min_len, int max_len) {
  static const char kAlphabet[] =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
  const int len = static_cast<int>(UniformRange(min_len, max_len));
  std::string s;
  s.reserve(static_cast<size_t>(len));
  for (int i = 0; i < len; ++i) {
    s.push_back(kAlphabet[Uniform(sizeof(kAlphabet) - 1)]);
  }
  return s;
}

std::vector<uint32_t> RandomPermutation(uint32_t n, Rng* rng) {
  std::vector<uint32_t> p(n);
  for (uint32_t i = 0; i < n; ++i) p[i] = i;
  for (uint32_t i = n; i > 1; --i) {
    const uint32_t j = static_cast<uint32_t>(rng->Uniform(i));
    std::swap(p[i - 1], p[j]);
  }
  return p;
}

}  // namespace bionicdb
