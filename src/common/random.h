// Deterministic pseudo-random generators used by the simulator and the
// workload generators: xorshift64*, TPC-C NURand.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/macros.h"

namespace bionicdb {

/// xorshift64* PRNG: fast, deterministic, good enough for workload skew and
/// simulator jitter. Never seeded from wall-clock time — simulation runs
/// must be exactly reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL)
      : state_(seed ? seed : 0x9e3779b97f4a7c15ULL) {}

  uint64_t Next() {
    uint64_t x = state_;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    state_ = x;
    return x * 0x2545F4914F6CDD1DULL;
  }

  /// Uniform in [0, n). n must be > 0.
  uint64_t Uniform(uint64_t n) {
    BIONICDB_DCHECK(n > 0);
    return Next() % n;
  }

  /// Uniform in [lo, hi] inclusive (TPC-C style "random within [x .. y]").
  int64_t UniformRange(int64_t lo, int64_t hi) {
    BIONICDB_DCHECK(hi >= lo);
    return lo + static_cast<int64_t>(Uniform(static_cast<uint64_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return (Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// True with probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

  /// Random alphanumeric string of length in [min_len, max_len].
  std::string AlphaString(int min_len, int max_len);

  /// TPC-C NURand(A, x, y) non-uniform random, with run-time constant C.
  int64_t NURand(int64_t a, int64_t x, int64_t y, int64_t c) {
    return (((UniformRange(0, a) | UniformRange(x, y)) + c) % (y - x + 1)) + x;
  }

  uint64_t state() const { return state_; }

 private:
  uint64_t state_;
};

/// Fisher-Yates shuffle of a permutation [0, n), deterministic under `rng`.
std::vector<uint32_t> RandomPermutation(uint32_t n, Rng* rng);

}  // namespace bionicdb
