#ifndef HM_UTIL_RANDOM_H_
#define HM_UTIL_RANDOM_H_

#include <cstdint>

#include "util/check.h"

namespace hm::util {

/// Deterministic pseudo-random generator (SplitMix64). The paper
/// requires all random draws to come from a uniform distribution
/// (§5.2 N.B.); a seeded deterministic PRNG additionally makes every
/// generated test database and operation input reproducible across
/// runs, which the tests and the benchmark protocol rely on.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed + 0x9E3779B97F4A7C15ULL) {}

  /// Next raw 64-bit value.
  uint64_t Next64() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform integer in the inclusive range [lo, hi].
  int64_t UniformInt(int64_t lo, int64_t hi) {
    HM_CHECK(lo <= hi);
    uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    if (span == 0) return static_cast<int64_t>(Next64());  // full range
    return lo + static_cast<int64_t>(NextBounded(span));
  }

  /// Uniform value in [0, bound). `bound` must be > 0. Uses Lemire's
  /// rejection-free-in-expectation multiply-shift reduction.
  uint64_t NextBounded(uint64_t bound) {
    HM_CHECK(bound > 0);
    // Rejection sampling to avoid modulo bias.
    uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      uint64_t r = Next64();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next64() >> 11) * 0x1.0p-53;
  }

  /// Re-seeds the generator.
  void Seed(uint64_t seed) { state_ = seed + 0x9E3779B97F4A7C15ULL; }

 private:
  uint64_t state_;
};

}  // namespace hm::util

#endif  // HM_UTIL_RANDOM_H_
