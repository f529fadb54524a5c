// Deterministic pseudo-random source for workloads and randomized
// arbitration.  xorshift64* -- fast, seedable, identical across
// platforms, so every experiment in this repository is reproducible.
#pragma once

#include <cstdint>

#include "hlcs/sim/assert.hpp"

namespace hlcs::sim {

class Xorshift {
public:
  explicit constexpr Xorshift(std::uint64_t seed = 0x9E3779B97F4A7C15ull)
      : state_(seed ? seed : 1) {}

  constexpr std::uint64_t next() {
    std::uint64_t x = state_;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    state_ = x;
    return x * 0x2545F4914F6CDD1Dull;
  }

  /// Uniform in [0, bound).
  constexpr std::uint64_t below(std::uint64_t bound) {
    HLCS_ASSERT(bound > 0, "Xorshift::below(0)");
    return next() % bound;
  }

  /// Uniform in [lo, hi] inclusive.
  constexpr std::uint64_t range(std::uint64_t lo, std::uint64_t hi) {
    HLCS_ASSERT(lo <= hi, "Xorshift::range inverted bounds");
    return lo + below(hi - lo + 1);
  }

  /// Bernoulli with probability num/den.
  constexpr bool chance(std::uint64_t num, std::uint64_t den) {
    return below(den) < num;
  }

private:
  std::uint64_t state_;
};

/// SplitMix64 output function: a single avalanche step of the SplitMix
/// generator.  Used to derive independent sub-seeds from one root seed.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// The root seed whose lane 0 is lane `lane` of `root`:
/// lane_seed(lane_root(r, i), 0) == lane_seed(r, i).  A failure report
/// that prints lane_root(seed, lane) is reproducible standalone -- feed
/// it back as the root seed of a single-lane run.
constexpr std::uint64_t lane_root(std::uint64_t root, std::uint64_t lane) {
  return root + lane * 0x9E3779B97F4A7C15ull;
}

/// Per-lane seed derivation shared by every randomized consumer (equiv,
/// fuzz suites, lock-step check tests): lane i of root seed S gets the
/// i-th output of the SplitMix64 stream seeded at S.
constexpr std::uint64_t lane_seed(std::uint64_t root, std::uint64_t lane) {
  return splitmix64(lane_root(root, lane));
}

}  // namespace hlcs::sim
