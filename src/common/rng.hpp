// Deterministic random number generation for workload synthesis.
//
// All experiment randomness flows from a single seeded Xoshiro256**
// generator so that every benchmark run reproduces the paper figures
// bit-for-bit.  Distribution helpers cover the shapes needed by the
// border-router traffic model: uniform and exponential (Poisson
// arrivals).
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace wirecap {

/// SplitMix64 — used to expand a single 64-bit seed into a full
/// Xoshiro256** state (the construction recommended by the xoshiro
/// authors).
class SplitMix64 {
 public:
  constexpr explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256** 1.0 by Blackman & Vigna — fast, high-quality, and tiny.
/// Satisfies std::uniform_random_bit_generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  constexpr explicit Xoshiro256(std::uint64_t seed = 0x57697265434150ULL) {
    SplitMix64 sm{seed};
    for (auto& word : state_) word = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() { return next(); }

  constexpr std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  constexpr double next_double() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t next_in(std::uint64_t lo, std::uint64_t hi) {
    return lo + next_below(hi - lo + 1);
  }

  /// Bernoulli trial with probability p.
  bool next_bool(double p) { return next_double() < p; }

  /// Exponential with mean `mean` (> 0).
  double next_exponential(double mean);

  /// Forks an independent generator (jump via reseeding from this
  /// stream); used to give each traffic source its own stream.
  Xoshiro256 fork() { return Xoshiro256{next()}; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace wirecap
