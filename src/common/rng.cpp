#include "common/rng.hpp"

#include <cmath>
#include <stdexcept>

namespace wirecap {

std::uint64_t Xoshiro256::next_below(std::uint64_t bound) {
  if (bound == 0) {
    throw std::invalid_argument("next_below: bound must be positive");
  }
  // Unbiased rejection sampling (the OpenBSD arc4random_uniform scheme):
  // reject the low residue class so every value in [0, bound) is equally
  // likely.  threshold == (2^64 - bound) mod bound via unsigned wraparound.
  const std::uint64_t threshold = (0 - bound) % bound;
  std::uint64_t x = next();
  while (x < threshold) x = next();
  return x % bound;
}

double Xoshiro256::next_exponential(double mean) {
  if (mean <= 0.0) {
    throw std::invalid_argument("next_exponential: mean must be positive");
  }
  // 1 - U in (0, 1] avoids log(0).
  return -mean * std::log(1.0 - next_double());
}

}  // namespace wirecap
