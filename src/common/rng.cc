#include "common/rng.h"

#include <cassert>
#include <cmath>

namespace treewm {

namespace {

inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

constexpr double kTwoPi = 6.283185307179586476925286766559;

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& lane : s_) lane = SplitMix64(&sm);
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::UniformInt(uint64_t bound) {
  assert(bound > 0);
  // Lemire's nearly-divisionless unbiased bounded sampling.
  uint64_t x = NextUint64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < bound) {
    uint64_t threshold = (~bound + 1) % bound;
    while (l < threshold) {
      x = NextUint64();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::UniformIntRange(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<int64_t>(NextUint64());  // full range
  return lo + static_cast<int64_t>(UniformInt(span));
}

double Rng::UniformReal() {
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::UniformRealRange(double lo, double hi) {
  return lo + (hi - lo) * UniformReal();
}

bool Rng::Bernoulli(double p) { return UniformReal() < p; }

double Rng::Gaussian() {
  if (has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  double u1 = UniformReal();
  double u2 = UniformReal();
  // Guard against log(0).
  while (u1 <= 1e-300) u1 = UniformReal();
  const double r = std::sqrt(-2.0 * std::log(u1));
  spare_gaussian_ = r * std::sin(kTwoPi * u2);
  has_spare_gaussian_ = true;
  return r * std::cos(kTwoPi * u2);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  assert(k <= n);
  // Partial Fisher-Yates over an index vector; O(n) memory, O(n + k) time.
  std::vector<size_t> indices(n);
  for (size_t i = 0; i < n; ++i) indices[i] = i;
  for (size_t i = 0; i < k; ++i) {
    size_t j = i + static_cast<size_t>(UniformInt(n - i));
    std::swap(indices[i], indices[j]);
  }
  indices.resize(k);
  return indices;
}

}  // namespace treewm
