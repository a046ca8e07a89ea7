// Deterministic pseudo-random number generation.
//
// All randomness in treewm flows from explicit 64-bit seeds through this
// class, so datasets, trained models, signatures and attacks are reproducible
// bit-for-bit across runs and platforms. The generator is xoshiro256**
// seeded via splitmix64 (the recommended seeding procedure).

#ifndef TREEWM_COMMON_RNG_H_
#define TREEWM_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace treewm {

/// Fast, high-quality, deterministic PRNG (xoshiro256**).
class Rng {
 public:
  /// Seeds the generator; identical seeds yield identical streams.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit value.
  uint64_t NextUint64();

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses unbiased
  /// rejection sampling (Lemire's method).
  uint64_t UniformInt(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformIntRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double UniformReal();

  /// Uniform double in [lo, hi).
  double UniformRealRange(double lo, double hi);

  /// Bernoulli trial with success probability `p`.
  bool Bernoulli(double p);

  /// Standard normal variate (Box-Muller, cached spare).
  double Gaussian();

  /// Normal variate with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// Fisher-Yates shuffle of `items`.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    if (items->empty()) return;
    for (size_t i = items->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformInt(i + 1));
      std::swap((*items)[i], (*items)[j]);
    }
  }

  /// Returns `k` distinct indices drawn uniformly from [0, n). Requires
  /// k <= n. The result is in random order.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

 private:
  uint64_t s_[4];
  double spare_gaussian_ = 0.0;
  bool has_spare_gaussian_ = false;
};

}  // namespace treewm

#endif  // TREEWM_COMMON_RNG_H_
