// Deterministic random number generation.
//
// Monte-Carlo reproducibility across thread counts requires that each sample
// draws from its own independent stream, derived only from (master seed,
// sample index).  We use SplitMix64 for seeding and Xoshiro256** as the bulk
// generator; both are tiny, fast, and well studied.
#pragma once

#include <array>
#include <cstdint>

namespace issa::util {

/// SplitMix64: used to expand a single 64-bit seed into generator state.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256** pseudo-random generator.  Satisfies the essentials of
/// UniformRandomBitGenerator so it can drive <random> distributions.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a 64-bit seed via SplitMix64.
  explicit Xoshiro256(std::uint64_t seed = 0x853C49E6748FEA9BULL) noexcept {
    SplitMix64 sm(seed);
    for (auto& word : state_) word = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  result_type operator()() noexcept {
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

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double uniform() noexcept { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept { return lo + (hi - lo) * uniform(); }

  /// Standard normal deviate (polar Box-Muller, no cached spare so that the
  /// stream position is a pure function of the number of calls made).
  double normal() noexcept;

  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double stddev) noexcept { return mean + stddev * normal(); }

  /// Exponential deviate with the given mean (mean > 0).
  double exponential(double mean) noexcept { return exponential_of(uniform(), mean); }

  /// The exponential deviate exponential() makes of the uniform `u`, for a
  /// caller that draws the uniform first and transforms it only when needed.
  static double exponential_of(double u, double mean) noexcept;

  /// Poisson deviate with the given mean (mean >= 0).  Uses Knuth's method for
  /// small means and normal approximation above 64 (trap counts never need
  /// exact tails there).
  unsigned poisson(double mean) noexcept;

  /// Bernoulli trial with probability p.
  bool bernoulli(double p) noexcept { return uniform() < p; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Derives a child seed from a master seed and one or two stream indices.
/// Used to give every (Monte-Carlo sample, transistor) pair its own stream.
std::uint64_t derive_seed(std::uint64_t master, std::uint64_t stream) noexcept;
std::uint64_t derive_seed(std::uint64_t master, std::uint64_t stream_a,
                          std::uint64_t stream_b) noexcept;

}  // namespace issa::util
