#include "issa/util/rng.hpp"

#include <cmath>

namespace issa::util {

double Xoshiro256::normal() noexcept {
  // Ratio-free polar method would cache a spare; instead we use the
  // single-value Box-Muller so the stream advances deterministically per call.
  double u1 = uniform();
  // Guard against log(0).
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return r * std::cos(6.283185307179586476925286766559 * u2);
}

double Xoshiro256::exponential_of(double u, double mean) noexcept {
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

unsigned Xoshiro256::poisson(double mean) noexcept {
  if (mean <= 0.0) return 0;
  if (mean < 64.0) {
    // Knuth: multiply uniforms until the product drops below exp(-mean).
    const double threshold = std::exp(-mean);
    unsigned k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= uniform();
    } while (p > threshold);
    return k - 1;
  }
  // Normal approximation with continuity correction; adequate for trap counts.
  const double sample = normal(mean, std::sqrt(mean));
  return sample < 0.0 ? 0u : static_cast<unsigned>(sample + 0.5);
}

std::uint64_t derive_seed(std::uint64_t master, std::uint64_t stream) noexcept {
  SplitMix64 sm(master ^ (stream * 0xA24BAED4963EE407ULL + 0x9FB21C651E98DF25ULL));
  return sm.next();
}

std::uint64_t derive_seed(std::uint64_t master, std::uint64_t stream_a,
                          std::uint64_t stream_b) noexcept {
  return derive_seed(derive_seed(master, stream_a), stream_b ^ 0xD6E8FEB86659FD93ULL);
}

}  // namespace issa::util
