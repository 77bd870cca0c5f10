#include "issa/util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "issa/util/statistics.hpp"

namespace issa::util {
namespace {

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(123);
  SplitMix64 b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Xoshiro256, SameSeedSameStream) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256, UniformInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Xoshiro256, UniformRangeRespectsBounds) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Xoshiro256, UniformMeanAndVariance) {
  Xoshiro256 rng(11);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.uniform());
  EXPECT_NEAR(stats.mean(), 0.5, 0.005);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.002);
}

TEST(Xoshiro256, NormalMoments) {
  Xoshiro256 rng(13);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.01);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.01);
}

TEST(Xoshiro256, NormalScaledMoments) {
  Xoshiro256 rng(17);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.normal(3.0, 2.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.03);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.03);
}

TEST(Xoshiro256, ExponentialMean) {
  Xoshiro256 rng(19);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.exponential(2.5));
  EXPECT_NEAR(stats.mean(), 2.5, 0.03);
  // Exponential: stddev == mean.
  EXPECT_NEAR(stats.stddev(), 2.5, 0.05);
}

TEST(Xoshiro256, ExponentialIsPositive) {
  Xoshiro256 rng(23);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(rng.exponential(1.0), 0.0);
}

TEST(Xoshiro256, PoissonZeroMean) {
  Xoshiro256 rng(37);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Xoshiro256, PoissonSmallMean) {
  Xoshiro256 rng(41);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(static_cast<double>(rng.poisson(3.7)));
  EXPECT_NEAR(stats.mean(), 3.7, 0.05);
  EXPECT_NEAR(stats.variance(), 3.7, 0.1);
}

TEST(Xoshiro256, PoissonLargeMeanUsesNormalApprox) {
  Xoshiro256 rng(43);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(static_cast<double>(rng.poisson(200.0)));
  EXPECT_NEAR(stats.mean(), 200.0, 1.0);
  EXPECT_NEAR(stats.stddev(), std::sqrt(200.0), 0.5);
}

TEST(Xoshiro256, BernoulliFrequency) {
  Xoshiro256 rng(47);
  int count = 0;
  for (int i = 0; i < 100000; ++i) count += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(count / 100000.0, 0.3, 0.01);
}

TEST(DeriveSeed, IsDeterministic) {
  EXPECT_EQ(derive_seed(1, 2), derive_seed(1, 2));
  EXPECT_EQ(derive_seed(1, 2, 3), derive_seed(1, 2, 3));
}

TEST(DeriveSeed, StreamsAreDistinct) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 1000; ++s) seeds.insert(derive_seed(42, s));
  EXPECT_EQ(seeds.size(), 1000u);
}

TEST(DeriveSeed, TwoLevelStreamsAreDistinct) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t a = 0; a < 40; ++a) {
    for (std::uint64_t b = 0; b < 40; ++b) seeds.insert(derive_seed(42, a, b));
  }
  EXPECT_EQ(seeds.size(), 1600u);
}

TEST(DeriveSeed, ChildStreamsAreUncorrelated) {
  // Samples drawn from adjacent child streams should not correlate.
  RunningStats diff;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    Xoshiro256 a(derive_seed(99, i));
    Xoshiro256 b(derive_seed(99, i + 1));
    diff.add(a.normal() * b.normal());
  }
  EXPECT_NEAR(diff.mean(), 0.0, 0.05);
}

}  // namespace
}  // namespace issa::util
