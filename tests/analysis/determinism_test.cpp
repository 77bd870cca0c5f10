// Deterministic-parallelism guarantees of the Monte-Carlo engine: the
// offset and delay distributions must be BIT-EXACT between parallel and
// serial execution and across every thread-pool size, because each sample's
// RNG streams are keyed by (seed, sample index, device) and never by
// scheduling order.  A single differing bit means a thread-count-dependent
// result, which would invalidate every cross-condition comparison in the
// paper's tables.
#include "issa/analysis/montecarlo.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "issa/util/thread_pool.hpp"

namespace issa::analysis {
namespace {

// Bit-pattern comparison: EXPECT_EQ on doubles uses operator==, which treats
// +0.0 == -0.0 and would hide a sign-of-zero divergence.  memcmp does not.
::testing::AssertionResult bit_exact(const std::vector<double>& a,
                                     const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint64_t bits_a = 0;
    std::uint64_t bits_b = 0;
    std::memcpy(&bits_a, &a[i], sizeof(bits_a));
    std::memcpy(&bits_b, &b[i], sizeof(bits_b));
    if (bits_a != bits_b) {
      return ::testing::AssertionFailure()
             << "sample " << i << " differs: " << a[i] << " vs " << b[i]
             << " (bits 0x" << std::hex << bits_a << " vs 0x" << bits_b << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

// An aged, unbalanced condition so the samples exercise the BTI trap streams
// on top of mismatch — the paper's Table 2 "80r0" cell at 1e8 s.
Condition aged_condition() {
  Condition c;
  c.kind = sa::SenseAmpKind::kNssa;
  c.config = sa::nominal_config();
  c.workload = workload::workload_from_name("80r0");
  c.stress_time_s = 1e8;
  return c;
}

// A pool without workers: its caller runs every sample in order.
util::ThreadPool g_serial(0);

McConfig mc_with(std::size_t iterations, util::ThreadPool* pool) {
  McConfig mc;
  mc.iterations = iterations;
  mc.seed = 42;
  mc.pool = pool;
  return mc;
}

TEST(Determinism, OffsetParallelMatchesSerialAtPaperScale) {
  // The paper's full 400-sample Monte-Carlo, run both ways.
  const Condition c = aged_condition();
  const OffsetDistribution serial =
      measure_offset_distribution(c, mc_with(400, &g_serial));
  const OffsetDistribution parallel =
      measure_offset_distribution(c, mc_with(400, &util::ThreadPool::global()));
  EXPECT_TRUE(bit_exact(serial.offsets, parallel.offsets));
  EXPECT_EQ(serial.saturated_count, parallel.saturated_count);
  EXPECT_EQ(serial.summary.count, parallel.summary.count);
  EXPECT_EQ(serial.summary.mean, parallel.summary.mean);
  EXPECT_EQ(serial.summary.stddev, parallel.summary.stddev);
}

TEST(Determinism, DelayParallelMatchesSerialAtPaperScale) {
  const Condition c = aged_condition();
  const DelayDistribution serial =
      measure_delay_distribution(c, mc_with(400, &g_serial));
  const DelayDistribution parallel =
      measure_delay_distribution(c, mc_with(400, &util::ThreadPool::global()));
  EXPECT_TRUE(bit_exact(serial.delays, parallel.delays));
  EXPECT_EQ(serial.summary.mean, parallel.summary.mean);
  EXPECT_EQ(serial.summary.stddev, parallel.summary.stddev);
}

TEST(Determinism, OffsetIdenticalAcrossPoolSizes) {
  // Pool sizes 1, 2, 8 must all reproduce the serial result bit-for-bit.
  const Condition c = aged_condition();
  const OffsetDistribution reference =
      measure_offset_distribution(c, mc_with(48, &g_serial));
  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    const OffsetDistribution d =
        measure_offset_distribution(c, mc_with(48, &pool));
    EXPECT_TRUE(bit_exact(reference.offsets, d.offsets)) << threads << " threads";
    EXPECT_EQ(reference.saturated_count, d.saturated_count) << threads << " threads";
  }
}

TEST(Determinism, DelayIdenticalAcrossPoolSizes) {
  const Condition c = aged_condition();
  const DelayDistribution reference =
      measure_delay_distribution(c, mc_with(48, &g_serial));
  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    const DelayDistribution d =
        measure_delay_distribution(c, mc_with(48, &pool));
    EXPECT_TRUE(bit_exact(reference.delays, d.delays)) << threads << " threads";
  }
}

TEST(Determinism, RepeatedParallelRunsAgree) {
  // Two parallel runs on the same pool must agree with each other, not just
  // with serial — catches any hidden shared mutable state between samples.
  const Condition c = aged_condition();
  util::ThreadPool pool(4);
  const OffsetDistribution a =
      measure_offset_distribution(c, mc_with(32, &pool));
  const OffsetDistribution b =
      measure_offset_distribution(c, mc_with(32, &pool));
  EXPECT_TRUE(bit_exact(a.offsets, b.offsets));
}

}  // namespace
}  // namespace issa::analysis
