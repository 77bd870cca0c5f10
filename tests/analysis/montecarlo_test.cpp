#include "issa/analysis/montecarlo.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "issa/util/thread_pool.hpp"
#include "sa/offset_model_fits.hpp"

namespace issa::analysis {
namespace {

Condition fresh_nssa() {
  Condition c;
  c.kind = sa::SenseAmpKind::kNssa;
  c.config = sa::nominal_config();
  c.workload = workload::workload_from_name("80r0r1");
  c.stress_time_s = 0.0;
  return c;
}

Condition aged_nssa(const char* wl) {
  Condition c = fresh_nssa();
  c.workload = workload::workload_from_name(wl);
  c.stress_time_s = 1e8;
  return c;
}

McConfig small_mc(std::size_t n = 24) {
  McConfig mc;
  mc.iterations = n;
  mc.seed = 42;
  return mc;
}

TEST(MonteCarlo, MakeConditionAppliesCorners) {
  const workload::Workload w = workload::workload_from_name("20r1");
  const Condition hot = make_condition(sa::SenseAmpKind::kIssa, w, 1e8, 0.9, 125.0);
  EXPECT_EQ(hot.kind, sa::SenseAmpKind::kIssa);
  EXPECT_EQ(hot.workload, w);
  EXPECT_DOUBLE_EQ(hot.stress_time_s, 1e8);
  EXPECT_DOUBLE_EQ(hot.config.vdd, 0.9);
  EXPECT_DOUBLE_EQ(hot.config.temperature_c, 125.0);
  EXPECT_NEAR(hot.config.temperature_k(), 398.15, 1e-9);
  // Everything else is the nominal SA, and the defaults are its corner.
  sa::SenseAmpConfig rest = hot.config;
  rest.vdd = sa::nominal_config().vdd;
  rest.temperature_c = sa::nominal_config().temperature_c;
  EXPECT_EQ(rest, sa::nominal_config());
  EXPECT_EQ(make_condition(sa::SenseAmpKind::kNssa, w, 0.0).config, sa::nominal_config());
  EXPECT_EQ(condition_label(hot), "ISSA 20r1 vdd=0.90V T=125.0C stress=1e+08s");
}

TEST(MonteCarlo, OffsetDistributionShape) {
  const OffsetDistribution d = measure_offset_distribution(fresh_nssa(), small_mc());
  EXPECT_EQ(d.offsets.size(), 24u);
  EXPECT_EQ(d.summary.count, 24u);
  EXPECT_EQ(d.saturated_count, 0u);
  // Fresh sigma near the calibrated 14.8 mV (loose bound for 24 samples).
  EXPECT_GT(d.summary.stddev, 7e-3);
  EXPECT_LT(d.summary.stddev, 25e-3);
}

TEST(MonteCarlo, DeterministicAcrossRuns) {
  const OffsetDistribution a = measure_offset_distribution(fresh_nssa(), small_mc());
  const OffsetDistribution b = measure_offset_distribution(fresh_nssa(), small_mc());
  ASSERT_EQ(a.offsets.size(), b.offsets.size());
  for (std::size_t i = 0; i < a.offsets.size(); ++i) EXPECT_EQ(a.offsets[i], b.offsets[i]);
}

TEST(MonteCarlo, ParallelMatchesSerial) {
  util::ThreadPool no_workers(0);
  McConfig serial = small_mc(12);
  serial.pool = &no_workers;
  const McConfig parallel = small_mc(12);
  const OffsetDistribution a = measure_offset_distribution(fresh_nssa(), serial);
  const OffsetDistribution b = measure_offset_distribution(fresh_nssa(), parallel);
  for (std::size_t i = 0; i < a.offsets.size(); ++i) EXPECT_EQ(a.offsets[i], b.offsets[i]);
}

TEST(MonteCarlo, SeedChangesSamples) {
  McConfig mc1 = small_mc(8);
  McConfig mc2 = small_mc(8);
  mc2.seed = 43;
  const OffsetDistribution a = measure_offset_distribution(fresh_nssa(), mc1);
  const OffsetDistribution b = measure_offset_distribution(fresh_nssa(), mc2);
  EXPECT_NE(a.offsets, b.offsets);
}

TEST(MonteCarlo, AgedUnbalancedShiftsMeanPositive) {
  const OffsetDistribution d = measure_offset_distribution(aged_nssa("80r0"), small_mc(32));
  // mu ~ +18 mV at these conditions; with 32 samples allow a wide band.
  EXPECT_GT(d.summary.mean, 8e-3);
}

TEST(MonteCarlo, AgedBalancedStaysCentered) {
  const OffsetDistribution d = measure_offset_distribution(aged_nssa("80r0r1"), small_mc(32));
  EXPECT_LT(std::fabs(d.summary.mean), 8e-3);
}

TEST(MonteCarlo, IssaCentersUnbalancedWorkload) {
  Condition c = aged_nssa("80r0");
  c.kind = sa::SenseAmpKind::kIssa;
  const OffsetDistribution d = measure_offset_distribution(c, small_mc(32));
  EXPECT_LT(std::fabs(d.summary.mean), 8e-3);
}

TEST(MonteCarlo, SpecUsesEq3) {
  const OffsetDistribution d = measure_offset_distribution(fresh_nssa(), small_mc());
  const double expected = offset_voltage_spec(d.summary.mean, d.summary.stddev);
  EXPECT_DOUBLE_EQ(d.spec(), expected);
  EXPECT_GT(d.spec(), 5.0 * d.summary.stddev);
}

TEST(MonteCarlo, DelayDistributionIsTight) {
  const DelayDistribution d = measure_delay_distribution(fresh_nssa(), small_mc(12));
  EXPECT_EQ(d.delays.size(), 12u);
  EXPECT_GT(d.summary.mean, 8e-12);
  EXPECT_LT(d.summary.mean, 22e-12);
  // Mismatch perturbs delay by a few percent only.
  EXPECT_LT(d.summary.stddev, 0.2 * d.summary.mean);
}

TEST(MonteCarlo, ConditionStressMapDispatchesByKind) {
  Condition nssa = aged_nssa("80r0");
  Condition issa = nssa;
  issa.kind = sa::SenseAmpKind::kIssa;
  const auto nssa_map = condition_stress_map(nssa);
  const auto issa_map = condition_stress_map(issa);
  EXPECT_EQ(nssa_map.count("Mpass"), 1u);
  EXPECT_EQ(issa_map.count("Mpass"), 0u);
  EXPECT_EQ(issa_map.count("M3"), 1u);
}

// Regression: build_sample used to recompute the condition stress map for
// every sample, contradicting the "compute once" comment in the distribution
// loop.  A distribution call must evaluate condition_stress_map exactly once
// regardless of the sample count.
TEST(MonteCarlo, StressMapComputedOncePerOffsetDistribution) {
  const Condition c = aged_nssa("80r0");
  const std::uint64_t before = condition_stress_map_builds();
  measure_offset_distribution(c, small_mc(6));
  EXPECT_EQ(condition_stress_map_builds() - before, 1u);
}

TEST(MonteCarlo, StressMapComputedOncePerDelayDistribution) {
  const Condition c = aged_nssa("80r0");
  const std::uint64_t before = condition_stress_map_builds();
  measure_delay_distribution(c, small_mc(4));
  EXPECT_EQ(condition_stress_map_builds() - before, 1u);
}

TEST(MonteCarlo, FreshConditionBuildsNoStressMap) {
  const std::uint64_t before = condition_stress_map_builds();
  measure_offset_distribution(fresh_nssa(), small_mc(4));
  EXPECT_EQ(condition_stress_map_builds() - before, 0u);
}

// The fast path's warm-start model is fitted once per (kind, config) and
// process, before the sample loop: never per sample or per worker.  Each
// test runs at a supply no other test of this file fits.
TEST(MonteCarlo, OffsetModelFittedOncePerConfigSerial) {
  Condition c = fresh_nssa();
  c.config.vdd = 0.97;
  util::ThreadPool no_workers(0);
  McConfig mc = small_mc(4);
  mc.pool = &no_workers;
  EXPECT_EQ(sa::testing::offset_model_fits([&] { measure_offset_distribution(c, mc); }), 1u);
  EXPECT_EQ(sa::testing::offset_model_fits([&] { measure_offset_distribution(c, mc); }), 0u);
}

TEST(MonteCarlo, OffsetModelFittedOncePerConfigOnAPool) {
  Condition c = fresh_nssa();
  c.config.vdd = 0.96;
  util::ThreadPool pool(4);
  McConfig mc = small_mc(8);
  mc.pool = &pool;
  EXPECT_EQ(sa::testing::offset_model_fits([&] { measure_offset_distribution(c, mc); }), 1u);
  EXPECT_EQ(sa::testing::offset_model_fits([&] { measure_offset_distribution(c, mc); }), 0u);
}

TEST(MonteCarlo, DelayDistributionFitsNoOffsetModel) {
  Condition c = fresh_nssa();
  c.config.vdd = 0.95;
  EXPECT_EQ(sa::testing::offset_model_fits([&] { measure_delay_distribution(c, small_mc(2)); }),
            0u);
}

TEST(MonteCarlo, SharedStressMapMatchesPerSampleBuild) {
  const Condition c = aged_nssa("80r0");
  const McConfig mc = small_mc();
  const aging::DeviceStressMap stress = condition_stress_map(c);
  auto self = build_sample(c, mc, 5);
  auto shared = build_sample(c, mc, 5, &stress);
  for (const auto& m : self.netlist().mosfets()) {
    EXPECT_EQ(m.inst.delta_vth, shared.netlist().find_mosfet(m.name).inst.delta_vth) << m.name;
  }
}

TEST(MonteCarlo, BuildSampleAppliesShifts) {
  const McConfig mc = small_mc();
  auto circuit = build_sample(aged_nssa("80r0"), mc, 3);
  double total = 0.0;
  for (const auto& m : circuit.netlist().mosfets()) total += std::fabs(m.inst.delta_vth);
  EXPECT_GT(total, 0.0);
}

TEST(MonteCarlo, FreshSampleHasOnlyMismatch) {
  // With aging disabled the shifts must be pure mismatch (symmetric sign mix).
  const McConfig mc = small_mc();
  auto aged = build_sample(aged_nssa("80r0"), mc, 3);
  auto fresh = build_sample(fresh_nssa(), mc, 3);
  const double aged_mdown = aged.netlist().find_mosfet("Mdown").inst.delta_vth;
  const double fresh_mdown = fresh.netlist().find_mosfet("Mdown").inst.delta_vth;
  EXPECT_GT(aged_mdown, fresh_mdown);  // BTI only adds positive shift
}

}  // namespace
}  // namespace issa::analysis
