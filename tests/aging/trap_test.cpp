#include "issa/aging/trap.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "issa/aging/bti_params.hpp"
#include "issa/util/statistics.hpp"

namespace issa::aging {
namespace {

device::MosInstance nmos() {
  device::MosInstance m;
  m.card = device::ptm45_nmos();
  m.type = device::MosType::kNmos;
  m.w_over_l = 17.8;
  return m;
}

constexpr double kT25 = 298.15;
constexpr double kT125 = 398.15;

Trap make_trap(double tau_c, double tau_e, double dvth = 1e-3) {
  return Trap{tau_c, tau_e, dvth};
}

double trap_occupancy(const BtiParams& p, const Trap& trap, const StressProfile& profile,
                      double time_s, double temperature_k) {
  return OccupancyKernel(p, profile, temperature_k).occupancy(trap, time_s);
}

TEST(Arrhenius, ReferenceTemperatureIsUnity) {
  EXPECT_DOUBLE_EQ(arrhenius_factor(0.7, 300.0, 300.0), 1.0);
}

TEST(Arrhenius, HigherTemperatureAccelerates) {
  EXPECT_LT(arrhenius_factor(0.7, 398.15, 298.15), 1.0);
  EXPECT_GT(arrhenius_factor(0.7, 273.15, 298.15), 1.0);
}

TEST(Arrhenius, ZeroActivationIsFlat) {
  EXPECT_DOUBLE_EQ(arrhenius_factor(0.0, 398.15, 298.15), 1.0);
}

TEST(TrapOccupancy, ZeroAtZeroTime) {
  const BtiParams p = default_bti();
  const Trap t = make_trap(1.0, 1e3);
  EXPECT_DOUBLE_EQ(trap_occupancy(p, t, StressProfile::duty_cycle(1.0, 1.0), 0.0, kT25), 0.0);
}

TEST(TrapOccupancy, ReducesToPaperEq1UnderDcStress) {
  // Pure DC stress: P(t) = tau_e/(tau_c+tau_e) * (1 - exp(-(1/tau_c + 1/tau_e) t))
  // -- but with our stress/relax split, emission is inactive during stress,
  // so the DC limit is P(t) = 1 - exp(-t/tau_c).
  BtiParams p = default_bti();
  p.gamma_field = 0.0;  // isolate the time dependence
  const Trap t = make_trap(10.0, 1e6);
  const StressProfile dc = StressProfile::duty_cycle(1.0, p.vdd_ref);
  for (double time : {1.0, 10.0, 100.0}) {
    const double expected = 1.0 - std::exp(-time / t.tau_c_ref);
    EXPECT_NEAR(trap_occupancy(p, t, dc, time, p.temp_ref), expected, 1e-9) << time;
  }
}

TEST(TrapOccupancy, MonotoneInTime) {
  const BtiParams p = default_bti();
  const Trap t = make_trap(1e3, 1e5);
  const StressProfile profile = StressProfile::duty_cycle(0.4, 1.0);
  double prev = 0.0;
  for (double time : {1.0, 1e2, 1e4, 1e6, 1e8}) {
    const double occ = trap_occupancy(p, t, profile, time, kT25);
    EXPECT_GE(occ, prev);
    prev = occ;
  }
  EXPECT_LE(prev, 1.0);
}

TEST(TrapOccupancy, MonotoneInDuty) {
  const BtiParams p = default_bti();
  const Trap t = make_trap(1e4, 1e4);
  double prev = 0.0;
  for (double duty : {0.1, 0.3, 0.5, 0.8, 1.0}) {
    const double occ =
        trap_occupancy(p, t, StressProfile::duty_cycle(duty, 1.0), 1e6, kT25);
    EXPECT_GT(occ, prev);
    prev = occ;
  }
}

TEST(TrapOccupancy, HotterCapturesFaster) {
  const BtiParams p = default_bti();
  const Trap t = make_trap(1e6, 1e12);
  const StressProfile profile = StressProfile::duty_cycle(0.5, 1.0);
  const double cold = trap_occupancy(p, t, profile, 1e5, kT25);
  const double hot = trap_occupancy(p, t, profile, 1e5, kT125);
  EXPECT_GT(hot, cold);
}

TEST(TrapOccupancy, HigherStressVoltageCapturesFaster) {
  const BtiParams p = default_bti();
  const Trap t = make_trap(1e6, 1e12);
  const double nom =
      trap_occupancy(p, t, StressProfile::duty_cycle(0.5, 1.0), 1e5, kT25);
  const double high =
      trap_occupancy(p, t, StressProfile::duty_cycle(0.5, 1.1), 1e5, kT25);
  EXPECT_GT(high, nom);
}

TEST(TrapOccupancy, FastEmissionLimitsSteadyState) {
  const BtiParams p = default_bti();
  // tau_e << tau_c: trap empties as fast as it fills -> low occupancy even
  // after forever.
  const Trap leaky = make_trap(1e3, 1.0);
  const Trap sticky = make_trap(1e3, 1e9);
  const StressProfile profile = StressProfile::duty_cycle(0.5, 1.0);
  const double occ_leaky = trap_occupancy(p, leaky, profile, 1e9, kT25);
  const double occ_sticky = trap_occupancy(p, sticky, profile, 1e9, kT25);
  EXPECT_LT(occ_leaky, 0.1);
  EXPECT_GT(occ_sticky, 0.9);
}

TEST(TrapOccupancy, NoStressNoCapture) {
  const BtiParams p = default_bti();
  const Trap t = make_trap(1.0, 1.0);
  EXPECT_DOUBLE_EQ(trap_occupancy(p, t, StressProfile::relaxed(), 1e9, kT25), 0.0);
}

TEST(SampleTrapSet, CountScalesWithArea) {
  const BtiParams p = default_bti();
  device::MosInstance small = nmos();
  small.w_over_l = 2.0;
  device::MosInstance big = nmos();
  big.w_over_l = 32.0;
  // Average over several seeds.
  double small_count = 0.0;
  double big_count = 0.0;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    small_count += static_cast<double>(sample_trap_set(p, small, seed).traps.size());
    big_count += static_cast<double>(sample_trap_set(p, big, seed + 1000).traps.size());
  }
  EXPECT_NEAR(big_count / small_count, 16.0, 4.0);
}

TEST(SampleTrapSet, PmosGetsMoreTraps) {
  BtiParams p = default_bti();
  p.pmos_density_factor = 2.0;
  device::MosInstance n = nmos();
  device::MosInstance pm = n;
  pm.type = device::MosType::kPmos;
  double n_count = 0.0;
  double p_count = 0.0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    n_count += static_cast<double>(sample_trap_set(p, n, seed).traps.size());
    p_count += static_cast<double>(sample_trap_set(p, pm, seed).traps.size());
  }
  EXPECT_NEAR(p_count / n_count, 2.0, 0.3);
}

TEST(SampleTrapSet, IsDeterministicInSeed) {
  const BtiParams p = default_bti();
  const auto a = sample_trap_set(p, nmos(), 99);
  const auto b = sample_trap_set(p, nmos(), 99);
  ASSERT_EQ(a.traps.size(), b.traps.size());
  for (std::size_t i = 0; i < a.traps.size(); ++i) {
    EXPECT_EQ(a.traps[i].tau_c_ref, b.traps[i].tau_c_ref);
    EXPECT_EQ(a.traps[i].delta_vth, b.traps[i].delta_vth);
  }
}

TEST(SampleTrapSet, TauWithinConfiguredRange) {
  const BtiParams p = default_bti();
  const auto set = sample_trap_set(p, nmos(), 7);
  for (const auto& t : set.traps) {
    EXPECT_GE(t.tau_c_ref, p.tau_c_min * (1 - 1e-9));
    EXPECT_LE(t.tau_c_ref, p.tau_c_max * (1 + 1e-9));
    EXPECT_GE(t.tau_e_ref / t.tau_c_ref, p.tau_e_ratio_min * (1 - 1e-9));
    EXPECT_LE(t.tau_e_ref / t.tau_c_ref, p.tau_e_ratio_max * (1 + 1e-9));
    EXPECT_GT(t.delta_vth, 0.0);
  }
}

TEST(SampleTrapSet, EmissionRatioWithinConfiguredRange) {
  // tau_e / tau_c is drawn log-uniform on [tau_e_ratio_min, tau_e_ratio_max];
  // over many traps and a wide range, no ratio may leave it.
  BtiParams p = default_bti();
  p.tau_e_ratio_min = 1e-6;
  p.tau_e_ratio_max = 1e9;
  std::size_t traps = 0;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    for (const auto& t : sample_trap_set(p, nmos(), seed).traps) {
      const double ratio = t.tau_e_ref / t.tau_c_ref;
      EXPECT_GE(ratio, p.tau_e_ratio_min * (1 - 1e-12));
      EXPECT_LE(ratio, p.tau_e_ratio_max * (1 + 1e-12));
      ++traps;
    }
  }
  EXPECT_GT(traps, 10000u);
}

TEST(SampleTrapSet, EmissionRatioLogMeanIsGeometricMean) {
  // Log-uniform: the mean of log10(tau_e / tau_c) sits at the log of the
  // range's geometric mean, here 0 (ratios in [1e-3, 1e3]).
  BtiParams p = default_bti();
  p.tau_e_ratio_min = 1e-3;
  p.tau_e_ratio_max = 1e3;
  util::RunningStats log_ratio;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    for (const auto& t : sample_trap_set(p, nmos(), seed).traps) {
      log_ratio.add(std::log10(t.tau_e_ref / t.tau_c_ref));
    }
  }
  EXPECT_GT(log_ratio.count(), 50000u);
  EXPECT_NEAR(log_ratio.mean(), 0.0, 0.02);
}

TEST(SampleTrapSet, MeanImpactMatchesEtaFactor) {
  const BtiParams p = default_bti();
  const auto inst = nmos();
  util::RunningStats stats;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    for (const auto& t : sample_trap_set(p, inst, seed).traps) stats.add(t.delta_vth);
  }
  const double area = inst.width() * inst.card.length;
  const double eta = p.eta_factor * 1.602176634e-19 / (inst.card.cox * area);
  EXPECT_NEAR(stats.mean(), eta, eta * 0.1);
}

}  // namespace
}  // namespace issa::aging
