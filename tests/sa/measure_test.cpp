#include "issa/sa/measure.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "circuit/kcl_oracle.hpp"
#include "issa/analysis/montecarlo.hpp"
#include "issa/circuit/simulator.hpp"
#include "issa/sa/double_tail.hpp"
#include "issa/util/metrics.hpp"
#include "issa/util/trace.hpp"
#include "issa/workload/device_names.hpp"

namespace issa::sa {
namespace {

namespace nm = workload::names;

// The bracket width at which measure_offset stops [V].
constexpr double kSearchTolerance = 5e-5;

TEST(Measure, NssaSensesBothDirections) {
  auto c = build_nssa(nominal_config());
  EXPECT_TRUE(run_sense(c, 0.05).read_one);
  EXPECT_FALSE(run_sense(c, -0.05).read_one);
}

TEST(Measure, IssaSensesBothDirections) {
  auto c = build_issa(nominal_config());
  EXPECT_TRUE(run_sense(c, 0.05).read_one);
  EXPECT_FALSE(run_sense(c, -0.05).read_one);
}

TEST(Measure, IssaSwappedReadsInvertedValue) {
  // With the crossed pass pair active, the same bitline input lands on the
  // opposite internal node, so the raw circuit decision flips — this is why
  // the control logic must invert the final read value (Sec. III-A).
  auto c = build_issa(nominal_config());
  c.set_swapped(true);
  EXPECT_FALSE(run_sense(c, 0.05).read_one);
  EXPECT_TRUE(run_sense(c, -0.05).read_one);
}

TEST(Measure, MismatchFreeOffsetIsNearZero) {
  auto c = build_nssa(nominal_config());
  const OffsetResult r = measure_offset(c);
  // The mirror-symmetric latch balances exactly at vin = 0, where the warm
  // start probes first.  That probe's split is zero, so the flip it
  // extrapolates is exactly vin = 0, and one transient settles the search.
  EXPECT_EQ(r.offset, 0.0);
  EXPECT_FALSE(r.saturated);
  EXPECT_EQ(r.transients, 1);
}

TEST(Measure, WeakenedMdownShiftsOffsetPositive) {
  // The paper's sign discussion: stressing Mdown (read-0 pull-down of S)
  // raises the required offset in the read-0 direction -> positive shift.
  auto c = build_nssa(nominal_config());
  c.netlist().find_mosfet(nm::kMdown).inst.delta_vth = 0.03;
  const OffsetResult r = measure_offset(c);
  EXPECT_GT(r.offset, 0.015);
  EXPECT_LT(r.offset, 0.06);
}

TEST(Measure, WeakenedMdownBarShiftsOffsetNegative) {
  auto c = build_nssa(nominal_config());
  c.netlist().find_mosfet(nm::kMdownBar).inst.delta_vth = 0.03;
  const OffsetResult r = measure_offset(c);
  EXPECT_LT(r.offset, -0.015);
}

TEST(Measure, WeakenedMupBarShiftsOffsetPositive) {
  auto c = build_nssa(nominal_config());
  c.netlist().find_mosfet(nm::kMupBar).inst.delta_vth = 0.05;
  EXPECT_GT(measure_offset(c).offset, 0.0);
}

TEST(Measure, SymmetricAgingCancels) {
  auto c = build_nssa(nominal_config());
  c.netlist().find_mosfet(nm::kMdown).inst.delta_vth = 0.03;
  c.netlist().find_mosfet(nm::kMdownBar).inst.delta_vth = 0.03;
  EXPECT_LT(std::fabs(measure_offset(c).offset), 2e-3);
}

TEST(Measure, SaturationIsFlagged) {
  auto c = build_nssa(nominal_config());
  c.netlist().find_mosfet(nm::kMdown).inst.delta_vth = 0.5;  // absurdly aged
  const OffsetResult r = measure_offset(c, {.robust = true});
  EXPECT_TRUE(r.saturated);
}

TEST(Measure, DelayPairIsPlausible) {
  auto c = build_nssa(nominal_config());
  const DelayPair d = measure_delay(c);
  // Fresh symmetric SA: both directions nearly equal, near the paper's 13.6 ps.
  EXPECT_NEAR(d.read_one, d.read_zero, 1e-12);
  EXPECT_GT(d.mean(), 8e-12);
  EXPECT_LT(d.mean(), 22e-12);
  EXPECT_GE(d.worst(), d.mean());
}

TEST(Measure, AgedDirectionIsSlower) {
  auto c = build_nssa(nominal_config());
  // Stress the read-0 path (Mdown + MupBar): reading 0 gets slower.
  c.netlist().find_mosfet(nm::kMdown).inst.delta_vth = 0.08;
  c.netlist().find_mosfet(nm::kMupBar).inst.delta_vth = 0.08;
  const DelayPair d = measure_delay(c);
  EXPECT_GT(d.read_zero, d.read_one);
}

TEST(Measure, LowerVddIsSlower) {
  SenseAmpConfig lo = nominal_config();
  lo.vdd = 0.9;
  SenseAmpConfig hi = nominal_config();
  hi.vdd = 1.1;
  auto clo = build_nssa(lo);
  auto chi = build_nssa(hi);
  EXPECT_GT(measure_delay(clo).mean(), measure_delay(chi).mean());
}

TEST(Measure, HotterIsSlower) {
  SenseAmpConfig hot = nominal_config();
  hot.temperature_c = 125.0;
  auto c25 = build_nssa(nominal_config());
  auto c125 = build_nssa(hot);
  EXPECT_GT(measure_delay(c125).mean(), measure_delay(c25).mean());
}

TEST(Measure, IssaDelayOverheadIsSmall) {
  auto nssa = build_nssa(nominal_config());
  auto issa = build_issa(nominal_config());
  const double dn = measure_delay(nssa).mean();
  const double di = measure_delay(issa).mean();
  EXPECT_GT(di, dn);            // extra junction load costs something
  EXPECT_LT(di, dn * 1.10);     // ... but stays marginal (paper: ~2%)
}

TEST(Measure, DelayLadderFailsWithItsOwnError) {
  // A latch sample whose offset exceeds the doubled 0.4 V swing cannot read
  // one direction.  measure_delay must say so itself, not fail in a DC solve
  // at a wider swing (at 0.6 V the latch SAs' DC solve does not converge).
  for (const SenseAmpKind kind : {SenseAmpKind::kNssa, SenseAmpKind::kIssa}) {
    auto c = build_sense_amp(kind, nominal_config());
    c.netlist().find_mosfet(nm::kMdown).inst.delta_vth = 0.4;
    try {
      measure_delay(c);
      ADD_FAILURE() << kind_name(kind) << ": measure_delay did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(dynamic_cast<const circuit::ConvergenceError*>(&e), nullptr)
          << kind_name(kind) << ": " << e.what();
      EXPECT_EQ(std::string_view(e.what()).rfind("measure_delay:", 0), 0u)
          << kind_name(kind) << ": " << e.what();
    }
  }
}

TEST(Measure, RunSenseTransientExposesWaveforms) {
  auto c = build_nssa(nominal_config());
  const auto tr = run_sense_transient(c, 0.05);
  EXPECT_GT(tr.steps(), 100u);
  // S and SBar must split to the rails by the end.
  const double s_end = tr.node_wave(c.node_s()).back();
  const double sbar_end = tr.node_wave(c.node_sbar()).back();
  EXPECT_GT(s_end - sbar_end, 0.5);
}

TEST(Measure, FastPathMatchesLegacyWithinTolerance) {
  // The robust profile is the pre-fast-path behaviour: full-window
  // bisection, every transient integrated to t_stop, a fresh simulator per run.
  // Inputs: a threshold shift on one input-side device of the NSSA and of
  // both double-tail kinds.
  const OffsetSearchOptions legacy{.robust = true};
  const std::pair<SenseAmpKind, std::string_view> inputs[] = {
      {SenseAmpKind::kNssa, nm::kMdown},
      {SenseAmpKind::kDoubleTail, dt_names::kMin},
      {SenseAmpKind::kDoubleTailSwitching, dt_names::kMin}};
  for (const auto& [kind, device] : inputs) {
    for (const double dvth : {0.0, 0.02, -0.015}) {
      auto c = build_sense_amp(kind, nominal_config());
      c.netlist().find_mosfet(device).inst.delta_vth = dvth;
      const OffsetResult robust = measure_offset(c, legacy);
      const OffsetResult fast = measure_offset(c);
      // The robust search reports the midpoint of a bracket of width
      // `tolerance`, the fast path an extrapolated or interpolated flip,
      // which may move the result within a couple of tolerances only.
      EXPECT_NEAR(fast.offset, robust.offset, 3.0 * kSearchTolerance)
          << kind_name(kind) << ", " << dvth;
      EXPECT_EQ(fast.saturated, robust.saturated) << kind_name(kind) << ", " << dvth;
    }
  }
}

// Solver work of the offset searches over a fixed sample set, in counts that
// are bit-deterministic (no timing enters them).
struct SearchWork {
  std::uint64_t transients = 0;
  std::uint64_t steps = 0;
  std::uint64_t newton_iterations = 0;
  std::uint64_t jacobian_builds = 0;
  std::uint64_t device_evaluations = 0;
  std::uint64_t lu_factorizations = 0;
};

// Counts the solver work `run()` does.
template <typename Run>
SearchWork solver_work(Run&& run) {
  namespace mnames = util::metrics::names;
  util::metrics::Registry& registry = util::metrics::Registry::instance();
  const bool metrics_were_enabled = util::metrics::enabled();
  util::metrics::set_enabled(true);
  const util::metrics::Snapshot before = registry.snapshot();
  run();
  const util::metrics::Snapshot done = registry.snapshot().delta_since(before);
  util::metrics::set_enabled(metrics_were_enabled);
  SearchWork work;
  work.transients = done.value(util::trace::spans::kTransient);
  work.steps = done.value(mnames::kTransientSteps);
  work.newton_iterations = done.value(mnames::kNewtonIterations);
  work.jacobian_builds = done.value(mnames::kJacobianBuilds);
  work.device_evaluations = done.value(mnames::kDeviceEvaluations);
  work.lu_factorizations = done.value(mnames::kLuFactorizations);
  return work;
}

// The guards' sample set: samples 0-7 at seed 42 of four 80r0 conditions.
// Fresh, aged, aged ISSA and aged hot: the offsets the fast path's warm start
// predicts best and worst.  The warm start's models are fitted here, before
// any counting, so the counts are the measurements' alone, whichever test
// ran first in this process.  `dt_scale` scales the sensing step of every
// condition; the samples' mismatch and aging do not depend on it.
std::vector<SenseAmpCircuit> guard_samples(double dt_scale = 1.0) {
  auto condition = [dt_scale](SenseAmpKind kind, double stress_time_s, double temperature_c) {
    analysis::Condition c;
    c.kind = kind;
    c.config = nominal_config();
    c.config.temperature_c = temperature_c;
    c.config.timing.dt *= dt_scale;
    c.workload = workload::workload_from_name("80r0");
    c.stress_time_s = stress_time_s;
    return c;
  };
  const analysis::Condition conditions[] = {
      condition(SenseAmpKind::kNssa, 0.0, 25.0), condition(SenseAmpKind::kNssa, 1e8, 25.0),
      condition(SenseAmpKind::kIssa, 1e8, 25.0), condition(SenseAmpKind::kNssa, 1e8, 125.0)};
  analysis::McConfig mc;
  mc.seed = 42;
  std::vector<SenseAmpCircuit> samples;
  for (const analysis::Condition& c : conditions) {
    offset_model(c.kind, c.config);
    for (std::size_t i = 0; i < 8; ++i) samples.push_back(analysis::build_sample(c, mc, i));
  }
  return samples;
}

SearchWork offset_search_work(bool robust) {
  std::vector<SenseAmpCircuit> samples = guard_samples();
  std::uint64_t reported = 0;
  const SearchWork work = solver_work([&] {
    for (SenseAmpCircuit& circuit : samples) {
      reported += static_cast<std::uint64_t>(
          measure_offset(circuit, OffsetSearchOptions{.robust = robust}).transients);
    }
  });
  EXPECT_EQ(work.transients, reported);
  return work;
}

TEST(Measure, WarmStartCutsTransientCount) {
  // The guard on the fast path's cost: 32 offset searches (samples 0-7 at
  // seed 42 of four conditions) may not do more solver work than when the
  // guard was set.  The counts are deterministic, so a rise is a real
  // regression, never noise.  A change that cuts work lowers the ceilings.
  const SearchWork fast = offset_search_work(/*robust=*/false);
  EXPECT_LE(fast.transients, 40u);
  EXPECT_LE(fast.steps, 10000u);
  EXPECT_LE(fast.newton_iterations, 12902u);
  EXPECT_LE(fast.jacobian_builds, 12904u);
  EXPECT_LE(fast.device_evaluations, 159986u);
  EXPECT_LE(fast.lu_factorizations, 12902u);

  // The warm start's model costs one fit per (kind, config) and process; cap
  // one NSSA fit too, so the fit cannot grow unseen.
  const SearchWork fit =
      solver_work([] { fit_offset_model(SenseAmpKind::kNssa, nominal_config()); });
  EXPECT_LE(fit.transients, 27u);
  EXPECT_LE(fit.steps, 6102u);
  EXPECT_LE(fit.newton_iterations, 8329u);
  EXPECT_LE(fit.jacobian_builds, 8329u);
  EXPECT_LE(fit.device_evaluations, 99948u);
  EXPECT_LE(fit.lu_factorizations, 8015u);

  // Full-window bisection needs ceil(log2(2 * 0.25 / 5e-5)) = 14 full-length
  // transients per search; the fast path must undercut it on every count.
  const SearchWork robust = offset_search_work(/*robust=*/true);
  EXPECT_EQ(robust.transients, 32u * 14u);
  EXPECT_LT(fast.transients, robust.transients);
  EXPECT_LT(fast.steps, robust.steps);
  EXPECT_LT(fast.newton_iterations, robust.newton_iterations);
  EXPECT_LT(fast.jacobian_builds, robust.jacobian_builds);
  EXPECT_LT(fast.lu_factorizations, robust.lu_factorizations);
}

TEST(Measure, ReportedOffsetBracketsTheFlip) {
  // The fast path reports a flip extrapolated along the split's slope, or
  // interpolated across a linear bracket up to 2 mV wide, not the midpoint
  // of a 50 uV one.  The paper's method (a fresh simulator, a full-length
  // transient) must still read either side of the reported flip correctly at
  // one search tolerance from it.  Besides the guard samples, samples 0-23
  // of NSSA 80r0 at +10% Vdd: the highest latch gain of the paper's corners,
  // where the split saturates soonest and an extrapolation overshoots most
  // (accepting every linear split's step under 0.5 mV misses sample 20 by
  // 56 uV).  And samples 0-11 of both aged double-tail kinds at 80r0, whose
  // searches leave the one-probe loop most often (DT-SW sample 8 failed
  // while a search reused the previous probe's DC point).
  std::vector<SenseAmpCircuit> samples = guard_samples();
  auto aged = [](SenseAmpKind kind, const SenseAmpConfig& config) {
    analysis::Condition c;
    c.kind = kind;
    c.config = config;
    c.workload = workload::workload_from_name("80r0");
    c.stress_time_s = 1e8;
    return c;
  };
  analysis::McConfig mc;
  mc.seed = 42;
  const analysis::Condition high_vdd = aged(SenseAmpKind::kNssa, config_with_vdd_scale(1.1));
  for (std::size_t i = 0; i < 24; ++i) samples.push_back(analysis::build_sample(high_vdd, mc, i));
  for (const SenseAmpKind kind : {SenseAmpKind::kDoubleTail, SenseAmpKind::kDoubleTailSwitching}) {
    const analysis::Condition c = aged(kind, nominal_config());
    for (std::size_t i = 0; i < 12; ++i) samples.push_back(analysis::build_sample(c, mc, i));
  }
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double flip = -measure_offset(samples[i]).offset;
    EXPECT_FALSE(run_sense(samples[i], flip - kSearchTolerance).read_one) << "sample " << i;
    EXPECT_TRUE(run_sense(samples[i], flip + kSearchTolerance).read_one) << "sample " << i;
  }
}

TEST(Measure, ExtrapolatedFlipFollowsTheKink) {
  using detail::extrapolated_flip;
  // On one side of vin = 0 the flip is x - g / slope, with that side's
  // slope: d_bl below 0, -d_blbar above it.
  EXPECT_DOUBLE_EQ(*extrapolated_flip(-2e-3, -0.1, 100.0, -300.0), -1e-3);
  EXPECT_DOUBLE_EQ(*extrapolated_flip(3e-3, 0.3, 100.0, -300.0), 2e-3);
  // Across 0 the split climbs 100 V/V * 1 mV = 0.1 V to g(0) = -0.1 V, and
  // the other side's 300 V/V closes that in 1/3 mV.  A one-sided slope
  // would put the flip at +1 mV.
  EXPECT_NEAR(*extrapolated_flip(-1e-3, -0.2, 100.0, -300.0), 1e-3 / 3.0, 1e-15);
  EXPECT_NEAR(*extrapolated_flip(1e-3, 0.5, 100.0, -300.0), -2e-3, 1e-15);
  // A balanced split is its own flip, and no positive slope gives none.
  EXPECT_EQ(*extrapolated_flip(0.0, 0.0, 100.0, -300.0), 0.0);
  EXPECT_FALSE(extrapolated_flip(1e-3, 0.1, 100.0, 300.0).has_value());
  EXPECT_FALSE(extrapolated_flip(1e-3, 0.1, 0.0, -300.0).has_value());
}

TEST(Measure, SplitSensitivityMatchesFiniteDifference) {
  // The one-probe flip extrapolates along the final split's sensitivities
  // to V(BL) and V(BLBar).  On the 32 guard samples at the offset model's
  // prediction (the fast path's first probe) each must match a central
  // difference of the split in that bitline's source at 10 uV steps within
  // 10%.  They are the sensitivities of a point less than 0.1 mV from the
  // accepted one, where Newton's last update was final without assembling.
  constexpr double kStep = 10e-6;
  std::vector<SenseAmpCircuit> samples = guard_samples();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    SenseAmpCircuit& c = samples[i];
    const double vin = -offset_model(c.kind(), c.config()).predict(c);
    c.set_input_differential(vin);
    circuit::TransientOptions opt;
    opt.tstop = c.config().timing.t_stop;
    opt.dt = c.config().timing.dt;
    opt.dc_guess = c.dc_guess(vin);
    auto split = [&](const circuit::TransientResult& tr) {
      return tr.node_wave(c.node_s()).back() - tr.node_wave(c.node_sbar()).back();
    };
    circuit::TransientOptions with = opt;
    with.sensitivity_to = {c.node_bl(), c.node_blbar()};
    const circuit::TransientResult tr =
        circuit::Simulator(c.netlist(), c.config().temperature_k()).run_transient(with);
    const char* sources[] = {"Vbl", "Vblbar"};
    for (std::size_t k = 0; k < 2; ++k) {
      const auto s = static_cast<std::size_t>(c.node_s());
      const auto sbar = static_cast<std::size_t>(c.node_sbar());
      const double analytic = tr.sensitivity(k)[s] - tr.sensitivity(k)[sbar];
      circuit::SourceWave& wave = c.netlist().find_vsource(sources[k]).wave;
      auto shifted_split = [&](double dv) {
        wave.offset_by(dv);
        const double g =
            split(circuit::Simulator(c.netlist(), c.config().temperature_k()).run_transient(opt));
        wave.offset_by(-dv);
        return g;
      };
      const double central = (shifted_split(kStep) - shifted_split(-kStep)) / (2.0 * kStep);
      EXPECT_NEAR(analytic, central, 0.1 * std::fabs(central))
          << "sample " << i << ", " << sources[k] << ", split " << split(tr);
    }
  }
}

TEST(Measure, EveryAcceptedStepMeetsKcl) {
  // The solver's results checked from the outside: at every recorded point
  // of a full-length sensing transient, the KCL residual of each free node is
  // rebuilt from the netlist alone and must stay below the solver's own
  // acceptance floor.  The samples are the 32 guard samples, each at its
  // predicted flip (the slowest, most marginal run) and at both full swings.
  // The floor of a Newton solve, max(1e-9 A, 2 gmin) [A].  The solver accepts
  // any point under it, so the worst point sits just below: 1.9998e-9 A, on a
  // DC point.  A final-update bound of 3e-4 V reaches 2.34e-9 A.
  constexpr double kAcceptanceFloor = 2e-9;
  std::vector<SenseAmpCircuit> samples = guard_samples();
  for (std::size_t s = 0; s < samples.size(); ++s) {
    SenseAmpCircuit& circuit = samples[s];
    const double predicted = offset_model(circuit.kind(), circuit.config()).predict(circuit);
    for (const double vin : {-predicted, 0.2, -0.2}) {
      circuit.set_input_differential(vin);
      circuit::TransientOptions options;
      options.tstop = circuit.config().timing.t_stop;
      options.dt = circuit.config().timing.dt;
      options.method = circuit::IntegrationMethod::kTrapezoidal;
      options.dc_guess = circuit.dc_guess(vin);
      const double temperature_k = circuit.config().temperature_k();
      circuit::Simulator sim(circuit.netlist(), temperature_k);
      const circuit::TransientResult tr = sim.run_transient(options);  // every node recorded
      const circuit::testing::KclWorst worst =
          circuit::testing::worst_kcl_residual(circuit.netlist(), temperature_k, tr);
      EXPECT_LT(worst.residual, kAcceptanceFloor)
          << "sample " << s << ", vin " << vin << " V: node " << worst.node
          << " at t = " << worst.time;
    }
  }
}

TEST(Measure, DelayWorkCount) {
  // The same guard for measure_delay, the layer of the Fig. 7 sweep: two
  // early-exit transients per sample on the same 32 samples.
  std::vector<SenseAmpCircuit> samples = guard_samples();
  const SearchWork delay = solver_work([&] {
    for (SenseAmpCircuit& circuit : samples) measure_delay(circuit);
  });
  EXPECT_LE(delay.transients, 64u);
  EXPECT_LE(delay.steps, 8173u);
  EXPECT_LE(delay.newton_iterations, 15132u);
  EXPECT_LE(delay.jacobian_builds, 15385u);
  EXPECT_LE(delay.device_evaluations, 191700u);
  EXPECT_LE(delay.lu_factorizations, 10005u);
}

TEST(Measure, SealedDelayRunMatchesFullRun) {
  // measure_delay stops each run once its delay is in the record; the full
  // run to t_stop (the paper's method) must read the same delay, to the bit.
  std::vector<SenseAmpCircuit> samples = guard_samples();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const DelayPair d = measure_delay(samples[i]);
    const SenseRunResult one = run_sense(samples[i], 0.2);
    const SenseRunResult zero = run_sense(samples[i], -0.2);
    ASSERT_TRUE(one.delay && zero.delay) << "sample " << i;
    EXPECT_EQ(d.read_one, *one.delay) << "sample " << i;
    EXPECT_EQ(d.read_zero, *zero.delay) << "sample " << i;
  }
}

TEST(Measure, DefaultGridMatchesHalfStepOracle) {
  // Every sensing transient runs on the fixed grid of SenseTiming::dt, and
  // trapezoidal integration is second order: halving the step must move no
  // result that the paper reports.  The same 32 samples are measured on the
  // default grid and on the half-step oracle; the bounds sit at about twice
  // the default grid's error and below that of a grid twice as coarse.
  std::vector<SenseAmpCircuit> grid = guard_samples();
  std::vector<SenseAmpCircuit> oracle = guard_samples(0.5);
  ASSERT_EQ(grid.size(), oracle.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_EQ(oracle[i].config().timing.dt, 0.5 * grid[i].config().timing.dt);
    const DelayPair d = measure_delay(grid[i]);
    const DelayPair d_oracle = measure_delay(oracle[i]);
    EXPECT_NEAR(d.read_one, d_oracle.read_one, 10e-15) << "sample " << i;
    EXPECT_NEAR(d.read_zero, d_oracle.read_zero, 10e-15) << "sample " << i;
    EXPECT_NEAR(measure_offset(grid[i]).offset, measure_offset(oracle[i]).offset, 10e-6)
        << "sample " << i;

    // The warm start's model of each condition, fitted on either grid.
    if (i % 8 != 0) continue;
    const OffsetModel& model = offset_model(grid[i].kind(), grid[i].config());
    const OffsetModel& model_oracle = offset_model(oracle[i].kind(), oracle[i].config());
    ASSERT_EQ(model.sensitivity.size(), model_oracle.sensitivity.size());
    for (std::size_t k = 0; k < model.sensitivity.size(); ++k) {
      EXPECT_NEAR(model.sensitivity[k], model_oracle.sensitivity[k], 1.5e-4)
          << "sample " << i << ", MOSFET " << k;
    }
  }
}

TEST(Measure, FastPathIsDeterministic) {
  auto c = build_nssa(nominal_config());
  c.netlist().find_mosfet(nm::kMupBar).inst.delta_vth = 0.01;
  const OffsetResult a = measure_offset(c);
  const OffsetResult b = measure_offset(c);
  EXPECT_EQ(a.offset, b.offset);
  EXPECT_EQ(a.transients, b.transients);
}

TEST(Measure, SaturationIsFlaggedOnFastPath) {
  auto c = build_nssa(nominal_config());
  c.netlist().find_mosfet(nm::kMdown).inst.delta_vth = 0.5;
  EXPECT_TRUE(measure_offset(c).saturated);  // fast path on
}

TEST(Measure, SwappedCircuitOffsetIsRejected) {
  // Swapping inverts the decision's monotonicity in vin, which every search
  // assumes: both profiles would report a saturated offset whatever the
  // mismatch.  The paper's convention measures the unswapped orientation.
  auto c = build_issa(nominal_config());
  c.set_swapped(true);
  EXPECT_THROW(measure_offset(c), std::invalid_argument);
  EXPECT_THROW(measure_offset(c, {.robust = true}), std::invalid_argument);
}

std::size_t mosfet_index(const SenseAmpCircuit& c, std::string_view name) {
  const auto& mosfets = c.netlist().mosfets();
  for (std::size_t k = 0; k < mosfets.size(); ++k) {
    if (mosfets[k].name == name) return k;
  }
  ADD_FAILURE() << "no MOSFET " << name;
  return 0;
}

TEST(Measure, OffsetModelSeesTheCrossCoupledPairOneToOne) {
  // A threshold shift on the NMOS latch pair moves the flip point one for
  // one, with the sign of OffsetResult's read-0 convention.
  for (const SenseAmpKind kind : {SenseAmpKind::kNssa, SenseAmpKind::kIssa}) {
    const SenseAmpCircuit c = build_sense_amp(kind, nominal_config());
    const OffsetModel& model = offset_model(kind, nominal_config());
    ASSERT_EQ(model.sensitivity.size(), c.netlist().mosfets().size());
    EXPECT_EQ(model.sensitivity.size(), kind == SenseAmpKind::kNssa ? 12u : 14u);
    const double mdown = model.sensitivity[mosfet_index(c, nm::kMdown)];
    const double mdownbar = model.sensitivity[mosfet_index(c, nm::kMdownBar)];
    EXPECT_GE(mdown, 0.95);
    EXPECT_LE(mdown, 1.05);
    EXPECT_GE(mdownbar, -1.05);
    EXPECT_LE(mdownbar, -0.95);
    EXPECT_LT(std::fabs(model.offset0), kSearchTolerance);
  }
}

TEST(Measure, NominalOffsetModelIsAntisymmetric) {
  // The nominal testbench is mirror-symmetric, and a fit that reads
  // interpolated flips inherits that symmetry to rounding: a bracket
  // midpoint would carry the search's quantisation (about 1e-3 in each
  // sensitivity) instead.
  for (const SenseAmpKind kind : {SenseAmpKind::kNssa, SenseAmpKind::kIssa}) {
    const SenseAmpCircuit c = build_sense_amp(kind, nominal_config());
    const OffsetModel& model = offset_model(kind, nominal_config());
    auto s = [&](std::string_view name) { return model.sensitivity[mosfet_index(c, name)]; };
    EXPECT_LT(std::fabs(model.offset0), 1e-9);
    EXPECT_NEAR(s(nm::kMdown) + s(nm::kMdownBar), 0.0, 1e-6);
    EXPECT_NEAR(s(nm::kMup) + s(nm::kMupBar), 0.0, 1e-6);
    EXPECT_LT(std::fabs(s(nm::kMtop)), 1e-6);
    EXPECT_LT(std::fabs(s(nm::kMbottom)), 1e-6);
  }
}

TEST(Measure, OffsetModelPredictsFreshSamplesToHalfAMillivolt) {
  analysis::Condition fresh;
  fresh.config = nominal_config();
  analysis::McConfig mc;
  mc.seed = 42;
  const OffsetModel& model = offset_model(SenseAmpKind::kNssa, fresh.config);
  for (std::size_t i = 0; i < 8; ++i) {
    SenseAmpCircuit c = analysis::build_sample(fresh, mc, i);
    const double predicted = model.predict(c);
    EXPECT_LT(std::fabs(predicted - measure_offset(c).offset), 0.5e-3) << "sample " << i;
  }
}

TEST(Measure, OffsetModelFittedOnceUnderConcurrentFirstUse) {
  SenseAmpConfig config = nominal_config();
  config.temperature_c = 40.0;  // fitted by no other test
  const std::uint64_t before = offset_model_fits();
  const OffsetModel* seen[2] = {nullptr, nullptr};
  std::thread a([&] { seen[0] = &offset_model(SenseAmpKind::kIssa, config); });
  std::thread b([&] { seen[1] = &offset_model(SenseAmpKind::kIssa, config); });
  a.join();
  b.join();
  EXPECT_EQ(seen[0], seen[1]);
  EXPECT_EQ(offset_model_fits() - before, 1u);
  EXPECT_EQ(&offset_model(SenseAmpKind::kIssa, config), seen[0]);
  // Another key is another model.
  EXPECT_NE(&offset_model(SenseAmpKind::kIssa, nominal_config()), seen[0]);
}

TEST(Measure, OffsetModelFitsEveryKind) {
  // The double-tail kinds get a model like the latch SAs, with one
  // sensitivity per MOSFET; a model only predicts its own kind's testbench.
  for (const SenseAmpKind kind : {SenseAmpKind::kDoubleTail, SenseAmpKind::kDoubleTailSwitching}) {
    const OffsetModel& model = offset_model(kind, nominal_config());
    EXPECT_EQ(model.sensitivity.size(),
              build_sense_amp(kind, nominal_config()).netlist().mosfets().size());
  }
  const OffsetModel& nssa = offset_model(SenseAmpKind::kNssa, nominal_config());
  EXPECT_THROW(nssa.predict(build_issa(nominal_config())), std::logic_error);
}

TEST(Measure, DcEstimateTracksTransientOffset) {
  // The cheap estimator should agree with the authoritative transient
  // measurement to first order (ablation baseline).
  auto c = build_nssa(nominal_config());
  c.netlist().find_mosfet(nm::kMdown).inst.delta_vth = 0.02;
  c.netlist().find_mosfet(nm::kMupBar).inst.delta_vth = 0.01;
  const double estimate = estimate_offset_dc(c);
  const double measured = measure_offset(c).offset;
  EXPECT_NEAR(estimate, measured, 0.012);
  EXPECT_GT(estimate * measured, 0.0);  // same sign
}

}  // namespace
}  // namespace issa::sa
