#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <utility>
#include <vector>

#include "circuit/kcl_oracle.hpp"
#include "issa/circuit/parser.hpp"
#include "issa/circuit/simulator.hpp"
#include "issa/device/mos_params.hpp"
#include "issa/util/metrics.hpp"

namespace issa::circuit {
namespace {

constexpr double kT = 298.15;

// RC low-pass driven by a voltage step: the canonical transient check.
struct RcFixture {
  Netlist net;
  NodeId in = kGround;
  NodeId out = kGround;
  double r = 1000.0;
  double c = 1e-12;  // tau = 1 ns

  RcFixture() {
    in = net.node("in");
    out = net.node("out");
    net.add_vsource("V", in, kGround, SourceWave::step(0.0, 1.0, 0.0, 1e-12));
    net.add_resistor("R", in, out, r);
    net.add_capacitor("C", out, kGround, c);
  }
};

TEST(SimulatorTran, RcStepMatchesAnalyticTrapezoidal) {
  RcFixture f;
  Simulator sim(f.net, kT);
  TransientOptions opt;
  opt.tstop = 5e-9;
  opt.dt = 10e-12;
  opt.method = IntegrationMethod::kTrapezoidal;
  const TransientResult tr = sim.run_transient(opt);
  const double tau = f.r * f.c;
  for (double t : {0.5e-9, 1e-9, 2e-9, 4e-9}) {
    const double expected = 1.0 - std::exp(-(t - 1e-12 / 2) / tau);
    EXPECT_NEAR(tr.at(f.out, t), expected, 2e-3) << "t = " << t;
  }
}

TEST(SimulatorTran, RcStepMatchesAnalyticBackwardEuler) {
  RcFixture f;
  Simulator sim(f.net, kT);
  TransientOptions opt;
  opt.tstop = 5e-9;
  opt.dt = 5e-12;
  opt.method = IntegrationMethod::kBackwardEuler;
  const TransientResult tr = sim.run_transient(opt);
  const double tau = f.r * f.c;
  // BE is first order: looser tolerance.
  for (double t : {1e-9, 2e-9, 4e-9}) {
    const double expected = 1.0 - std::exp(-t / tau);
    EXPECT_NEAR(tr.at(f.out, t), expected, 1e-2) << "t = " << t;
  }
}

TEST(SimulatorTran, TrapezoidalConvergesSecondOrder) {
  // Halving dt should shrink the error ~4x for trapezoidal integration.
  auto error_at = [&](double dt) {
    RcFixture f;
    Simulator sim(f.net, kT);
    TransientOptions opt;
    opt.tstop = 2e-9;
    opt.dt = dt;
    opt.method = IntegrationMethod::kTrapezoidal;
    const TransientResult tr = sim.run_transient(opt);
    const double tau = f.r * f.c;
    const double t = 1.5e-9;
    return std::fabs(tr.at(f.out, t) - (1.0 - std::exp(-(t - 0.5e-12) / tau)));
  };
  const double e_coarse = error_at(80e-12);
  const double e_fine = error_at(40e-12);
  EXPECT_LT(e_fine, e_coarse * 0.45);
}

TEST(SimulatorTran, RcCrossingTime) {
  RcFixture f;
  Simulator sim(f.net, kT);
  TransientOptions opt;
  opt.tstop = 5e-9;
  opt.dt = 5e-12;
  const TransientResult tr = sim.run_transient(opt);
  const auto t50 = tr.crossing_time(f.out, 0.5, true);
  ASSERT_TRUE(t50.has_value());
  // t50 = tau * ln 2.
  EXPECT_NEAR(*t50, f.r * f.c * std::log(2.0), 20e-12);
}

TEST(SimulatorTran, SourceStepDischarges) {
  // The capacitor rests at 1 V until the source steps to 0: pure RC decay.
  constexpr double kStep = 100e-12;
  Netlist net;
  const NodeId in = net.node("in");
  const NodeId out = net.node("out");
  net.add_vsource("V", in, kGround, SourceWave::step(1.0, 0.0, kStep, 1e-12));
  net.add_resistor("R", in, out, 1000.0);
  net.add_capacitor("C", out, kGround, 1e-12);
  Simulator sim(net, kT);
  TransientOptions opt;
  opt.tstop = 3e-9;
  opt.dt = 5e-12;
  const TransientResult tr = sim.run_transient(opt);
  EXPECT_NEAR(tr.at(out, kStep + 1e-9), std::exp(-1.0), 5e-3);
}

TEST(SimulatorTran, RejectsBadOptions) {
  Netlist net;
  net.add_resistor("R", net.node("a"), kGround, 1.0);
  Simulator sim(net, kT);
  TransientOptions opt;
  opt.tstop = 0.0;
  opt.dt = 1e-13;
  EXPECT_THROW(sim.run_transient(opt), std::invalid_argument);
  opt.tstop = 1e-12;
  opt.dt = 0.0;
  EXPECT_THROW(sim.run_transient(opt), std::invalid_argument);
}

TEST(SimulatorTran, CapacitorDividerStep) {
  // Two series capacitors divide a fast step by the inverse-C ratio.
  Netlist net;
  const NodeId in = net.node("in");
  const NodeId mid = net.node("mid");
  net.add_vsource("V", in, kGround, SourceWave::step(0.0, 1.0, 1e-12, 1e-12));
  net.add_capacitor("C1", in, mid, 2e-15);
  net.add_capacitor("C2", mid, kGround, 2e-15);
  Simulator sim(net, kT);
  TransientOptions opt;
  opt.tstop = 10e-12;
  opt.dt = 0.05e-12;
  const TransientResult tr = sim.run_transient(opt);
  EXPECT_NEAR(tr.at(mid, 5e-12), 0.5, 0.02);
}

TEST(SimulatorTran, CmosInverterSwitches) {
  Netlist net;
  const NodeId vdd = net.node("vdd");
  const NodeId in = net.node("in");
  const NodeId out = net.node("out");
  net.add_vsource("Vdd", vdd, kGround, SourceWave::dc(1.0));
  net.add_vsource("Vin", in, kGround, SourceWave::step(0.0, 1.0, 5e-12, 2e-12));
  device::MosInstance mn;
  mn.card = device::ptm45_nmos();
  mn.type = device::MosType::kNmos;
  mn.w_over_l = 2.5;
  device::MosInstance mp;
  mp.card = device::ptm45_pmos();
  mp.type = device::MosType::kPmos;
  mp.w_over_l = 5.0;
  net.add_mosfet("MN", mn, in, out, kGround, kGround);
  net.add_mosfet("MP", mp, in, out, vdd, vdd);
  net.add_capacitor("CL", out, kGround, 2e-15);

  Simulator sim(net, kT);
  TransientOptions opt;
  opt.tstop = 40e-12;
  opt.dt = 0.1e-12;
  const TransientResult tr = sim.run_transient(opt);
  EXPECT_NEAR(tr.at(out, 0.0), 1.0, 1e-2);     // input low -> output high
  EXPECT_NEAR(tr.at(out, 39e-12), 0.0, 1e-2);  // input high -> output low
  const auto fall = tr.crossing_time(out, 0.5, false);
  ASSERT_TRUE(fall.has_value());
  EXPECT_GT(*fall, 5e-12);
  EXPECT_LT(*fall, 20e-12);
}

TEST(SimulatorTran, ChargeNeutralRingdownIsStable) {
  // Trapezoidal integration must not blow up on a stiff RC chain.
  Netlist net;
  NodeId prev = net.node("n0");
  net.add_vsource("V", prev, kGround, SourceWave::step(0.0, 1.0, 0.0, 1e-12));
  for (int i = 1; i <= 5; ++i) {
    const NodeId n = net.node("n" + std::to_string(i));
    net.add_resistor("R" + std::to_string(i), prev, n, 100.0 * i);
    net.add_capacitor("C" + std::to_string(i), n, kGround, 1e-15 * i);
    prev = n;
  }
  Simulator sim(net, kT);
  TransientOptions opt;
  opt.tstop = 20e-12;
  opt.dt = 0.2e-12;
  const TransientResult tr = sim.run_transient(opt);
  const double v_end = tr.node_wave(prev).back();
  EXPECT_GT(v_end, 0.0);
  EXPECT_LT(v_end, 1.01);
}

TEST(SimulatorTran, StepCountAndTimeAxis) {
  RcFixture f;
  Simulator sim(f.net, kT);
  TransientOptions opt;
  opt.tstop = 1e-9;
  opt.dt = 1e-11;
  const TransientResult tr = sim.run_transient(opt);
  ASSERT_GE(tr.steps(), 100u);
  EXPECT_DOUBLE_EQ(tr.time().front(), 0.0);
  EXPECT_NEAR(tr.time().back(), 1e-9, 1e-15);
}

// Regression: a waveform departing upward from exactly `level` (a node
// initial-overridden to precisely Vdd/2, the precharge-equalize discipline)
// must register a crossing at the departure sample.  The old strict
// `v0 < level` comparison missed it.
TEST(TransientResult, DepartureFromExactLevelCounts) {
  TransientResult tr(2);
  tr.append(0.0, {0.0, 0.5});
  tr.append(1.0, {0.0, 0.6});
  tr.append(2.0, {0.0, 0.7});
  const auto rising = tr.crossing_time(1, 0.5, /*rising=*/true);
  ASSERT_TRUE(rising.has_value());
  EXPECT_DOUBLE_EQ(*rising, 0.0);

  TransientResult fall(2);
  fall.append(0.0, {0.0, 0.5});
  fall.append(1.0, {0.0, 0.4});
  const auto falling = fall.crossing_time(1, 0.5, /*rising=*/false);
  ASSERT_TRUE(falling.has_value());
  EXPECT_DOUBLE_EQ(*falling, 0.0);
}

TEST(TransientResult, FlatHoldAtLevelIsNotACrossing) {
  TransientResult tr(2);
  tr.append(0.0, {0.0, 0.5});
  tr.append(1.0, {0.0, 0.5});
  tr.append(2.0, {0.0, 0.5});
  EXPECT_FALSE(tr.crossing_time(1, 0.5, true).has_value());
  EXPECT_FALSE(tr.crossing_time(1, 0.5, false).has_value());
}

TEST(TransientResult, ProbeListFiltersRecording) {
  TransientResult tr(3, {2});
  tr.append(0.0, {0.1, 0.2, 0.3});
  tr.append(1.0, {0.1, 0.2, 0.4});
  EXPECT_TRUE(tr.records(2));
  EXPECT_FALSE(tr.records(1));
  ASSERT_EQ(tr.node_wave(2).size(), 2u);
  EXPECT_DOUBLE_EQ(tr.node_wave(2).back(), 0.4);
  EXPECT_THROW(tr.node_wave(1), std::out_of_range);
  EXPECT_THROW(tr.at(1, 0.5), std::out_of_range);
}

TEST(TransientResult, RejectsUnknownProbe) {
  EXPECT_THROW(TransientResult(2, {5}), std::invalid_argument);
}

TEST(SimulatorTran, ProbedRunMatchesFullRun) {
  RcFixture f;
  TransientOptions opt;
  opt.tstop = 1e-9;
  opt.dt = 1e-11;
  Simulator full_sim(f.net, kT);
  const TransientResult full = full_sim.run_transient(opt);
  opt.probes = {f.out};
  Simulator probed_sim(f.net, kT);
  const TransientResult probed = probed_sim.run_transient(opt);
  ASSERT_EQ(probed.steps(), full.steps());
  EXPECT_FALSE(probed.records(f.in));
  // Bit-exact: probing filters recording without touching the integration.
  EXPECT_EQ(probed.node_wave(f.out), full.node_wave(f.out));
}

TEST(SimulatorTran, StopConditionEndsRunEarly) {
  RcFixture f;
  Simulator sim(f.net, kT);
  TransientOptions opt;
  opt.tstop = 5e-9;
  opt.dt = 1e-11;
  const std::size_t out_index = static_cast<std::size_t>(f.out);
  opt.stop_condition = [out_index](double, const std::vector<double>& v) {
    return v[out_index] > 0.5;
  };
  util::metrics::Registry& registry = util::metrics::Registry::instance();
  util::metrics::set_enabled(true);
  const util::metrics::Snapshot before = registry.snapshot();
  const TransientResult tr = sim.run_transient(opt);
  const util::metrics::Snapshot delta = registry.snapshot().delta_since(before);
  util::metrics::set_enabled(false);
  // tau ln 2 ~ 0.69 ns: the run must stop shortly after the 50% point
  // instead of integrating to 5 ns.
  EXPECT_LT(tr.time().back(), 1e-9);
  EXPECT_GT(tr.node_wave(f.out).back(), 0.5);
  EXPECT_EQ(delta.value(util::metrics::names::kTransientEarlyExits), 1u);

  // The truncated run is a prefix of the uninterrupted one.
  Simulator ref_sim(f.net, kT);
  TransientOptions ref_opt = opt;
  ref_opt.stop_condition = nullptr;
  const TransientResult ref = ref_sim.run_transient(ref_opt);
  ASSERT_LT(tr.steps(), ref.steps());
  for (std::size_t i = 0; i < tr.steps(); ++i) {
    EXPECT_DOUBLE_EQ(tr.node_wave(f.out)[i], ref.node_wave(f.out)[i]) << i;
  }
}

// The line search must report the alpha of the trial actually accepted:
// that value is what the trace forensics' alpha history records for each
// Newton iteration.  An earlier version reported the loop variable after its
// post-iteration halving, claiming half the true step on the no-improvement
// path.
TEST(LineSearch, ReportsLastTrialAlphaWhenNothingImproves) {
  std::vector<double> alphas;
  const auto out = detail::backtracking_line_search(7, 1.0, 1e-12, [&](double alpha) {
    alphas.push_back(alpha);
    return 2.0;  // every trial makes things worse
  });
  EXPECT_FALSE(out.improved);
  ASSERT_EQ(alphas.size(), 7u);
  // The state left behind is the last trial's: alpha = 2^-6, not 2^-7.
  EXPECT_DOUBLE_EQ(out.alpha, alphas.back());
  EXPECT_DOUBLE_EQ(out.alpha, 1.0 / 64.0);
  EXPECT_DOUBLE_EQ(out.fnorm, 2.0);
}

TEST(LineSearch, ReportsAcceptedAlphaOnImprovement) {
  const auto out = detail::backtracking_line_search(7, 1.0, 1e-12, [](double alpha) {
    return alpha < 0.3 ? 0.1 : 1.5;  // only the 1/4 step improves
  });
  EXPECT_TRUE(out.improved);
  EXPECT_DOUBLE_EQ(out.alpha, 0.25);
  EXPECT_DOUBLE_EQ(out.fnorm, 0.1);
}

TEST(SimulatorTran, WorkspaceReuseAcrossRunsIsBitExact) {
  // One simulator reused for consecutive runs must reproduce a fresh
  // simulator's waveforms exactly (the workspace carries no run state).
  RcFixture f;
  TransientOptions opt;
  opt.tstop = 1e-9;
  opt.dt = 1e-11;
  Simulator reused(f.net, kT);
  const TransientResult first = reused.run_transient(opt);
  const TransientResult second = reused.run_transient(opt);
  EXPECT_EQ(first.node_wave(f.out), second.node_wave(f.out));
  Simulator fresh(f.net, kT);
  const TransientResult ref = fresh.run_transient(opt);
  EXPECT_EQ(second.node_wave(f.out), ref.node_wave(f.out));
}

TEST(SimulatorTran, EveryAcceptedStepMeetsKclOnWideDevices) {
  // The KCL oracle on a circuit that is not a sense amplifier: a CMOS
  // inverter driving an RC load, its devices and load scaled together up to
  // W/L = 640/1280 (the DC solve of this circuit gives out above that).  A
  // Newton update under the solver's final-update bound is returned without
  // being assembled; its residual grows with the device beta, so wide
  // devices are where it would first cross the acceptance floor,
  // max(1e-9 A, 2 gmin) = 2e-9 A.
  constexpr double kAcceptanceFloor = 2e-9;
  for (const double scale : {1.0, 16.0, 256.0}) {
    char text[512];
    std::snprintf(text, sizeof text,
                  "* inverter driving an RC load\n"
                  ".model nch NMOS\n"
                  ".model pch PMOS\n"
                  "Vdd vdd 0 DC 1.0\n"
                  "Vin in 0 STEP 0 1 20p 5p\n"
                  "Mn out in 0 0 nch W/L=%g\n"
                  "Mp out in vdd vdd pch W/L=%g\n"
                  "Rw out load 500\n"
                  "Cl load 0 %g\n",
                  2.5 * scale, 5.0 * scale, 4e-15 * scale);
    const Netlist net = parse_netlist(text);
    Simulator sim(net, kT);
    TransientOptions opt;
    opt.tstop = 100e-12;
    opt.dt = 0.1e-12;
    const TransientResult tr = sim.run_transient(opt);  // every node recorded
    const testing::KclWorst worst = testing::worst_kcl_residual(net, kT, tr);
    EXPECT_LT(worst.residual, kAcceptanceFloor)
        << "W/L x" << scale << ": node " << worst.node << " at t = " << worst.time;
  }
}

// The node a grounded voltage source drives, and d(source value) / d V(node).
std::pair<NodeId, double> driven_node(const Netlist& net, std::size_t source) {
  const VoltageSource& src = net.vsources()[source];
  return src.pos == kGround ? std::pair{src.neg, -1.0} : std::pair{src.pos, 1.0};
}

// The central difference of every node's final voltage in a constant shift
// of the node `source` drives, at step `dv` [V].
std::vector<double> final_voltage_difference(Netlist& net, std::size_t source, double dv,
                                             const TransientOptions& opt) {
  const double sign = driven_node(net, source).second;
  auto final_voltages = [&](double shift) {
    net.vsource(source).wave.offset_by(sign * shift);
    const TransientResult tr = Simulator(net, kT).run_transient(opt);
    net.vsource(source).wave.offset_by(-sign * shift);
    std::vector<double> v(net.node_count());
    for (std::size_t n = 0; n < v.size(); ++n) v[n] = tr.node_wave(static_cast<NodeId>(n)).back();
    return v;
  };
  const std::vector<double> up = final_voltages(dv);
  const std::vector<double> down = final_voltages(-dv);
  std::vector<double> d(up.size());
  for (std::size_t n = 0; n < d.size(); ++n) d[n] = (up[n] - down[n]) / (2.0 * dv);
  return d;
}

TEST(SimulatorTran, SensitivityIsExactOnALinearNetwork) {
  // A linear circuit's discrete solution is linear in its sources, so the
  // forward sensitivity must match a central difference to rounding, on
  // both integration methods.  A constant shift of a source moves a linear
  // circuit by its DC sensitivity at every step, so this holds the DC seed
  // and the capacitors' charge history; their current history acts only on
  // a nonlinear circuit, and Measure.SplitSensitivityMatchesFiniteDifference
  // holds it on the sense amplifier.  The ladder is fed by two DC sources and a PWL
  // step, couples a capacitor straight onto the stepped node and carries a
  // floating source, so every term of the sensitivity's right-hand side is
  // exercised: resistors, capacitors and the KVL row on a pinned node.  Vb
  // is written the other way round, so it drives b through a branch current
  // rather than pinning it.
  Netlist net = parse_netlist(
      "Va a 0 DC 0.7\n"
      "Vb 0 b DC -0.3\n"
      "Vc c 0 PWL 10p 0 15p 1 40p 0.4\n"
      "R1 a n1 2k\n"
      "C1 n1 0 3f\n"
      "R2 n1 n2 1k\n"
      "C2 n2 0 2f\n"
      "R3 b n2 4k\n"
      "C3 n2 c 1f\n"
      "R4 n2 n3 3k\n"
      "C4 n3 0 2f\n"
      "Vf n4 n3 DC 0.1\n"
      "R5 n4 c 2k\n"
      "C5 n4 b 1f\n");
  const std::size_t sources[] = {0, 1, 2};  // Va, Vb, Vc
  for (const IntegrationMethod method :
       {IntegrationMethod::kTrapezoidal, IntegrationMethod::kBackwardEuler}) {
    TransientOptions opt;
    opt.tstop = 50e-12;
    opt.dt = 0.5e-12;
    opt.method = method;
    TransientOptions with = opt;
    for (const std::size_t k : sources) with.sensitivity_to.push_back(driven_node(net, k).first);
    const TransientResult tr = Simulator(net, kT).run_transient(with);
    for (std::size_t p = 0; p < std::size(sources); ++p) {
      const std::vector<double> fd = final_voltage_difference(net, sources[p], 1e-3, opt);
      const std::vector<double>& s = tr.sensitivity(p);
      ASSERT_EQ(s.size(), net.node_count());
      for (std::size_t n = 1; n < s.size(); ++n) {
        EXPECT_NEAR(s[n], fd[n], 1e-6 * std::max(1.0, std::fabs(fd[n])))
            << "source " << sources[p] << ", node " << n << ", BE "
            << (method == IntegrationMethod::kBackwardEuler);
      }
    }
  }
  // A node no grounded source drives has no parameter to take.
  TransientOptions bad;
  bad.tstop = 50e-12;
  bad.dt = 0.5e-12;
  bad.sensitivity_to = {net.find_node("n1")};
  EXPECT_THROW(Simulator(net, kT).run_transient(bad), std::invalid_argument);
}

TEST(SimulatorTran, SensitivitiesLeaveTheTransientUnchanged) {
  // The sensitivities ride on the Newton solve's factors and device
  // evaluations but feed nothing back: every recorded waveform is
  // bit-identical with and without them.  The circuit is a cross-coupled
  // latch fired by a PWL enable from two slightly unequal inputs, on both
  // sides of its flip, and the same simulator serves every run.
  Netlist net = parse_netlist(
      ".model nch NMOS\n"
      ".model pch PMOS\n"
      "Vdd vdd 0 DC 1.0\n"
      "Vl inl 0 DC 1.0\n"
      "Vr inr 0 DC 0.99\n"
      "Ven en 0 PWL 10p 0 12p 1\n"
      "Mpl s en inl vdd pch W/L=10\n"
      "Mpr sb en inr vdd pch W/L=10\n"
      "Mnl s sb tail 0 nch W/L=17.8\n"
      "Mnr sb s tail 0 nch W/L=17.8\n"
      "Mul s sb vdd vdd pch W/L=5\n"
      "Mur sb s vdd vdd pch W/L=5\n"
      "Mt tail en 0 0 nch W/L=15.5\n"
      "Cs s 0 1f\n"
      "Csb sb 0 1f\n"
      "Cx s sb 0.2f\n");
  const NodeId inl = net.find_node("inl");
  const NodeId inr = net.find_node("inr");
  Simulator sim(net, kT);
  for (const double right : {0.99, 1.0, 0.999999}) {
    net.find_vsource("Vr").wave = SourceWave::dc(right);
    for (const IntegrationMethod method :
         {IntegrationMethod::kTrapezoidal, IntegrationMethod::kBackwardEuler}) {
      TransientOptions opt;
      opt.tstop = 60e-12;
      opt.dt = 0.2e-12;
      opt.method = method;
      const TransientResult plain = sim.run_transient(opt);
      opt.sensitivity_to = {inl, inr};
      const TransientResult sensed = sim.run_transient(opt);
      ASSERT_EQ(plain.time(), sensed.time());
      for (std::size_t n = 0; n < net.node_count(); ++n) {
        EXPECT_EQ(plain.node_wave(static_cast<NodeId>(n)), sensed.node_wave(static_cast<NodeId>(n)))
            << "node " << n << ", right input " << right;
      }
    }
  }
}

}  // namespace
}  // namespace issa::circuit
