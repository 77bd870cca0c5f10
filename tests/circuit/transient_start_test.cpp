// Where run_transient starts integrating, the accuracy of the steps it takes
// from there, and the Newton guess its predictor extrapolates.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "issa/circuit/simulator.hpp"
#include "issa/sa/builder.hpp"
#include "issa/util/metrics.hpp"

namespace issa::circuit {
namespace {

constexpr double kT = 298.15;

// Accepted steps of one run_transient, from the sim.transient_steps counter.
std::uint64_t counted_steps(Simulator& sim, const TransientOptions& opt, TransientResult* out) {
  util::metrics::Registry& registry = util::metrics::Registry::instance();
  const bool were_enabled = util::metrics::enabled();
  util::metrics::set_enabled(true);
  const util::metrics::Snapshot before = registry.snapshot();
  *out = sim.run_transient(opt);
  const util::metrics::Snapshot delta = registry.snapshot().delta_since(before);
  util::metrics::set_enabled(were_enabled);
  return delta.value(util::metrics::names::kTransientSteps);
}

TransientOptions sense_options(const sa::SenseAmpCircuit& c, double vin) {
  TransientOptions opt;
  opt.tstop = c.config().timing.t_stop;
  opt.dt = c.config().timing.dt;
  opt.dc_guess = c.dc_guess(vin);
  return opt;
}

TEST(TransientStart, SenseTransientStartsAtTheFirstSourceCorner) {
  sa::SenseAmpCircuit c = sa::build_nssa(sa::nominal_config());
  c.set_input_differential(0.01);
  const sa::SenseTiming& timing = c.config().timing;
  Simulator sim(c.netlist(), kT);
  TransientResult tr(0);
  const std::uint64_t steps = counted_steps(sim, sense_options(c, 0.01), &tr);

  // The DC point is recorded at 0 and again at t_fire, where SAenable starts
  // to rise; (t_stop - t_fire) / dt steps follow.
  ASSERT_GE(tr.time().size(), 2u);
  EXPECT_EQ(tr.time()[0], 0.0);
  EXPECT_EQ(tr.time()[1], timing.t_fire);
  const std::vector<double> dc = sim.solve_dc({.initial_guess = c.dc_guess(0.01)});
  for (const NodeId node : {c.node_s(), c.node_sbar(), c.node_out()}) {
    EXPECT_EQ(tr.node_wave(node)[0], dc[static_cast<std::size_t>(node)]);
    EXPECT_EQ(tr.node_wave(node)[1], dc[static_cast<std::size_t>(node)]);
  }
  const auto grid_steps = static_cast<std::uint64_t>(
      std::lround((timing.t_stop - timing.t_fire) / timing.dt));
  EXPECT_EQ(steps, grid_steps);
  EXPECT_EQ(tr.steps(), grid_steps + 2);
  EXPECT_NEAR(tr.time().back(), timing.t_stop, 1e-18);
}

TEST(TransientStart, ACornerAtZeroIntegratesFromZero) {
  Netlist net;
  const NodeId in = net.node("in");
  const NodeId out = net.node("out");
  net.add_vsource("V", in, kGround, SourceWave::pwl({{0.0, 0.0}, {5e-12, 1.0}}));
  net.add_resistor("R", in, out, 100.0);
  net.add_capacitor("C", out, kGround, 1e-12);
  Simulator sim(net, kT);
  TransientOptions opt;
  opt.tstop = 20e-12;
  opt.dt = 1e-12;
  TransientResult tr(0);
  EXPECT_EQ(counted_steps(sim, opt, &tr), 20u);
  EXPECT_EQ(tr.time()[1], 1e-12);
}

TEST(TransientStart, StepsFromTheCornerFollowTheTrapezoidalRecurrence) {
  // RC low-pass driven by a PWL ramp from t_a to t_b: integration starts at
  // t_a with the DC point as its initial state.  The circuit is linear, so
  // Newton lands on the same solution from any guess, and every accepted step
  // must equal the closed-form trapezoidal update
  //   v' (1 + h/2 (1/tau + g/C)) = v (1 - h/2 (1/tau + g/C)) + h/(2 tau) (u + u'),
  // with g the simulator's 1 nS gmin from every unknown node to ground.
  const double r = 20.0;
  const double cap = 1e-12;
  const double tau = r * cap;  // 20 ps: settled by tstop
  const double gmin = 1e-9;
  const double t_a = 20e-12;
  const double t_b = 70e-12;
  Netlist net;
  const NodeId in = net.node("in");
  const NodeId out = net.node("out");
  net.add_vsource("V", in, kGround, SourceWave::pwl({{t_a, 0.0}, {t_b, 1.0}}));
  net.add_resistor("R", in, out, r);
  net.add_capacitor("C", out, kGround, cap);
  Simulator sim(net, kT);
  TransientOptions opt;
  opt.tstop = 200e-12;
  opt.dt = 2e-12;
  const TransientResult tr = sim.run_transient(opt);

  auto u = [&](double t) { return std::clamp((t - t_a) / (t_b - t_a), 0.0, 1.0); };
  const std::vector<double>& time = tr.time();
  const std::vector<double>& v = tr.node_wave(out);
  ASSERT_EQ(time.size(), 92u);  // 0, t_a, then 90 steps of dt
  EXPECT_EQ(time[1], t_a);
  double expected = v[1];
  for (std::size_t n = 2; n < time.size(); ++n) {
    const double h = time[n] - time[n - 1];
    const double k = 0.5 * h * (1.0 / tau + gmin / cap);
    expected = (expected * (1.0 - k) + 0.5 * h / tau * (u(time[n - 1]) + u(time[n]))) / (1.0 + k);
    ASSERT_NEAR(v[n], expected, 1e-9) << "step " << n << " t = " << time[n];
  }
  EXPECT_GT(v.back(), 0.99);
}

TEST(TransientStart, PredictedStepsOnAnAffineResponseTakeOneIteration) {
  // An RC low-pass under a long ramp settles into an affine response within a
  // few tau (tau = dt, so the start-up mode decays by 3x per step).  From
  // there the extrapolated guess x_n + (h / h_prev) (x_n - x_{n-1}) is the
  // next step's solution to within Newton's tolerances, so each of those
  // steps converges in one iteration: the guess meets the residual
  // tolerance, or its one update moves no node by 0.1 mV or more and is
  // taken as final.  From the previous state, or with a wrong ratio, sign or
  // history, the first update moves the output by a fraction of the ramp's
  // 5 mV per step, well above 0.1 mV, so a second iteration is needed to
  // confirm it.
  const double t_a = 20e-12;
  const double t_b = 420e-12;
  Netlist net;
  const NodeId in = net.node("in");
  const NodeId out = net.node("out");
  net.add_vsource("V", in, kGround, SourceWave::pwl({{t_a, 0.0}, {t_b, 1.0}}));
  net.add_resistor("R", in, out, 2.0);
  net.add_capacitor("C", out, kGround, 1e-12);
  Simulator sim(net, kT);
  TransientOptions opt;
  opt.tstop = t_b;
  opt.dt = 2e-12;

  util::metrics::Registry& registry = util::metrics::Registry::instance();
  const bool were_enabled = util::metrics::enabled();
  util::metrics::set_enabled(true);
  util::metrics::Counter& iterations = registry.counter(util::metrics::names::kNewtonIterations);
  // The counter after every accepted step; Newton flushes its count before
  // the step is accepted.
  std::vector<std::uint64_t> iter_after{iterations.value()};
  opt.stop_condition = [&](double, const std::vector<double>&) {
    iter_after.push_back(iterations.value());
    return false;
  };
  sim.run_transient(opt);
  util::metrics::set_enabled(were_enabled);

  ASSERT_EQ(iter_after.size(), 201u);  // 200 steps of dt over the ramp
  // The first step has no history and starts from the DC point.
  EXPECT_GE(iter_after[1] - iter_after[0], 2u);
  for (std::size_t n = 30; n < iter_after.size(); ++n) {
    EXPECT_EQ(iter_after[n] - iter_after[n - 1], 1u) << "step " << n;
  }
}

}  // namespace
}  // namespace issa::circuit
