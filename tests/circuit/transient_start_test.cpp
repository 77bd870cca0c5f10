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

// Newton iterations of each accepted step of one run_transient, from the
// sim.newton_iterations counter (Newton flushes it before the step is
// accepted and the stop condition sees it).
std::vector<std::uint64_t> iterations_per_step(Simulator& sim, TransientOptions opt,
                                               TransientResult* out = nullptr) {
  const bool were_enabled = util::metrics::enabled();
  util::metrics::set_enabled(true);
  util::metrics::Counter& counter =
      util::metrics::Registry::instance().counter(util::metrics::names::kNewtonIterations);
  std::uint64_t last = counter.value();
  std::vector<std::uint64_t> per_step;
  opt.stop_condition = [&](double, const std::vector<double>&) {
    per_step.push_back(counter.value() - last);
    last = counter.value();
    return false;
  };
  TransientResult tr = sim.run_transient(opt);
  util::metrics::set_enabled(were_enabled);
  if (out != nullptr) *out = std::move(tr);
  return per_step;
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
  // there the quadratic through the last three accepted states,
  //   x_n + h (x_n - x_{n-1}) / h_1
  //       + h (h + h_1) ((x_n - x_{n-1}) / h_1 - (x_{n-1} - x_{n-2}) / h_2) / (h_1 + h_2)
  // with h_1 = t_n - t_{n-1} and h_2 = t_{n-1} - t_{n-2}, is the line through
  // them and the next step's solution to within Newton's tolerances, so
  // each of those steps converges in one iteration: the guess meets the
  // residual tolerance, or its one update moves no node by 0.1 mV or more
  // and is taken as final.  From the previous state, or with a wrong ratio,
  // sign or history, the first update moves the output by a fraction of the
  // ramp's 5 mV per step, well above 0.1 mV, so a second iteration is needed
  // to confirm it.
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

  const std::vector<std::uint64_t> iterations = iterations_per_step(sim, opt);
  ASSERT_EQ(iterations.size(), 200u);  // 200 steps of dt over the ramp
  // The first step has no history and starts from the DC point.
  EXPECT_GE(iterations[0], 2u);
  for (std::size_t n = 29; n < iterations.size(); ++n) {
    EXPECT_EQ(iterations[n], 1u) << "step " << n + 1;
  }
}

TEST(TransientStart, PredictedStepsOnAQuadraticResponseTakeOneIteration) {
  // A current ramp into a capacitor: C dv/dt = k (t - t_a).  The trapezoidal
  // rule integrates a linear current exactly, so the accepted states lie on
  // the parabola v = k (t - t_a)^2 / (2 C) (the 1 nS gmin leaks 2e-9 of the
  // voltage per step).  Once a step has three accepted states behind it, the
  // quadratic predictor lands on its solution to rounding and the step
  // takes one iteration.  The line through the last two misses it by
  // k h^2 / C = 2 mV on the 2 ps grid, so that predictor needs two, as does
  // a quadratic weighted as if every step had the same size: the ramp has a
  // second corner at 51 ps, on its line but off the grid, so one step is
  // 1 ps and the grid after it is shifted by half a step.
  const double t_a = 20e-12;
  const double t_b = 120e-12;
  const double k = 5e8;  // [A/s]
  Netlist net;
  const NodeId out = net.node("out");
  const double t_mid = 51e-12;
  net.add_isource("I", kGround, out,
                  SourceWave::pwl({{t_a, 0.0}, {t_mid, k * (t_mid - t_a)}, {t_b, k * (t_b - t_a)}}));
  net.add_capacitor("C", out, kGround, 1e-12);
  Simulator sim(net, kT);
  TransientOptions opt;
  opt.tstop = t_b;
  opt.dt = 2e-12;

  TransientResult tr(0);
  const std::vector<std::uint64_t> iterations = iterations_per_step(sim, opt, &tr);
  ASSERT_EQ(iterations.size(), 51u);  // 15 steps to t_mid, one of 1 ps, 34, one of 1 ps
  EXPECT_NEAR(tr.node_wave(out).back(), 2.5, 1e-6);
  EXPECT_GE(iterations[0], 2u);  // from the DC point
  EXPECT_GE(iterations[1], 2u);  // from the line through two states
  for (std::size_t n = 2; n < iterations.size(); ++n) {
    EXPECT_EQ(iterations[n], 1u) << "step " << n + 1 << " t = " << tr.time()[n + 2];
  }
}

}  // namespace
}  // namespace issa::circuit
