#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "issa/circuit/simulator.hpp"
#include "issa/device/mos_params.hpp"
#include "issa/util/metrics.hpp"

namespace issa::circuit {
namespace {

device::MosInstance nmos(double wl) {
  device::MosInstance m;
  m.card = device::ptm45_nmos();
  m.type = device::MosType::kNmos;
  m.w_over_l = wl;
  return m;
}

device::MosInstance pmos(double wl) {
  device::MosInstance m;
  m.card = device::ptm45_pmos();
  m.type = device::MosType::kPmos;
  m.w_over_l = wl;
  return m;
}

constexpr double kT = 298.15;

TEST(SimulatorDc, ResistorDivider) {
  Netlist net;
  const NodeId vdd = net.node("vdd");
  const NodeId mid = net.node("mid");
  net.add_vsource("V", vdd, kGround, SourceWave::dc(1.2));
  net.add_resistor("R1", vdd, mid, 2000.0);
  net.add_resistor("R2", mid, kGround, 1000.0);
  Simulator sim(net, kT);
  const auto v = sim.solve_dc();
  EXPECT_NEAR(v[static_cast<std::size_t>(mid)], 0.4, 1e-6);
}

TEST(SimulatorDc, CurrentSourceIntoResistor) {
  Netlist net;
  const NodeId n = net.node("n");
  net.add_isource("I", kGround, n, SourceWave::dc(1e-3));  // 1 mA into n
  net.add_resistor("R", n, kGround, 1000.0);
  Simulator sim(net, kT);
  const auto v = sim.solve_dc();
  EXPECT_NEAR(v[static_cast<std::size_t>(n)], 1.0, 1e-5);
}

TEST(SimulatorDc, SeriesVoltageSources) {
  Netlist net;
  const NodeId a = net.node("a");
  const NodeId b = net.node("b");
  net.add_vsource("V1", a, kGround, SourceWave::dc(0.4));
  net.add_vsource("V2", b, a, SourceWave::dc(0.3));
  net.add_resistor("R", b, kGround, 1e6);
  Simulator sim(net, kT);
  const auto v = sim.solve_dc();
  EXPECT_NEAR(v[static_cast<std::size_t>(b)], 0.7, 1e-6);
}

TEST(SimulatorDc, CmosInverterRails) {
  Netlist net;
  const NodeId vdd = net.node("vdd");
  const NodeId in = net.node("in");
  const NodeId out = net.node("out");
  net.add_vsource("Vdd", vdd, kGround, SourceWave::dc(1.0));
  net.add_vsource("Vin", in, kGround, SourceWave::dc(0.0));
  net.add_mosfet("MN", nmos(2.5), in, out, kGround, kGround);
  net.add_mosfet("MP", pmos(5.0), in, out, vdd, vdd);

  Simulator sim_low(net, kT);
  EXPECT_NEAR(sim_low.solve_dc()[static_cast<std::size_t>(out)], 1.0, 1e-3);

  net.find_vsource("Vin").wave = SourceWave::dc(1.0);
  Simulator sim_high(net, kT);
  EXPECT_NEAR(sim_high.solve_dc()[static_cast<std::size_t>(out)], 0.0, 1e-3);
}

TEST(SimulatorDc, InverterVtcIsMonotone) {
  Netlist net;
  const NodeId vdd = net.node("vdd");
  const NodeId in = net.node("in");
  const NodeId out = net.node("out");
  net.add_vsource("Vdd", vdd, kGround, SourceWave::dc(1.0));
  net.add_vsource("Vin", in, kGround, SourceWave::dc(0.0));
  net.add_mosfet("MN", nmos(2.5), in, out, kGround, kGround);
  net.add_mosfet("MP", pmos(5.0), in, out, vdd, vdd);

  double prev = 2.0;
  for (double vin = 0.0; vin <= 1.001; vin += 0.05) {
    net.find_vsource("Vin").wave = SourceWave::dc(vin);
    Simulator sim(net, kT);
    const double vout = sim.solve_dc()[static_cast<std::size_t>(out)];
    EXPECT_LE(vout, prev + 1e-6) << "VTC not monotone at vin = " << vin;
    prev = vout;
  }
}

TEST(SimulatorDc, DiodeConnectedNmos) {
  // Current mirror input leg: vdd -> R -> diode-connected NMOS.
  Netlist net;
  const NodeId vdd = net.node("vdd");
  const NodeId d = net.node("d");
  net.add_vsource("Vdd", vdd, kGround, SourceWave::dc(1.0));
  net.add_resistor("R", vdd, d, 10000.0);
  net.add_mosfet("MN", nmos(5.0), d, d, kGround, kGround);
  Simulator sim(net, kT);
  const double vd = sim.solve_dc()[static_cast<std::size_t>(d)];
  // Must settle somewhere above threshold but well below vdd.
  EXPECT_GT(vd, 0.3);
  EXPECT_LT(vd, 0.9);
}

TEST(SimulatorDc, FloatingNodeHeldByGmin) {
  Netlist net;
  const NodeId orphan = net.node("orphan");
  net.node("driven");
  net.add_vsource("V", net.find_node("driven"), kGround, SourceWave::dc(1.0));
  net.add_resistor("R", net.find_node("driven"), kGround, 1000.0);
  (void)orphan;
  Simulator sim(net, kT);
  const auto v = sim.solve_dc();
  EXPECT_NEAR(v[static_cast<std::size_t>(orphan)], 0.0, 1e-6);
}

TEST(SimulatorDc, InitialGuessIsAccepted) {
  Netlist net;
  const NodeId vdd = net.node("vdd");
  const NodeId mid = net.node("mid");
  net.add_vsource("V", vdd, kGround, SourceWave::dc(1.0));
  net.add_resistor("R1", vdd, mid, 1000.0);
  net.add_resistor("R2", mid, kGround, 1000.0);
  Simulator sim(net, kT);
  DcOptions opt;
  opt.initial_guess = {0.0, 1.0, 0.5};
  EXPECT_NEAR(sim.solve_dc(opt)[static_cast<std::size_t>(mid)], 0.5, 1e-6);
}

TEST(SimulatorDc, InitialGuessSizeIsValidated) {
  Netlist net;
  net.node("a");
  net.add_resistor("R", net.find_node("a"), kGround, 1.0);
  Simulator sim(net, kT);
  DcOptions opt;
  opt.initial_guess = {0.0};  // must be node_count = 2
  EXPECT_THROW(sim.solve_dc(opt), std::invalid_argument);
}

TEST(SimulatorDc, RejectsNonPositiveTemperature) {
  Netlist net;
  EXPECT_THROW(Simulator(net, 0.0), std::invalid_argument);
}

TEST(SimulatorDc, StatsAreCounted) {
  Netlist net;
  const NodeId a = net.node("a");
  const NodeId b = net.node("b");  // an unknown, so Newton has a system to factor
  net.add_vsource("V", a, kGround, SourceWave::dc(1.0));
  net.add_resistor("R1", a, b, 1000.0);
  net.add_resistor("R2", b, kGround, 1000.0);
  Simulator sim(net, kT);
  util::metrics::Registry& registry = util::metrics::Registry::instance();
  util::metrics::set_enabled(true);
  const util::metrics::Snapshot before = registry.snapshot();
  sim.solve_dc();
  const util::metrics::Snapshot delta = registry.snapshot().delta_since(before);
  util::metrics::set_enabled(false);
  EXPECT_EQ(delta.value(util::metrics::names::kDcSolves), 1u);
  EXPECT_GT(delta.value(util::metrics::names::kNewtonIterations), 0u);
  EXPECT_GT(delta.value(util::metrics::names::kJacobianBuilds), 0u);
  EXPECT_GT(delta.value(util::metrics::names::kLuFactorizations), 0u);
}

TEST(SimulatorDc, EveryJacobianBuildEvaluatesEveryMosfet) {
  Netlist net;
  const NodeId vdd = net.node("vdd");
  const NodeId in = net.node("in");
  const NodeId out = net.node("out");
  net.add_vsource("Vdd", vdd, kGround, SourceWave::dc(1.0));
  net.add_vsource("Vin", in, kGround, SourceWave::dc(0.5));
  net.add_mosfet("MN", nmos(2.5), in, out, kGround, kGround);
  net.add_mosfet("MP", pmos(5.0), in, out, vdd, vdd);
  Simulator sim(net, kT);
  util::metrics::Registry& registry = util::metrics::Registry::instance();
  util::metrics::set_enabled(true);
  const util::metrics::Snapshot before = registry.snapshot();
  sim.solve_dc();
  const util::metrics::Snapshot delta = registry.snapshot().delta_since(before);
  util::metrics::set_enabled(false);
  const std::uint64_t builds = delta.value(util::metrics::names::kJacobianBuilds);
  EXPECT_GT(builds, 0u);
  EXPECT_EQ(delta.value(util::metrics::names::kDeviceEvaluations), 2u * builds);
}

}  // namespace
}  // namespace issa::circuit
