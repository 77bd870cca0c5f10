// Property-based simulator tests over randomly generated networks:
// passivity (node voltages bounded by the source range), transient
// consistency (t -> inf approaches the DC solution), and source-current
// bookkeeping.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "issa/circuit/simulator.hpp"
#include "issa/util/rng.hpp"

namespace issa::circuit {
namespace {

constexpr double kT = 298.15;

// Builds a random connected resistor network: nodes chained to guarantee
// connectivity, plus random extra edges, one voltage source at node 1.
Netlist random_resistive_network(std::uint64_t seed, std::size_t nodes,
                                 const SourceWave& source) {
  util::Xoshiro256 rng(seed);
  Netlist net;
  std::vector<NodeId> ids;
  ids.push_back(kGround);
  for (std::size_t i = 1; i <= nodes; ++i) ids.push_back(net.node("n" + std::to_string(i)));

  net.add_vsource("V", ids[1], kGround, source);
  // Spanning chain.
  for (std::size_t i = 1; i < ids.size(); ++i) {
    net.add_resistor("Rc" + std::to_string(i), ids[i - 1], ids[i],
                     rng.uniform(100.0, 10000.0));
  }
  // Random extra edges.
  const std::size_t extra = nodes;
  for (std::size_t e = 0; e < extra; ++e) {
    const auto a = static_cast<std::size_t>(rng.uniform() * static_cast<double>(ids.size()));
    const auto b = static_cast<std::size_t>(rng.uniform() * static_cast<double>(ids.size()));
    if (a == b) continue;
    net.add_resistor("Rx" + std::to_string(e), ids[a % ids.size()], ids[b % ids.size()],
                     rng.uniform(100.0, 10000.0));
  }
  return net;
}

class ResistiveNetworkTest : public ::testing::TestWithParam<int> {};

TEST_P(ResistiveNetworkTest, DcIsPassive) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const double vsrc = 1.2;
  const Netlist net = random_resistive_network(seed, 8, SourceWave::dc(vsrc));
  Simulator sim(net, kT);
  const auto v = sim.solve_dc();
  for (std::size_t n = 0; n < net.node_count(); ++n) {
    EXPECT_GE(v[n], -1e-6) << "node " << n << " seed " << seed;
    EXPECT_LE(v[n], vsrc + 1e-6) << "node " << n << " seed " << seed;
  }
}

TEST_P(ResistiveNetworkTest, KclHoldsAtEveryInternalNode) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const Netlist net = random_resistive_network(seed, 8, SourceWave::dc(1.0));
  Simulator sim(net, kT);
  const auto v = sim.solve_dc();
  // Sum resistor currents into each node (excluding ground and the driven
  // node, which carry source current).
  std::vector<double> net_current(net.node_count(), 0.0);
  for (const auto& r : net.resistors()) {
    const double i = (v[static_cast<std::size_t>(r.a)] - v[static_cast<std::size_t>(r.b)]) /
                     r.resistance;
    net_current[static_cast<std::size_t>(r.a)] -= i;
    net_current[static_cast<std::size_t>(r.b)] += i;
  }
  const NodeId driven = net.vsources()[0].pos;
  for (std::size_t n = 1; n < net.node_count(); ++n) {
    if (static_cast<NodeId>(n) == driven) continue;
    EXPECT_NEAR(net_current[n], 0.0, 1e-6) << "node " << n << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResistiveNetworkTest, ::testing::Range(1, 13));

class RcNetworkTest : public ::testing::TestWithParam<int> {};

TEST_P(RcNetworkTest, TransientSettlesToDc) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  // The same network under two sources: held at 1 V for the DC reference,
  // and stepped 0 V -> 1 V so the transient starts with every node at 0 and
  // must really settle.
  auto network = [seed](const SourceWave& source) {
    util::Xoshiro256 rng(seed * 977);
    Netlist net = random_resistive_network(seed, 6, source);
    // Sprinkle capacitors on random nodes; time constants ~<= 1 ns.
    for (std::size_t i = 0; i < 4; ++i) {
      const auto node =
          static_cast<NodeId>(1 + static_cast<std::size_t>(rng.uniform() * 6.0) % 6);
      net.add_capacitor("Cp" + std::to_string(i), node, kGround, rng.uniform(1e-15, 50e-15));
    }
    return net;
  };
  const Netlist held = network(SourceWave::dc(1.0));
  const Netlist net = network(SourceWave::step(0.0, 1.0, 1e-12, 1e-12));
  Simulator dc_sim(held, kT);
  const auto dc = dc_sim.solve_dc();

  Simulator tran_sim(net, kT);
  TransientOptions opt;
  opt.tstop = 10e-9;  // >> any tau in the network
  opt.dt = 5e-12;
  const auto tr = tran_sim.run_transient(opt);
  for (std::size_t n = 0; n < net.node_count(); ++n) {
    EXPECT_NEAR(tr.node_wave(static_cast<NodeId>(n)).back(), dc[n], 3e-3)
        << "node " << n << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RcNetworkTest, ::testing::Range(1, 9));

TEST(SimulatorProperty, BreakpointKeepsAccuracyWithCoarseDt) {
  // A 1 ps source ramp inside 40 ps steps: corner alignment must keep the
  // trapezoidal solution accurate (regression for the PWL breakpoint logic).
  Netlist net;
  const NodeId in = net.node("in");
  const NodeId out = net.node("out");
  net.add_vsource("V", in, kGround, SourceWave::step(0.0, 1.0, 100e-12, 1e-12));
  net.add_resistor("R", in, out, 1000.0);
  net.add_capacitor("C", out, kGround, 1e-12);
  Simulator sim(net, kT);
  TransientOptions opt;
  opt.tstop = 2e-9;
  opt.dt = 40e-12;
  const auto tr = sim.run_transient(opt);
  const double tau = 1e-9;
  const double t = 1.5e-9;
  const double expected = 1.0 - std::exp(-(t - 100e-12) / tau);
  EXPECT_NEAR(tr.at(out, t), expected, 5e-3);
}

}  // namespace
}  // namespace issa::circuit
