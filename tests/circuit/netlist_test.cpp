#include "issa/circuit/netlist.hpp"

#include <gtest/gtest.h>

namespace issa::circuit {
namespace {

device::MosInstance some_nmos() {
  device::MosInstance m;
  m.card = device::ptm45_nmos();
  m.type = device::MosType::kNmos;
  m.w_over_l = 2.0;
  return m;
}

TEST(Netlist, GroundIsNodeZero) {
  Netlist net;
  EXPECT_EQ(net.node("0"), kGround);
  EXPECT_EQ(net.node_count(), 1u);
}

TEST(Netlist, NodesAreDeduplicated) {
  Netlist net;
  const NodeId a = net.node("a");
  const NodeId a2 = net.node("a");
  EXPECT_EQ(a, a2);
  EXPECT_EQ(net.node_count(), 2u);
  EXPECT_EQ(net.node_name(a), "a");
}

TEST(Netlist, FindNodeThrowsOnUnknown) {
  Netlist net;
  EXPECT_THROW(net.find_node("nope"), std::out_of_range);
}

TEST(Netlist, AddDevicesAndAccess) {
  Netlist net;
  const NodeId a = net.node("a");
  const NodeId b = net.node("b");
  net.add_resistor("R1", a, b, 100.0);
  net.add_capacitor("C1", a, kGround, 1e-15);
  net.add_mosfet("M1", some_nmos(), a, b, kGround, kGround);
  net.add_vsource("V1", a, kGround, SourceWave::dc(1.0));
  net.add_isource("I1", a, b, SourceWave::dc(1e-6));
  EXPECT_EQ(net.resistors().size(), 1u);
  EXPECT_EQ(net.capacitors().size(), 1u);
  EXPECT_EQ(net.mosfets().size(), 1u);
  EXPECT_EQ(net.vsources().size(), 1u);
  EXPECT_EQ(net.isources().size(), 1u);
  EXPECT_EQ(net.find_mosfet("M1").name, "M1");
  EXPECT_EQ(net.find_vsource("V1").name, "V1");
}

TEST(Netlist, RejectsNonPositiveValues) {
  Netlist net;
  const NodeId a = net.node("a");
  EXPECT_THROW(net.add_resistor("R", a, kGround, 0.0), std::invalid_argument);
  EXPECT_THROW(net.add_capacitor("C", a, kGround, -1e-15), std::invalid_argument);
  auto m = some_nmos();
  m.w_over_l = 0.0;
  EXPECT_THROW(net.add_mosfet("M", m, a, a, a, a), std::invalid_argument);
}

TEST(Netlist, FindMosfetThrowsOnUnknown) {
  Netlist net;
  EXPECT_THROW(net.find_mosfet("nope"), std::out_of_range);
  EXPECT_THROW(net.find_vsource("nope"), std::out_of_range);
}

TEST(Netlist, ParasiticsAddThreeCapacitors) {
  Netlist net;
  const NodeId g = net.node("g");
  const NodeId d = net.node("d");
  const NodeId s = net.node("s");
  const std::size_t idx = net.add_mosfet("M1", some_nmos(), g, d, s, kGround);
  net.add_mosfet_parasitics(idx);
  // cgs, cgd, cdb (drain != bulk here).
  EXPECT_EQ(net.capacitors().size(), 3u);
}

TEST(Netlist, ParasiticsSkipShortedTerminals) {
  Netlist net;
  const NodeId g = net.node("g");
  const NodeId d = net.node("d");
  // Source tied to gate: cgs would short a node to itself and is skipped.
  const std::size_t idx = net.add_mosfet("M1", some_nmos(), g, d, g, kGround);
  net.add_mosfet_parasitics(idx);
  EXPECT_EQ(net.capacitors().size(), 2u);
}

TEST(Netlist, ClearVthShifts) {
  Netlist net;
  const NodeId a = net.node("a");
  const std::size_t idx = net.add_mosfet("M1", some_nmos(), a, a, kGround, kGround);
  net.mosfet(idx).inst.delta_vth = 0.05;
  net.clear_vth_shifts();
  EXPECT_EQ(net.mosfets()[idx].inst.delta_vth, 0.0);
}

}  // namespace
}  // namespace issa::circuit
