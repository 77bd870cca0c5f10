#include "issa/sa/builder.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "issa/workload/device_names.hpp"

namespace issa::sa {
namespace {

namespace nm = workload::names;

TEST(Builder, NssaHasFigureOneDevices) {
  auto c = build_nssa(nominal_config());
  const auto& net = c.netlist();
  for (const auto name : {nm::kMdown, nm::kMdownBar, nm::kMup, nm::kMupBar, nm::kMtop,
                          nm::kMbottom, nm::kMpass, nm::kMpassBar, nm::kMoutN, nm::kMoutP,
                          nm::kMoutNBar, nm::kMoutPBar}) {
    EXPECT_NO_THROW(net.find_mosfet(name)) << name;
  }
  EXPECT_EQ(c.kind(), SenseAmpKind::kNssa);
}

TEST(Builder, IssaHasTwoPassPairs) {
  auto c = build_issa(nominal_config());
  const auto& net = c.netlist();
  for (const auto name : {nm::kM1, nm::kM2, nm::kM3, nm::kM4}) {
    EXPECT_NO_THROW(net.find_mosfet(name)) << name;
  }
  // And no single-pair NSSA pass devices.
  EXPECT_THROW(net.find_mosfet(nm::kMpass), std::out_of_range);
  EXPECT_EQ(c.kind(), SenseAmpKind::kIssa);
}

TEST(Builder, IssaAddsExactlyTwoTransistors) {
  auto nssa = build_nssa(nominal_config());
  auto issa = build_issa(nominal_config());
  EXPECT_EQ(issa.netlist().mosfets().size(), nssa.netlist().mosfets().size() + 2);
}

TEST(Builder, SizingMatchesConfig) {
  SenseAmpConfig cfg = nominal_config();
  auto c = build_nssa(cfg);
  const auto& net = c.netlist();
  EXPECT_DOUBLE_EQ(net.find_mosfet(nm::kMdown).inst.w_over_l, cfg.sizing.mdown_wl);
  EXPECT_DOUBLE_EQ(net.find_mosfet(nm::kMup).inst.w_over_l, cfg.sizing.mup_wl);
  EXPECT_DOUBLE_EQ(net.find_mosfet(nm::kMpass).inst.w_over_l, cfg.sizing.pass_wl);
  EXPECT_DOUBLE_EQ(net.find_mosfet(nm::kMtop).inst.w_over_l, cfg.sizing.mtop_wl);
}

TEST(Builder, PolaritiesMatchFigure) {
  auto c = build_nssa(nominal_config());
  const auto& net = c.netlist();
  EXPECT_EQ(net.find_mosfet(nm::kMdown).inst.type, device::MosType::kNmos);
  EXPECT_EQ(net.find_mosfet(nm::kMup).inst.type, device::MosType::kPmos);
  EXPECT_EQ(net.find_mosfet(nm::kMpass).inst.type, device::MosType::kPmos);
  EXPECT_EQ(net.find_mosfet(nm::kMtop).inst.type, device::MosType::kPmos);
  EXPECT_EQ(net.find_mosfet(nm::kMbottom).inst.type, device::MosType::kNmos);
}

TEST(Builder, CrossCouplingIsCorrect) {
  auto c = build_nssa(nominal_config());
  const auto& net = c.netlist();
  const auto& mdown = net.find_mosfet(nm::kMdown);
  const auto& mdownbar = net.find_mosfet(nm::kMdownBar);
  // Mdown's gate is SBar and it drives S; MdownBar mirrors.
  EXPECT_EQ(mdown.gate, c.node_sbar());
  EXPECT_EQ(mdown.drain, c.node_s());
  EXPECT_EQ(mdownbar.gate, c.node_s());
  EXPECT_EQ(mdownbar.drain, c.node_sbar());
}

// The capacitor of `net` named `name`, or nullptr.
const circuit::Capacitor* find_capacitor(const circuit::Netlist& net, const std::string& name) {
  for (const circuit::Capacitor& cap : net.capacitors()) {
    if (cap.name == name) return &cap;
  }
  return nullptr;
}

TEST(Builder, ExplicitNodeCapsPresent) {
  // The four named caps of Fig. 1: 1 fF on S and SBar, the loads on Out/OutBar.
  const auto c = build_nssa(nominal_config());
  const SenseAmpConfig& cfg = c.config();
  const struct {
    const char* name;
    circuit::NodeId node;
    double capacitance;
  } explicit_caps[] = {{"Cs", c.node_s(), cfg.node_cap},
                       {"Csbar", c.node_sbar(), cfg.node_cap},
                       {"Cout", c.node_out(), cfg.out_load_cap},
                       {"Coutbar", c.node_outbar(), cfg.out_load_cap}};
  for (const auto& expected : explicit_caps) {
    const circuit::Capacitor* cap = find_capacitor(c.netlist(), expected.name);
    ASSERT_NE(cap, nullptr) << expected.name;
    EXPECT_EQ(cap->a, expected.node) << expected.name;
    EXPECT_EQ(cap->b, circuit::kGround) << expected.name;
    EXPECT_EQ(cap->capacitance, expected.capacitance) << expected.name;
  }
}

TEST(Builder, ParasiticsAddCapacitors) {
  // Besides the four explicit caps, the NSSA netlist holds the parasitic
  // Cgs/Cgd/Cdb of every MOSFET, one per pair of distinct terminals.
  const auto c = build_nssa(nominal_config());
  const auto& net = c.netlist();
  std::size_t parasitics = 0;
  for (const circuit::Mosfet& m : net.mosfets()) {
    const std::pair<const char*, bool> terminals[] = {
        {".cgs", m.gate != m.source}, {".cgd", m.gate != m.drain}, {".cdb", m.drain != m.bulk}};
    for (const auto& [suffix, distinct] : terminals) {
      if (!distinct) continue;
      ++parasitics;
      const circuit::Capacitor* cap = find_capacitor(net, m.name + suffix);
      ASSERT_NE(cap, nullptr) << m.name << suffix;
      EXPECT_GT(cap->capacitance, 0.0) << m.name << suffix;
    }
  }
  EXPECT_GT(parasitics, 0u);
  EXPECT_EQ(net.capacitors().size(), 4u + parasitics);
}

TEST(Builder, SetInputDifferentialKeepsBitlinesAtOrBelowVdd) {
  auto c = build_nssa(nominal_config());
  const double vdd = c.config().vdd;
  for (double vin : {-0.2, -0.05, 0.0, 0.05, 0.2}) {
    c.set_input_differential(vin);
    const double v_bl = c.netlist().vsources()[1].wave.value(0.0);
    const double v_blbar = c.netlist().vsources()[2].wave.value(0.0);
    EXPECT_LE(v_bl, vdd + 1e-12);
    EXPECT_LE(v_blbar, vdd + 1e-12);
    EXPECT_NEAR(v_bl - v_blbar, vin, 1e-12);
  }
}

TEST(Builder, SetSwappedOnlyOnIssa) {
  auto nssa = build_nssa(nominal_config());
  EXPECT_THROW(nssa.set_swapped(true), std::logic_error);
  auto issa = build_issa(nominal_config());
  EXPECT_NO_THROW(issa.set_swapped(true));
  EXPECT_TRUE(issa.swapped());
}

TEST(Builder, SwapFlipsEnableWaves) {
  auto c = build_issa(nominal_config());
  c.set_swapped(false);
  EXPECT_DOUBLE_EQ(c.netlist().find_vsource("Vsaen_a").wave.value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(c.netlist().find_vsource("Vsaen_b").wave.value(0.0), c.config().vdd);
  c.set_swapped(true);
  EXPECT_DOUBLE_EQ(c.netlist().find_vsource("Vsaen_a").wave.value(0.0), c.config().vdd);
  EXPECT_DOUBLE_EQ(c.netlist().find_vsource("Vsaen_b").wave.value(0.0), 0.0);
}

TEST(Builder, DcGuessTracksInput) {
  auto c = build_nssa(nominal_config());
  const auto guess = c.dc_guess(-0.1);
  const auto s = static_cast<std::size_t>(c.node_s());
  const auto sbar = static_cast<std::size_t>(c.node_sbar());
  EXPECT_NEAR(guess[s], 0.9, 1e-12);
  EXPECT_NEAR(guess[sbar], 1.0, 1e-12);
}

TEST(Builder, DcGuessFollowsSwap) {
  auto c = build_issa(nominal_config());
  c.set_swapped(true);
  const auto guess = c.dc_guess(-0.1);
  // Swapped: S connects to BLBar (= vdd), SBar to BL (= 0.9).
  EXPECT_NEAR(guess[static_cast<std::size_t>(c.node_s())], 1.0, 1e-12);
  EXPECT_NEAR(guess[static_cast<std::size_t>(c.node_sbar())], 0.9, 1e-12);
}

TEST(Builder, BuildSenseAmpDispatches) {
  EXPECT_EQ(build_sense_amp(SenseAmpKind::kNssa, nominal_config()).kind(), SenseAmpKind::kNssa);
  EXPECT_EQ(build_sense_amp(SenseAmpKind::kIssa, nominal_config()).kind(), SenseAmpKind::kIssa);
}

}  // namespace
}  // namespace issa::sa
