// Oracle for the compiled topology: a node held by a grounded voltage source
// (`V n 0`) is a known value, not an unknown.  Writing the same source the
// other way round (`V 0 n` with the negated wave) keeps n as an unknown with
// a branch current and a KVL row -- the full MNA formulation.  Both must
// describe the same circuit, so on the NSSA and ISSA testbenches the two
// forms must agree on the DC operating point, on full sensing transients,
// and on the offset search.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "issa/circuit/simulator.hpp"
#include "issa/sa/builder.hpp"
#include "issa/sa/measure.hpp"
#include "issa/workload/device_names.hpp"

namespace issa::circuit {
namespace {

namespace nm = workload::names;

// The two forms are the same equations, but Newton stops each step at the
// first point inside its stopping rules -- a residual under the floor, or the
// end of an update under kNewtonFinalStep (1e-4 V) -- and the two systems
// reach that point along different iterates.  Largest deviations measured
// (x86-64, GCC 12, RelWithDebInfo), the same with and without the
// final-update rule: warm DC 0 V; S/SBar/Out waveforms 1.7e-9 V; delays
// 3.1e-20 s; offsets 2.8e-8 V (the search tolerance is 5e-5 V).  The
// tolerances were set 5x above the larger deviations of an earlier stopping
// rule and are kept.
constexpr double kDcTolV = 1e-9;     // 1 nV
constexpr double kWaveTolV = 1e-5;   // 10 uV
constexpr double kOffsetTolV = 5e-6; // 5 uV
constexpr double kDelayTolS = 1e-15; // 1 fs

// Mismatch on the latch and pass devices, so the offset and the delays under
// comparison are not the symmetric zero.
void apply_mismatch(sa::SenseAmpCircuit& c) {
  const std::pair<std::string_view, double> shifts[] = {
      {nm::kMdown, 0.012}, {nm::kMdownBar, -0.004}, {nm::kMup, -0.007}, {nm::kMupBar, 0.009}};
  for (const auto& [name, dvth] : shifts) c.netlist().find_mosfet(name).inst.delta_vth = dvth;
}

// Rewrites every grounded source `V n 0 w` as `V 0 n -w`.
void unpin_sources(sa::SenseAmpCircuit& c) {
  auto& net = c.netlist();
  for (std::size_t k = 0; k < net.vsources().size(); ++k) {
    auto& src = net.vsource(k);
    if (src.neg != kGround || src.pos == kGround) continue;
    src.neg = src.pos;
    src.pos = kGround;
    src.wave = src.wave.negated();
  }
}

struct Pair {
  sa::SenseAmpCircuit pinned;
  sa::SenseAmpCircuit unpinned;
};

Pair build_pair(sa::SenseAmpKind kind) {
  Pair p{sa::build_sense_amp(kind, sa::nominal_config()),
         sa::build_sense_amp(kind, sa::nominal_config())};
  apply_mismatch(p.pinned);
  apply_mismatch(p.unpinned);
  unpin_sources(p.unpinned);
  return p;
}

double max_abs_diff(const std::vector<double>& a, const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double m = 0.0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    m = std::max(m, std::fabs(a[i] - b[i]));
  }
  return m;
}

class CompiledTopologyTest : public ::testing::TestWithParam<sa::SenseAmpKind> {};

TEST_P(CompiledTopologyTest, DcOperatingPointMatchesUnpinnedForm) {
  Pair p = build_pair(GetParam());
  const double temperature = p.pinned.config().temperature_k();
  Simulator pinned(p.pinned.netlist(), temperature);
  Simulator unpinned(p.unpinned.netlist(), temperature);
  // From the testbench's precharge guess, which every sensing run uses.
  DcOptions opt;
  opt.initial_guess = p.pinned.dc_guess(0.0);
  const std::vector<double> a = pinned.solve_dc(opt);
  const std::vector<double> b = unpinned.solve_dc(opt);
  const double diff = max_abs_diff(a, b);
  std::printf("[compiled topology] DC max |dV| = %.3g V\n", diff);
  EXPECT_LE(diff, kDcTolV);
  // Pinned nodes sit exactly on their source value.
  EXPECT_EQ(a[static_cast<std::size_t>(p.pinned.netlist().find_node("vdd"))],
            p.pinned.config().vdd);
}

TEST_P(CompiledTopologyTest, ColdDcMatchesUnpinnedFormOnDrivenNodes) {
  // From all zeros.  In precharge the header and footer are off, so ptop and
  // nbot hang on leakage alone; any voltage where that leakage stays below
  // the Newton residual floor is accepted, and the two forms reach different
  // ones (the pinned form through the gmin homotopy).  Every other node is
  // held by a conducting device and must agree.
  Pair p = build_pair(GetParam());
  const double temperature = p.pinned.config().temperature_k();
  Simulator pinned(p.pinned.netlist(), temperature);
  Simulator unpinned(p.unpinned.netlist(), temperature);
  const std::vector<double> a = pinned.solve_dc();
  const std::vector<double> b = unpinned.solve_dc();
  const auto& net = p.pinned.netlist();
  for (std::size_t n = 0; n < net.node_count(); ++n) {
    const std::string& name = net.node_name(static_cast<NodeId>(n));
    if (name == "ptop" || name == "nbot") continue;
    EXPECT_NEAR(a[n], b[n], 1e-6) << name;
  }
}

TEST_P(CompiledTopologyTest, SenseTransientMatchesUnpinnedForm) {
  Pair p = build_pair(GetParam());
  for (const double vin : {0.03, -0.03}) {
    const TransientResult a = sa::run_sense_transient(p.pinned, vin);
    const TransientResult b = sa::run_sense_transient(p.unpinned, vin);
    ASSERT_EQ(a.time(), b.time()) << "vin " << vin;
    for (const NodeId node : {p.pinned.node_s(), p.pinned.node_sbar(), p.pinned.node_out()}) {
      const double diff = max_abs_diff(a.node_wave(node), b.node_wave(node));
      std::printf("[compiled topology] vin %+.2f node %s max |dV| = %.3g V\n", vin,
                  p.pinned.netlist().node_name(node).c_str(), diff);
      EXPECT_LE(diff, kWaveTolV) << "vin " << vin << " node " << node;
    }
    const sa::SenseRunResult ra = sa::run_sense(p.pinned, vin);
    const sa::SenseRunResult rb = sa::run_sense(p.unpinned, vin);
    EXPECT_EQ(ra.read_one, vin > 0.0);
    EXPECT_EQ(ra.read_one, rb.read_one);
    ASSERT_TRUE(ra.delay.has_value());
    ASSERT_TRUE(rb.delay.has_value());
    std::printf("[compiled topology] vin %+.2f delay diff = %.3g s\n", vin,
                std::fabs(*ra.delay - *rb.delay));
    EXPECT_NEAR(*ra.delay, *rb.delay, kDelayTolS);
  }
}

TEST_P(CompiledTopologyTest, OffsetSearchMatchesUnpinnedForm) {
  Pair p = build_pair(GetParam());
  const sa::OffsetResult a = sa::measure_offset(p.pinned);
  const sa::OffsetResult b = sa::measure_offset(p.unpinned);
  std::printf("[compiled topology] offset %.6g V vs %.6g V, transients %d vs %d\n", a.offset,
              b.offset, a.transients, b.transients);
  EXPECT_GT(std::fabs(a.offset), 1e-3);  // the mismatch moved it off zero
  EXPECT_NEAR(a.offset, b.offset, kOffsetTolV);
  EXPECT_EQ(a.transients, b.transients);
}

INSTANTIATE_TEST_SUITE_P(Testbenches, CompiledTopologyTest,
                         ::testing::Values(sa::SenseAmpKind::kNssa, sa::SenseAmpKind::kIssa),
                         [](const auto& info) {
                           return info.param == sa::SenseAmpKind::kNssa ? "Nssa" : "Issa";
                         });

TEST(CompiledTopology, FullyPinnedCircuitNeedsNoUnknowns) {
  // Every node held by a source: nothing to solve, yet DC and transient still
  // report the source values.
  Netlist net;
  const NodeId a = net.node("a");
  net.add_vsource("V", a, kGround, SourceWave::step(0.0, 1.0, 1e-12, 1e-12));
  net.add_resistor("R", a, kGround, 1e3);
  Simulator sim(net, 298.15);
  EXPECT_EQ(sim.solve_dc()[static_cast<std::size_t>(a)], 0.0);
  TransientOptions opt;
  opt.tstop = 5e-12;
  opt.dt = 1e-12;
  const TransientResult tr = sim.run_transient(opt);
  EXPECT_EQ(tr.node_wave(a).back(), 1.0);
  EXPECT_NEAR(tr.at(a, 1.5e-12), 0.5, 1e-12);
}

}  // namespace
}  // namespace issa::circuit
