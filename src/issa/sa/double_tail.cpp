#include "issa/sa/double_tail.hpp"

#include <cmath>
#include <string>

#include "issa/workload/stress_map.hpp"

namespace issa::sa {

namespace {

using circuit::NodeId;
using circuit::SourceWave;
namespace dn = dt_names;

// W/L ratios, chosen for balanced regeneration at the Fig. 1 testbench
// conditions (no paper reference exists for these).
constexpr double kInputWl = 10.0;     // input pair NMOS
constexpr double kTail1Wl = 2.5;      // input-stage tail NMOS (limits the current to
                                      // stretch the integration window -> gain)
constexpr double kPrechargeWl = 4.0;  // Di precharge PMOS
constexpr double kInjectorWl = 8.0;   // latch injector NMOS
constexpr double kLatchNWl = 10.0;    // latch cross-coupled NMOS
constexpr double kLatchPWl = 10.0;    // latch cross-coupled PMOS
constexpr double kTail2Wl = 16.0;     // latch-stage tail PMOS
constexpr double kMuxWl = 10.0;       // input mux pass PMOS (switching variant)
constexpr double kOutNWl = 2.5;       // output inverter NMOS
constexpr double kOutPWl = 5.0;       // output inverter PMOS

}  // namespace

// Friend of SenseAmpCircuit: assembles both double-tail variants.
class DoubleTailBuilder {
 public:
  static SenseAmpCircuit build(const SenseAmpConfig& config, bool switching) {
    SenseAmpCircuit c;
    c.kind_ = switching ? SenseAmpKind::kDoubleTailSwitching : SenseAmpKind::kDoubleTail;
    c.config_ = config;
    // The two-stage topology resolves later than the latch-type SA (~33 ps
    // at 25 C, ~50 ps aged at 125 C): give the testbench enough window that
    // hot aged samples still cross the output threshold.
    c.config_.timing.t_stop = std::max(config.timing.t_stop, 120e-12);
    auto& net = c.netlist_;

    const NodeId vdd = net.node("vdd");
    const NodeId bl = net.node("bl");
    const NodeId blbar = net.node("blbar");
    const NodeId di = net.node("di");
    const NodeId dibar = net.node("dibar");
    const NodeId l = net.node("l");
    const NodeId lbar = net.node("lbar");
    const NodeId out = net.node("out");
    const NodeId outbar = net.node("outbar");
    const NodeId saen = net.node("saenable");
    const NodeId saenbar = net.node("saenable_bar");
    const NodeId ntail1 = net.node("ntail1");
    const NodeId ptail2 = net.node("ptail2");

    net.add_vsource("Vdd", vdd, circuit::kGround, SourceWave::dc(config.vdd));
    c.src_bl_ = net.add_vsource("Vbl", bl, circuit::kGround, SourceWave::dc(config.vdd));
    c.src_blbar_ = net.add_vsource("Vblbar", blbar, circuit::kGround, SourceWave::dc(config.vdd));
    const auto& t = config.timing;
    net.add_vsource("Vsaen", saen, circuit::kGround,
                    SourceWave::step(0.0, config.vdd, t.t_fire, t.t_rise));
    net.add_vsource("Vsaenbar", saenbar, circuit::kGround,
                    SourceWave::step(config.vdd, 0.0, t.t_fire, t.t_rise));

    // Input gates: direct bitline connection, or a static PMOS mux for the
    // switching variant.
    NodeId g = bl;
    NodeId gbar = blbar;
    std::vector<std::size_t> mux_devices;
    if (switching) {
      g = net.node("g");
      gbar = net.node("gbar");
      const NodeId sel_a = net.node("sel_a");
      const NodeId sel_b = net.node("sel_b");
      c.src_saen_a_ = net.add_vsource("Vsel_a", sel_a, circuit::kGround, SourceWave::dc(0.0));
      c.src_saen_b_ =
          net.add_vsource("Vsel_b", sel_b, circuit::kGround, SourceWave::dc(config.vdd));
      mux_devices.push_back(
          net.add_mosfet(std::string(dn::kMux1), pmos_of(config, kMuxWl), sel_a, g, bl, vdd));
      mux_devices.push_back(net.add_mosfet(std::string(dn::kMux2), pmos_of(config, kMuxWl),
                                           sel_a, gbar, blbar, vdd));
      mux_devices.push_back(
          net.add_mosfet(std::string(dn::kMux3), pmos_of(config, kMuxWl), sel_b, g, blbar, vdd));
      mux_devices.push_back(
          net.add_mosfet(std::string(dn::kMux4), pmos_of(config, kMuxWl), sel_b, gbar, bl, vdd));
    }

    // Input stage: pair over a clocked tail; drains are cross-assigned so a
    // high BL (reading 1) discharges DiBar first.
    const std::size_t min_idx = net.add_mosfet(std::string(dn::kMin), nmos_of(config, kInputWl),
                                               g, dibar, ntail1, circuit::kGround);
    const std::size_t minbar_idx = net.add_mosfet(
        std::string(dn::kMinBar), nmos_of(config, kInputWl), gbar, di, ntail1, circuit::kGround);
    const std::size_t tail1_idx =
        net.add_mosfet(std::string(dn::kTail1), nmos_of(config, kTail1Wl), saen, ntail1,
                       circuit::kGround, circuit::kGround);
    const std::size_t pre_idx = net.add_mosfet(std::string(dn::kPre),
                                               pmos_of(config, kPrechargeWl), saen, di, vdd, vdd);
    const std::size_t prebar_idx = net.add_mosfet(
        std::string(dn::kPreBar), pmos_of(config, kPrechargeWl), saen, dibar, vdd, vdd);

    // Latch stage: injectors convert the Di differential into latch
    // imbalance; cross-coupled inverters regenerate under the PMOS tail.
    const std::size_t inj_idx =
        net.add_mosfet(std::string(dn::kInj), nmos_of(config, kInjectorWl), di, lbar,
                       circuit::kGround, circuit::kGround);
    const std::size_t injbar_idx =
        net.add_mosfet(std::string(dn::kInjBar), nmos_of(config, kInjectorWl), dibar, l,
                       circuit::kGround, circuit::kGround);
    const std::size_t latchn_idx =
        net.add_mosfet(std::string(dn::kLatchN), nmos_of(config, kLatchNWl), lbar, l,
                       circuit::kGround, circuit::kGround);
    const std::size_t latchnbar_idx =
        net.add_mosfet(std::string(dn::kLatchNBar), nmos_of(config, kLatchNWl), l, lbar,
                       circuit::kGround, circuit::kGround);
    const std::size_t latchp_idx = net.add_mosfet(
        std::string(dn::kLatchP), pmos_of(config, kLatchPWl), lbar, l, ptail2, vdd);
    const std::size_t latchpbar_idx = net.add_mosfet(
        std::string(dn::kLatchPBar), pmos_of(config, kLatchPWl), l, lbar, ptail2, vdd);
    const std::size_t tail2_idx = net.add_mosfet(
        std::string(dn::kTail2), pmos_of(config, kTail2Wl), saenbar, ptail2, vdd, vdd);

    // Output buffers: Out = INV(LBar), OutBar = INV(L).
    const std::size_t outp_idx =
        net.add_mosfet("DtOutP", pmos_of(config, kOutPWl), lbar, out, vdd, vdd);
    const std::size_t outn_idx = net.add_mosfet("DtOutN", nmos_of(config, kOutNWl), lbar, out,
                                                circuit::kGround, circuit::kGround);
    const std::size_t outpbar_idx =
        net.add_mosfet("DtOutPBar", pmos_of(config, kOutPWl), l, outbar, vdd, vdd);
    const std::size_t outnbar_idx = net.add_mosfet("DtOutNBar", nmos_of(config, kOutNWl), l,
                                                   outbar, circuit::kGround, circuit::kGround);

    net.add_capacitor("Cdi", di, circuit::kGround, config.node_cap);
    net.add_capacitor("Cdibar", dibar, circuit::kGround, config.node_cap);
    net.add_capacitor("Cl", l, circuit::kGround, config.node_cap);
    net.add_capacitor("Clbar", lbar, circuit::kGround, config.node_cap);
    net.add_capacitor("Cout", out, circuit::kGround, config.out_load_cap);
    net.add_capacitor("Coutbar", outbar, circuit::kGround, config.out_load_cap);

    for (const std::size_t idx :
         {min_idx, minbar_idx, tail1_idx, pre_idx, prebar_idx, inj_idx, injbar_idx, latchn_idx,
          latchnbar_idx, latchp_idx, latchpbar_idx, tail2_idx, outp_idx, outn_idx, outpbar_idx,
          outnbar_idx}) {
      net.add_mosfet_parasitics(idx);
    }
    for (const std::size_t idx : mux_devices) net.add_mosfet_parasitics(idx);

    c.bl_ = bl;
    c.blbar_ = blbar;
    // The decision nodes of this topology are the latch nodes.
    c.s_ = l;
    c.sbar_ = lbar;
    c.out_ = out;
    c.outbar_ = outbar;
    c.saen_ = saen;
    c.set_input_differential(0.0);
    return c;
  }
};

SenseAmpCircuit build_double_tail(const SenseAmpConfig& config) {
  return DoubleTailBuilder::build(config, /*switching=*/false);
}

SenseAmpCircuit build_double_tail_switching(const SenseAmpConfig& config) {
  return DoubleTailBuilder::build(config, /*switching=*/true);
}

namespace {

// Shared stress mapping with an explicit internal zero-read fraction.
aging::DeviceStressMap dt_stress_map_internal(const workload::Workload& w, double vdd,
                                              double internal_zero_fraction, bool switching) {
  using workload::profile_of;
  const workload::PhaseWeights pw =
      workload::phase_weights(w.activation_rate, internal_zero_fraction);
  aging::DeviceStressMap map;

  // Input pair: gates follow the (precharged-high) bitlines in every phase —
  // symmetric full stress, contributes sigma growth but no mean shift.
  map[std::string(dn::kMin)] = profile_of(pw, vdd, vdd, vdd);
  map[std::string(dn::kMinBar)] = profile_of(pw, vdd, vdd, vdd);

  // Clocked devices: tails stress only while the SA evaluates; the
  // precharge PMOS stress while SAenable is low.
  map[std::string(dn::kTail1)] = profile_of(pw, 0.0, vdd, vdd);
  map[std::string(dn::kTail2)] = profile_of(pw, 0.0, vdd, vdd);
  map[std::string(dn::kPre)] = profile_of(pw, vdd, 0.0, 0.0);
  map[std::string(dn::kPreBar)] = profile_of(pw, vdd, 0.0, 0.0);

  // Injectors: gates = Di nodes, precharged high outside evaluation (NBTI-
  // free NMOS stress on both), and held high only on the *slow* side during
  // evaluation.  Reading 1 discharges DiBar -> Inj (gate Di) stays stressed,
  // InjBar relaxes; reading 0 mirrors.
  map[std::string(dn::kInj)] = profile_of(pw, vdd, 0.0, vdd);
  map[std::string(dn::kInjBar)] = profile_of(pw, vdd, vdd, 0.0);

  // Latch: nodes rest low outside evaluation (both inverter NMOS relaxed,
  // PMOS gates low -> stressed only while the tail is on).  After the
  // decision, reading 1 leaves L = 1: LatchNBar (gate L) and LatchP (gate
  // LBar = 0) stressed; reading 0 mirrors.
  map[std::string(dn::kLatchN)] = profile_of(pw, 0.0, vdd, 0.0);
  map[std::string(dn::kLatchNBar)] = profile_of(pw, 0.0, 0.0, vdd);
  map[std::string(dn::kLatchP)] = profile_of(pw, 0.0, 0.0, vdd);
  map[std::string(dn::kLatchPBar)] = profile_of(pw, 0.0, vdd, 0.0);

  // Output buffers: inputs are the latch nodes (low outside evaluation).
  map["DtOutN"] = profile_of(pw, 0.0, 0.0, vdd);     // gate LBar: high on read 0
  map["DtOutP"] = profile_of(pw, vdd, vdd, 0.0);     // gate LBar low -> stressed
  map["DtOutNBar"] = profile_of(pw, 0.0, vdd, 0.0);  // gate L
  map["DtOutPBar"] = profile_of(pw, vdd, 0.0, vdd);

  if (switching) {
    // Static mux: each pair is selected (gate low against a high bitline)
    // half the lifetime, fully relaxed otherwise.
    aging::StressProfile active = profile_of(pw, vdd, vdd, vdd);
    aging::StressProfile half_time;
    half_time.append(active, 0.5);
    half_time.append(aging::StressProfile::duty_cycle(0.0, 0.0), 0.5);
    half_time.validate();
    for (const auto name : {dn::kMux1, dn::kMux2, dn::kMux3, dn::kMux4}) {
      map[std::string(name)] = half_time;
    }
  }
  return map;
}

}  // namespace

aging::DeviceStressMap double_tail_stress_map(const workload::Workload& workload, double vdd) {
  return dt_stress_map_internal(workload, vdd, workload.zero_fraction(), /*switching=*/false);
}

aging::DeviceStressMap double_tail_switching_stress_map(const workload::Workload& workload,
                                                        double vdd) {
  // The swap balances the internal read statistics exactly as in the ISSA.
  return dt_stress_map_internal(workload, vdd, 0.5, /*switching=*/true);
}

}  // namespace issa::sa
