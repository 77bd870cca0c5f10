#include "issa/sa/builder.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "issa/digital/control.hpp"
#include "issa/sa/double_tail.hpp"
#include "issa/workload/device_names.hpp"

namespace issa::sa {

namespace {

using circuit::NodeId;
using circuit::SourceWave;
using device::MosInstance;
using device::MosType;
namespace names = workload::names;

// Shared construction of the latch core, enable devices, output inverters,
// supplies, and SAenable waves.  Pass transistors differ per kind and are
// added by the caller.
struct CoreNodes {
  NodeId vdd, bl, blbar, s, sbar, ptop, nbot, out, outbar, saen, saenbar;
};

CoreNodes build_core(circuit::Netlist& net, const SenseAmpConfig& cfg, std::size_t* src_bl,
                     std::size_t* src_blbar) {
  CoreNodes n;
  n.vdd = net.node("vdd");
  n.bl = net.node("bl");
  n.blbar = net.node("blbar");
  n.s = net.node("s");
  n.sbar = net.node("sbar");
  n.ptop = net.node("ptop");
  n.nbot = net.node("nbot");
  n.out = net.node("out");
  n.outbar = net.node("outbar");
  n.saen = net.node("saenable");
  n.saenbar = net.node("saenable_bar");

  // Supplies and bitline drivers (ideal: the bitline capacitance/discharge
  // dynamics are modeled separately in issa/mem).
  net.add_vsource("Vdd", n.vdd, circuit::kGround, SourceWave::dc(cfg.vdd));
  *src_bl = net.add_vsource("Vbl", n.bl, circuit::kGround, SourceWave::dc(cfg.vdd));
  *src_blbar = net.add_vsource("Vblbar", n.blbar, circuit::kGround, SourceWave::dc(cfg.vdd));

  // SAenable / SAenableBar drivers.
  const auto& t = cfg.timing;
  net.add_vsource("Vsaen", n.saen, circuit::kGround,
                  SourceWave::step(0.0, cfg.vdd, t.t_fire, t.t_rise));
  net.add_vsource("Vsaenbar", n.saenbar, circuit::kGround,
                  SourceWave::step(cfg.vdd, 0.0, t.t_fire, t.t_rise));

  // Cross-coupled inverter pair (Fig. 1): Mdown/Mup gated by SBar drive S;
  // the Bar devices gated by S drive SBar.
  const std::size_t mdown = net.add_mosfet(std::string(names::kMdown),
                                           nmos_of(cfg, cfg.sizing.mdown_wl), n.sbar, n.s, n.nbot,
                                           circuit::kGround);
  const std::size_t mdownbar = net.add_mosfet(std::string(names::kMdownBar),
                                              nmos_of(cfg, cfg.sizing.mdown_wl), n.s, n.sbar,
                                              n.nbot, circuit::kGround);
  const std::size_t mup = net.add_mosfet(std::string(names::kMup), pmos_of(cfg, cfg.sizing.mup_wl),
                                         n.sbar, n.s, n.ptop, n.vdd);
  const std::size_t mupbar = net.add_mosfet(std::string(names::kMupBar),
                                            pmos_of(cfg, cfg.sizing.mup_wl), n.s, n.sbar, n.ptop,
                                            n.vdd);

  // Enable header/footer.
  const std::size_t mtop = net.add_mosfet(std::string(names::kMtop),
                                          pmos_of(cfg, cfg.sizing.mtop_wl), n.saenbar, n.ptop,
                                          n.vdd, n.vdd);
  const std::size_t mbottom = net.add_mosfet(std::string(names::kMbottom),
                                             nmos_of(cfg, cfg.sizing.mbottom_wl), n.saen, n.nbot,
                                             circuit::kGround, circuit::kGround);

  // Output inverters: Out = INV(SBar), OutBar = INV(S).
  const std::size_t moutp = net.add_mosfet(std::string(names::kMoutP),
                                           pmos_of(cfg, cfg.sizing.out_p_wl), n.sbar, n.out,
                                           n.vdd, n.vdd);
  const std::size_t moutn = net.add_mosfet(std::string(names::kMoutN),
                                           nmos_of(cfg, cfg.sizing.out_n_wl), n.sbar, n.out,
                                           circuit::kGround, circuit::kGround);
  const std::size_t moutpbar = net.add_mosfet(std::string(names::kMoutPBar),
                                              pmos_of(cfg, cfg.sizing.out_p_wl), n.s, n.outbar,
                                              n.vdd, n.vdd);
  const std::size_t moutnbar = net.add_mosfet(std::string(names::kMoutNBar),
                                              nmos_of(cfg, cfg.sizing.out_n_wl), n.s, n.outbar,
                                              circuit::kGround, circuit::kGround);

  // Explicit sensing-node capacitors (the 1 fF of Fig. 1) and output loads.
  net.add_capacitor("Cs", n.s, circuit::kGround, cfg.node_cap);
  net.add_capacitor("Csbar", n.sbar, circuit::kGround, cfg.node_cap);
  net.add_capacitor("Cout", n.out, circuit::kGround, cfg.out_load_cap);
  net.add_capacitor("Coutbar", n.outbar, circuit::kGround, cfg.out_load_cap);

  if (cfg.with_parasitics) {
    for (const std::size_t idx :
         {mdown, mdownbar, mup, mupbar, mtop, mbottom, moutp, moutn, moutpbar, moutnbar}) {
      net.add_mosfet_parasitics(idx);
    }
  }
  return n;
}

}  // namespace

MosInstance nmos_of(const SenseAmpConfig& cfg, double wl) {
  MosInstance m;
  m.card = cfg.nmos;
  m.type = MosType::kNmos;
  m.w_over_l = wl;
  return m;
}

MosInstance pmos_of(const SenseAmpConfig& cfg, double wl) {
  MosInstance m;
  m.card = cfg.pmos;
  m.type = MosType::kPmos;
  m.w_over_l = wl;
  return m;
}

void SenseAmpCircuit::set_input_differential(double vin) {
  const double vdd = config_.vdd;
  const double v_bl = vdd + std::min(vin, 0.0);
  const double v_blbar = vdd - std::max(vin, 0.0);
  drive(src_bl_, SourceWave::dc(v_bl));
  drive(src_blbar_, SourceWave::dc(v_blbar));
}

void SenseAmpCircuit::drive(std::size_t source, SourceWave wave) {
  auto& src = netlist_.vsource(source);
  src.wave = src.pos == circuit::kGround ? wave.negated() : std::move(wave);
}

std::vector<double> SenseAmpCircuit::dc_guess(double vin) const {
  const double vdd = config_.vdd;
  const double v_bl = vdd + std::min(vin, 0.0);
  const double v_blbar = vdd - std::max(vin, 0.0);
  std::vector<double> v(netlist_.node_count(), 0.0);
  auto set = [&](const char* name, double value) {
    v[static_cast<std::size_t>(netlist_.find_node(name))] = value;
  };
  const bool sw = is_switching_kind(kind_) && swapped_;
  set("vdd", vdd);
  set("bl", v_bl);
  set("blbar", v_blbar);
  set("saenable", 0.0);
  set("saenable_bar", vdd);
  set("out", 0.0);
  set("outbar", 0.0);

  switch (kind_) {
    case SenseAmpKind::kIssa:
      set("saenable_a", sw ? vdd : 0.0);
      set("saenable_b", sw ? 0.0 : vdd);
      [[fallthrough]];
    case SenseAmpKind::kNssa:
      // Pass gates are on at SAenable = 0: internal nodes track the bitlines
      // (crossed when swapped).
      set("s", sw ? v_blbar : v_bl);
      set("sbar", sw ? v_bl : v_blbar);
      set("ptop", vdd);
      set("nbot", 0.7 * vdd);
      break;
    case SenseAmpKind::kDoubleTailSwitching:
      set("sel_a", sw ? vdd : 0.0);
      set("sel_b", sw ? 0.0 : vdd);
      set("g", sw ? v_blbar : v_bl);
      set("gbar", sw ? v_bl : v_blbar);
      [[fallthrough]];
    case SenseAmpKind::kDoubleTail:
      // Precharge phase: Di nodes high, latch held low by the injectors, and
      // the output inverters (inputs low) drive both outputs high.
      set("di", vdd);
      set("dibar", vdd);
      set("l", 0.0);
      set("lbar", 0.0);
      set("ptail2", 0.5 * vdd);
      set("ntail1", 0.0);
      set("out", vdd);
      set("outbar", vdd);
      break;
  }
  return v;
}

void SenseAmpCircuit::set_swapped(bool swapped) {
  if (!is_switching_kind(kind_)) {
    throw std::logic_error("set_swapped: this SA kind has no switchable inputs");
  }
  swapped_ = swapped;
  refresh_enable_waves();
}

void SenseAmpCircuit::refresh_enable_waves() {
  if (kind_ == SenseAmpKind::kIssa) {
    const auto waves = digital::IssaController::make_enable_waves(
        config_.vdd, config_.timing.t_fire, config_.timing.t_rise, swapped_);
    drive(src_saen_a_, waves.saenable_a);
    drive(src_saen_b_, waves.saenable_b);
    return;
  }
  // Double-tail switching variant: static PMOS mux selects, active low; the
  // inputs stay connected through the whole evaluation.
  drive(src_saen_a_, SourceWave::dc(swapped_ ? config_.vdd : 0.0));
  drive(src_saen_b_, SourceWave::dc(swapped_ ? 0.0 : config_.vdd));
}

SenseAmpCircuit build_nssa(const SenseAmpConfig& config) {
  SenseAmpCircuit c;
  c.kind_ = SenseAmpKind::kNssa;
  c.config_ = config;
  CoreNodes n = build_core(c.netlist_, config, &c.src_bl_, &c.src_blbar_);

  // Pass transistors (PMOS, gate = SAenable: conduct while SAenable is low).
  auto& net = c.netlist_;
  const std::size_t mpass = net.add_mosfet(std::string(names::kMpass),
                                           pmos_of(config, config.sizing.pass_wl), n.saen, n.s,
                                           n.bl, n.vdd);
  const std::size_t mpassbar = net.add_mosfet(std::string(names::kMpassBar),
                                              pmos_of(config, config.sizing.pass_wl), n.saen,
                                              n.sbar, n.blbar, n.vdd);
  if (config.with_parasitics) {
    net.add_mosfet_parasitics(mpass);
    net.add_mosfet_parasitics(mpassbar);
  }

  c.bl_ = n.bl;
  c.blbar_ = n.blbar;
  c.s_ = n.s;
  c.sbar_ = n.sbar;
  c.out_ = n.out;
  c.outbar_ = n.outbar;
  c.saen_ = n.saen;
  return c;
}

SenseAmpCircuit build_issa(const SenseAmpConfig& config) {
  SenseAmpCircuit c;
  c.kind_ = SenseAmpKind::kIssa;
  c.config_ = config;
  CoreNodes n = build_core(c.netlist_, config, &c.src_bl_, &c.src_blbar_);

  auto& net = c.netlist_;
  const NodeId saen_a = net.node("saenable_a");
  const NodeId saen_b = net.node("saenable_b");
  const auto waves = digital::IssaController::make_enable_waves(
      config.vdd, config.timing.t_fire, config.timing.t_rise, /*swapped=*/false);
  c.src_saen_a_ = net.add_vsource("Vsaen_a", saen_a, circuit::kGround, waves.saenable_a);
  c.src_saen_b_ = net.add_vsource("Vsaen_b", saen_b, circuit::kGround, waves.saenable_b);

  // Straight pair M1/M2 (gate SAenableA) and crossed pair M3/M4 (SAenableB).
  const std::size_t m1 = net.add_mosfet(std::string(names::kM1),
                                        pmos_of(config, config.sizing.pass_wl), saen_a, n.s, n.bl,
                                        n.vdd);
  const std::size_t m2 = net.add_mosfet(std::string(names::kM2),
                                        pmos_of(config, config.sizing.pass_wl), saen_a, n.sbar,
                                        n.blbar, n.vdd);
  const std::size_t m3 = net.add_mosfet(std::string(names::kM3),
                                        pmos_of(config, config.sizing.pass_wl), saen_b, n.s,
                                        n.blbar, n.vdd);
  const std::size_t m4 = net.add_mosfet(std::string(names::kM4),
                                        pmos_of(config, config.sizing.pass_wl), saen_b, n.sbar,
                                        n.bl, n.vdd);
  if (config.with_parasitics) {
    for (const std::size_t idx : {m1, m2, m3, m4}) net.add_mosfet_parasitics(idx);
  }

  c.bl_ = n.bl;
  c.blbar_ = n.blbar;
  c.s_ = n.s;
  c.sbar_ = n.sbar;
  c.out_ = n.out;
  c.outbar_ = n.outbar;
  c.saen_ = n.saen;
  return c;
}

SenseAmpCircuit build_sense_amp(SenseAmpKind kind, const SenseAmpConfig& config) {
  switch (kind) {
    case SenseAmpKind::kNssa: return build_nssa(config);
    case SenseAmpKind::kIssa: return build_issa(config);
    case SenseAmpKind::kDoubleTail: return build_double_tail(config);
    case SenseAmpKind::kDoubleTailSwitching: return build_double_tail_switching(config);
  }
  throw std::logic_error("build_sense_amp: unknown kind");
}

}  // namespace issa::sa
