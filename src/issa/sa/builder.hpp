// Netlist builders for the two sense amplifiers under study.
//
// build_nssa() realizes the standard latch-type SA of Fig. 1; build_issa()
// realizes the Input Switching SA of Fig. 2 (a second pair of pass
// transistors M3/M4 plus separate SAenableA/SAenableB controls).
#pragma once

#include <cstddef>

#include "issa/circuit/netlist.hpp"
#include "issa/sa/config.hpp"

namespace issa::sa {

enum class SenseAmpKind {
  kNssa,                 ///< standard latch-type SA (Fig. 1)
  kIssa,                 ///< input-switching latch-type SA (Fig. 2)
  kDoubleTail,           ///< double-tail SA (paper ref. [23]; extension)
  kDoubleTailSwitching,  ///< double-tail SA with static input mux (extension)
};

/// True for the two input-switching variants.
constexpr bool is_switching_kind(SenseAmpKind kind) noexcept {
  return kind == SenseAmpKind::kIssa || kind == SenseAmpKind::kDoubleTailSwitching;
}

/// Short name of a kind, as condition labels and trace spans print it.
constexpr const char* kind_name(SenseAmpKind kind) noexcept {
  switch (kind) {
    case SenseAmpKind::kNssa:
      return "NSSA";
    case SenseAmpKind::kIssa:
      return "ISSA";
    case SenseAmpKind::kDoubleTail:
      return "DT";
    case SenseAmpKind::kDoubleTailSwitching:
      return "DT-SW";
  }
  return "?";
}

/// A built sense-amplifier testbench: the netlist plus handles to the nodes
/// and sources the measurement code manipulates.
class SenseAmpCircuit {
 public:
  circuit::Netlist& netlist() noexcept { return netlist_; }
  const circuit::Netlist& netlist() const noexcept { return netlist_; }

  SenseAmpKind kind() const noexcept { return kind_; }
  const SenseAmpConfig& config() const noexcept { return config_; }

  // Node handles.
  circuit::NodeId node_bl() const noexcept { return bl_; }
  circuit::NodeId node_blbar() const noexcept { return blbar_; }
  circuit::NodeId node_s() const noexcept { return s_; }
  circuit::NodeId node_sbar() const noexcept { return sbar_; }
  circuit::NodeId node_out() const noexcept { return out_; }
  circuit::NodeId node_outbar() const noexcept { return outbar_; }
  circuit::NodeId node_saenable() const noexcept { return saen_; }

  /// Drives the bitlines with the given differential: vin = V(BL) - V(BLBar).
  /// Both bitlines stay at or below Vdd (precharge-high discipline): the
  /// lower line is Vdd - |vin|.
  void set_input_differential(double vin);

  /// ISSA only: selects which pass pair is active for the next run (Switch
  /// signal).  Throws std::logic_error for the NSSA.
  void set_swapped(bool swapped);

  bool swapped() const noexcept { return swapped_; }

  /// Resets all mismatch/aging threshold shifts.
  void clear_vth_shifts() { netlist_.clear_vth_shifts(); }

  /// Physics-informed DC starting point for the precharge phase with input
  /// differential `vin`: internal nodes track the bitlines through the pass
  /// gates, the enable header/footer nodes sit near the rails, the output
  /// inverters follow their inputs.  Handing this to the solver keeps Newton
  /// away from its homotopy fallbacks.
  std::vector<double> dc_guess(double vin) const;

 private:
  friend SenseAmpCircuit build_nssa(const SenseAmpConfig&);
  friend SenseAmpCircuit build_issa(const SenseAmpConfig&);
  friend class DoubleTailBuilder;

  void refresh_enable_waves();
  // Sets the voltage a source holds its node at, whichever way round the
  // source is written (`V n 0 wave` or `V 0 n -wave`).
  void drive(std::size_t source, circuit::SourceWave wave);

  circuit::Netlist netlist_;
  SenseAmpKind kind_ = SenseAmpKind::kNssa;
  SenseAmpConfig config_;
  bool swapped_ = false;

  circuit::NodeId bl_ = circuit::kGround;
  circuit::NodeId blbar_ = circuit::kGround;
  circuit::NodeId s_ = circuit::kGround;
  circuit::NodeId sbar_ = circuit::kGround;
  circuit::NodeId out_ = circuit::kGround;
  circuit::NodeId outbar_ = circuit::kGround;
  circuit::NodeId saen_ = circuit::kGround;

  std::size_t src_bl_ = 0;
  std::size_t src_blbar_ = 0;
  std::size_t src_saen_a_ = 0;  // ISSA only
  std::size_t src_saen_b_ = 0;  // ISSA only
};

/// A device of the config's NMOS / PMOS card with the given W/L.
device::MosInstance nmos_of(const SenseAmpConfig& cfg, double wl);
device::MosInstance pmos_of(const SenseAmpConfig& cfg, double wl);

/// Builds the standard (non-switching) latch-type SA testbench.
SenseAmpCircuit build_nssa(const SenseAmpConfig& config);

/// Builds the input-switching SA testbench.
SenseAmpCircuit build_issa(const SenseAmpConfig& config);

/// Builds either kind.
SenseAmpCircuit build_sense_amp(SenseAmpKind kind, const SenseAmpConfig& config);

}  // namespace issa::sa
