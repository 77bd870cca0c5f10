// Circuit netlist: named nodes plus resistors, capacitors, MOSFETs, and
// independent sources.  Node 0 is always ground.
//
// The sense-amplifier builders in issa/sa construct netlists through this
// API; the Monte-Carlo engine then mutates per-device threshold shifts
// (mismatch + aging) and re-simulates.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "issa/circuit/waveform.hpp"
#include "issa/device/mos_params.hpp"

namespace issa::circuit {

using NodeId = int;
inline constexpr NodeId kGround = 0;

struct Resistor {
  std::string name;
  NodeId a = kGround;
  NodeId b = kGround;
  double resistance = 0.0;
};

struct Capacitor {
  std::string name;
  NodeId a = kGround;
  NodeId b = kGround;
  double capacitance = 0.0;
};

struct Mosfet {
  std::string name;
  device::MosInstance inst;
  NodeId gate = kGround;
  NodeId drain = kGround;
  NodeId source = kGround;
  NodeId bulk = kGround;
};

struct VoltageSource {
  std::string name;
  NodeId pos = kGround;
  NodeId neg = kGround;
  SourceWave wave = SourceWave::dc(0.0);
};

struct CurrentSource {
  std::string name;
  NodeId pos = kGround;  ///< current flows pos -> neg through the source
  NodeId neg = kGround;
  SourceWave wave = SourceWave::dc(0.0);
};

class Netlist {
 public:
  Netlist();

  /// Creates (or returns the existing) node with this name; "0" is ground.
  NodeId node(std::string_view name);

  /// Looks up an existing node; throws std::out_of_range when absent.
  NodeId find_node(std::string_view name) const;

  std::size_t node_count() const noexcept { return node_names_.size(); }
  const std::string& node_name(NodeId id) const { return node_names_.at(static_cast<std::size_t>(id)); }

  // --- device construction ------------------------------------------------
  std::size_t add_resistor(std::string name, NodeId a, NodeId b, double resistance);
  std::size_t add_capacitor(std::string name, NodeId a, NodeId b, double capacitance);
  std::size_t add_mosfet(std::string name, device::MosInstance inst, NodeId gate, NodeId drain,
                         NodeId source, NodeId bulk);
  std::size_t add_vsource(std::string name, NodeId pos, NodeId neg, SourceWave wave);
  std::size_t add_isource(std::string name, NodeId pos, NodeId neg, SourceWave wave);

  /// Adds the three parasitic capacitors (gate-source, gate-drain,
  /// drain-bulk) implied by a MOSFET instance's geometry.  Kept explicit so
  /// tests can build idealized circuits without parasitics.
  void add_mosfet_parasitics(std::size_t mosfet_index);

  // --- access -------------------------------------------------------------
  const std::vector<Resistor>& resistors() const noexcept { return resistors_; }
  const std::vector<Capacitor>& capacitors() const noexcept { return capacitors_; }
  const std::vector<Mosfet>& mosfets() const noexcept { return mosfets_; }
  const std::vector<VoltageSource>& vsources() const noexcept { return vsources_; }
  const std::vector<CurrentSource>& isources() const noexcept { return isources_; }

  Mosfet& mosfet(std::size_t index) { return mosfets_.at(index); }
  VoltageSource& vsource(std::size_t index) { return vsources_.at(index); }

  /// Finds a MOSFET by name; throws std::out_of_range when absent.
  Mosfet& find_mosfet(std::string_view name);
  const Mosfet& find_mosfet(std::string_view name) const;

  /// Finds a voltage source by name; throws std::out_of_range when absent.
  VoltageSource& find_vsource(std::string_view name);

  /// Total threshold-shift bookkeeping reset (per Monte-Carlo sample).
  void clear_vth_shifts();

 private:
  std::vector<std::string> node_names_;
  std::unordered_map<std::string, NodeId> node_index_;
  std::vector<Resistor> resistors_;
  std::vector<Capacitor> capacitors_;
  std::vector<Mosfet> mosfets_;
  std::vector<VoltageSource> vsources_;
  std::vector<CurrentSource> isources_;
};

}  // namespace issa::circuit
