#include "issa/circuit/netlist.hpp"

namespace issa::circuit {

Netlist::Netlist() {
  node_names_.emplace_back("0");
  node_index_.emplace("0", kGround);
}

NodeId Netlist::node(std::string_view name) {
  const std::string key(name);
  if (const auto it = node_index_.find(key); it != node_index_.end()) return it->second;
  const NodeId id = static_cast<NodeId>(node_names_.size());
  node_names_.push_back(key);
  node_index_.emplace(key, id);
  return id;
}

NodeId Netlist::find_node(std::string_view name) const {
  const auto it = node_index_.find(std::string(name));
  if (it == node_index_.end()) throw std::out_of_range("Netlist: unknown node " + std::string(name));
  return it->second;
}

std::size_t Netlist::add_resistor(std::string name, NodeId a, NodeId b, double resistance) {
  if (resistance <= 0.0) throw std::invalid_argument("add_resistor: resistance must be > 0");
  resistors_.push_back({std::move(name), a, b, resistance});
  return resistors_.size() - 1;
}

std::size_t Netlist::add_capacitor(std::string name, NodeId a, NodeId b, double capacitance) {
  if (capacitance <= 0.0) throw std::invalid_argument("add_capacitor: capacitance must be > 0");
  capacitors_.push_back({std::move(name), a, b, capacitance});
  return capacitors_.size() - 1;
}

std::size_t Netlist::add_mosfet(std::string name, device::MosInstance inst, NodeId gate,
                                NodeId drain, NodeId source, NodeId bulk) {
  if (inst.w_over_l <= 0.0) throw std::invalid_argument("add_mosfet: W/L must be > 0");
  mosfets_.push_back({std::move(name), inst, gate, drain, source, bulk});
  return mosfets_.size() - 1;
}

std::size_t Netlist::add_vsource(std::string name, NodeId pos, NodeId neg, SourceWave wave) {
  vsources_.push_back({std::move(name), pos, neg, std::move(wave)});
  return vsources_.size() - 1;
}

std::size_t Netlist::add_isource(std::string name, NodeId pos, NodeId neg, SourceWave wave) {
  isources_.push_back({std::move(name), pos, neg, std::move(wave)});
  return isources_.size() - 1;
}

void Netlist::add_mosfet_parasitics(std::size_t mosfet_index) {
  const Mosfet& m = mosfets_.at(mosfet_index);
  // Split the intrinsic gate capacitance between source and drain and add the
  // overlap contribution on each side; junction capacitance loads the drain.
  const double half_gate = 0.5 * m.inst.gate_cap();
  const double cov = m.inst.overlap_cap();
  const double cj = m.inst.junction_cap();
  if (m.gate != m.source) {
    add_capacitor(m.name + ".cgs", m.gate, m.source, half_gate + cov);
  }
  if (m.gate != m.drain) {
    add_capacitor(m.name + ".cgd", m.gate, m.drain, half_gate + cov);
  }
  if (m.drain != m.bulk) {
    add_capacitor(m.name + ".cdb", m.drain, m.bulk, cj);
  }
}

Mosfet& Netlist::find_mosfet(std::string_view name) {
  for (auto& m : mosfets_) {
    if (m.name == name) return m;
  }
  throw std::out_of_range("Netlist: unknown mosfet " + std::string(name));
}

const Mosfet& Netlist::find_mosfet(std::string_view name) const {
  for (const auto& m : mosfets_) {
    if (m.name == name) return m;
  }
  throw std::out_of_range("Netlist: unknown mosfet " + std::string(name));
}

VoltageSource& Netlist::find_vsource(std::string_view name) {
  for (auto& v : vsources_) {
    if (v.name == name) return v;
  }
  throw std::out_of_range("Netlist: unknown vsource " + std::string(name));
}

void Netlist::clear_vth_shifts() {
  for (auto& m : mosfets_) m.inst.delta_vth = 0.0;
}

}  // namespace issa::circuit
