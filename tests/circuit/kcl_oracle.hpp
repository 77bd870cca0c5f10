// KCL oracle for transient results: rebuilds, from the public netlist alone,
// the current balance of every free node at every recorded point of a
// trapezoidal transient, so a test can check what the solver accepted
// without reading any of its internals.
#pragma once

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "issa/circuit/simulator.hpp"
#include "issa/device/mosfet.hpp"

namespace issa::circuit::testing {

// Conductance the solver puts from every free node to ground [S].
inline constexpr double kOracleGmin = 1e-9;

struct KclWorst {
  double residual = 0.0;  // largest |KCL sum| over free nodes and records [A]
  double time = 0.0;      // [s]
  std::string node;
};

// The netlist may hold resistors, capacitors, MOSFETs and voltage sources
// from a node to ground; every other node is a free node.  `result` must
// record every node (no probe list) of a trapezoidal run.  Capacitor
// currents follow the trapezoidal rule, i_n = 2C/h (v_n - v_{n-1}) - i_{n-1},
// and are zero at the first record, the DC point.
inline KclWorst worst_kcl_residual(const Netlist& net, double temperature_k,
                                   const TransientResult& result) {
  KclWorst worst;
  EXPECT_TRUE(net.isources().empty());
  std::vector<bool> free(net.node_count(), true);
  free[kGround] = false;
  for (const VoltageSource& src : net.vsources()) {
    EXPECT_EQ(src.neg, kGround) << src.name;
    free[static_cast<std::size_t>(src.pos)] = false;
  }
  std::vector<device::MosThermal> thermal;
  for (const Mosfet& m : net.mosfets()) {
    thermal.push_back(device::mos_thermal(m.inst.card, temperature_k));
  }

  const std::vector<double>& time = result.time();
  auto v = [&](NodeId node, std::size_t r) { return result.node_wave(node)[r]; };
  std::vector<double> cap_current(net.capacitors().size(), 0.0);
  std::vector<double> kcl(net.node_count());
  for (std::size_t r = 0; r < time.size(); ++r) {
    for (std::size_t node = 0; node < kcl.size(); ++node) {
      kcl[node] = free[node] ? kOracleGmin * v(static_cast<NodeId>(node), r) : 0.0;
    }
    for (const Resistor& res : net.resistors()) {
      const double i = (v(res.a, r) - v(res.b, r)) / res.resistance;
      kcl[static_cast<std::size_t>(res.a)] += i;
      kcl[static_cast<std::size_t>(res.b)] -= i;
    }
    for (std::size_t k = 0; k < net.capacitors().size(); ++k) {
      const Capacitor& cap = net.capacitors()[k];
      if (r > 0) {
        const double h = time[r] - time[r - 1];
        const double dv = (v(cap.a, r) - v(cap.b, r)) - (v(cap.a, r - 1) - v(cap.b, r - 1));
        cap_current[k] = 2.0 * cap.capacitance / h * dv - cap_current[k];
      }
      kcl[static_cast<std::size_t>(cap.a)] += cap_current[k];
      kcl[static_cast<std::size_t>(cap.b)] -= cap_current[k];
    }
    for (std::size_t k = 0; k < net.mosfets().size(); ++k) {
      const Mosfet& m = net.mosfets()[k];
      const device::MosEval e = device::evaluate_mosfet(
          m.inst, {v(m.gate, r), v(m.drain, r), v(m.source, r), v(m.bulk, r)}, thermal[k]);
      kcl[static_cast<std::size_t>(m.drain)] += e.id;
      kcl[static_cast<std::size_t>(m.source)] -= e.id;
    }
    for (std::size_t node = 0; node < kcl.size(); ++node) {
      if (!free[node] || std::fabs(kcl[node]) <= worst.residual) continue;
      worst.residual = std::fabs(kcl[node]);
      worst.time = time[r];
      worst.node = net.node_name(static_cast<NodeId>(node));
    }
  }
  return worst;
}

}  // namespace issa::circuit::testing
