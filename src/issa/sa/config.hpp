// Sense-amplifier configuration: device sizing, supplies, and the sensing
// operation's timing.
#pragma once

#include "issa/device/mos_params.hpp"
#include "issa/util/units.hpp"

namespace issa::sa {

/// W/L ratios from Fig. 1 of the paper.  The scanned figure's size labels are
/// partially ambiguous (OCR); the assignment below follows the figure's label
/// placement and standard latch-type SA design practice and is documented in
/// DESIGN.md: pass gates 10, cross-coupled NMOS pair 17.8, cross-coupled PMOS
/// pair 5, enable header/footer 15.5, output inverter 2.5 (N) / 5 (P).
struct SenseAmpSizing {
  double pass_wl = 10.0;     ///< Mpass/MpassBar and M1..M4 (PMOS)
  double mdown_wl = 17.8;    ///< cross-coupled NMOS pair
  double mup_wl = 5.0;       ///< cross-coupled PMOS pair
  double mtop_wl = 15.5;     ///< PMOS enable header
  double mbottom_wl = 15.5;  ///< NMOS enable footer
  double out_n_wl = 2.5;     ///< output inverter NMOS
  double out_p_wl = 5.0;     ///< output inverter PMOS

  bool operator==(const SenseAmpSizing&) const = default;
};

/// Timing of one sensing operation in the transient testbench.
struct SenseTiming {
  double t_fire = 10e-12;   ///< SAenable starts rising [s]
  double t_rise = 2e-12;    ///< SAenable ramp time [s]
  double t_stop = 60e-12;   ///< simulation end [s]
  double dt = 0.2e-12;      ///< fixed transient timestep [s] (DESIGN.md §8.7)

  bool operator==(const SenseTiming&) const = default;
};

struct SenseAmpConfig {
  double vdd = 1.0;               ///< supply [V]
  double temperature_c = 25.0;    ///< die temperature [C]
  double node_cap = 1e-15;        ///< explicit 1 fF caps on S and SBar (Fig. 1)
  double out_load_cap = 3.2e-15;  ///< load on Out/OutBar [F]
  bool with_parasitics = true;    ///< add per-device Cgs/Cgd/Cdb
  SenseAmpSizing sizing;
  SenseTiming timing;
  device::MosParams nmos = device::ptm45_nmos();
  device::MosParams pmos = device::ptm45_pmos();

  double temperature_k() const { return util::celsius_to_kelvin(temperature_c); }

  bool operator==(const SenseAmpConfig&) const = default;
};

/// The paper's nominal conditions: Vdd = 1.0 V, 25 C.
SenseAmpConfig nominal_config();

/// Convenience variants for the paper's corner sweeps.
SenseAmpConfig config_with_vdd_scale(double scale);       // e.g. 0.9, 1.1
SenseAmpConfig config_with_temperature(double celsius);   // e.g. 75, 125

}  // namespace issa::sa
