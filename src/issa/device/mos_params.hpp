// Compact-model parameter cards.
//
// The paper simulates the sense amplifiers with the 45 nm PTM
// high-performance (BSIM4) library in Spectre.  We substitute a smooth
// single-piece compact model (see mosfet.hpp) whose parameters below are
// PTM-45HP-inspired and then calibrated so that the t = 0 figures of merit
// match the paper (offset sigma ~= 14.8 mV, sensing delay ~= 13.6 ps at
// 1.0 V / 25 C; see DESIGN.md section 5).
#pragma once

namespace issa::device {

enum class MosType { kNmos, kPmos };

/// Technology/parameter card for one device polarity.  All values SI.
struct MosParams {
  double vth0 = 0.45;        ///< zero-bias threshold magnitude [V]
  double gamma = 0.20;       ///< body-effect coefficient [sqrt(V)]
  double phi = 0.85;         ///< surface potential 2*phi_F [V]
  double mu0 = 0.030;        ///< low-field mobility at tnom [m^2/(V s)]
  double cox = 0.030;        ///< gate-oxide capacitance per area [F/m^2]
  double lambda = 0.08;      ///< channel-length modulation [1/V]
  double theta = 0.25;       ///< vertical-field mobility degradation [1/V]
  double esat_l = 0.60;      ///< velocity-saturation voltage E_sat * L [V]
  double n_sub = 1.35;       ///< subthreshold slope factor
  double length = 45e-9;     ///< drawn channel length [m]
  double tnom = 300.15;      ///< card reference temperature [K]
  double mu_temp_exp = 1.4;  ///< mu(T) = mu0 (T/tnom)^-mu_temp_exp
  double vth_tc = -0.8e-3;   ///< threshold temperature coefficient [V/K]
  double cj_per_width = 0.6e-9;   ///< junction cap per device width [F/m]
  double cov_per_width = 0.25e-9; ///< gate overlap cap per device width [F/m]

  bool operator==(const MosParams&) const = default;
};

/// PTM-45HP-inspired NMOS card (calibrated; see DESIGN.md).
MosParams ptm45_nmos();

/// PTM-45HP-inspired PMOS card (calibrated; see DESIGN.md).
MosParams ptm45_pmos();

/// Effective mobility at temperature T [K].
double mobility_at(const MosParams& p, double temperature_k);

/// Threshold magnitude at temperature T [K] (before mismatch/aging deltas).
double vth_at(const MosParams& p, double temperature_k);

/// A sized device instance: card + polarity + geometry + Vth shift.
/// `delta_vth` is the *magnitude* increase of the threshold; both process
/// variation (signed) and BTI aging (positive) accumulate here.
struct MosInstance {
  MosParams card;
  MosType type = MosType::kNmos;
  double w_over_l = 1.0;   ///< drawn W/L ratio
  double delta_vth = 0.0;  ///< threshold magnitude shift [V]

  double width() const { return w_over_l * card.length; }
  /// Intrinsic gate capacitance Cox * W * L [F].
  double gate_cap() const { return card.cox * width() * card.length; }
  /// Gate-drain / gate-source overlap capacitance [F].
  double overlap_cap() const { return card.cov_per_width * width(); }
  /// Drain/source junction capacitance to bulk [F].
  double junction_cap() const { return card.cj_per_width * width(); }
};

}  // namespace issa::device
