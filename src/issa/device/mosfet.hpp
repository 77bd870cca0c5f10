// Smooth single-piece MOSFET I-V model with analytic small-signal derivatives.
//
// Requirements driving the model choice:
//  * one C-infinity expression covering subthreshold -> saturation so Newton
//    iteration in the circuit solver never sees a derivative discontinuity;
//  * velocity saturation (short-channel PTM-45 devices), channel-length
//    modulation, first-order body effect, and temperature scaling, because
//    those set the sensing delay's Vdd and temperature trends the paper
//    reports (Tables III / IV);
//  * a threshold shift input, because mismatch and BTI enter only via Vth.
//
// Model equations (NMOS convention; PMOS mirrors all polarities):
//   Vth   = vth_at(card, T) + gamma (sqrt(phi + Vsb+) - sqrt(phi)) + dVth
//   Veff  = 2 n vT ln(1 + exp((Vgs - Vth) / (2 n vT)))     (smooth overdrive)
//   mu_e  = mu(T) / (1 + theta Veff)
//   Vdsat = Veff EsatL / (Veff + EsatL)                    (velocity sat.)
//   Isat  = 1/2 mu_e Cox (W/L) Veff Vdsat
//   Id    = Isat tanh(Vds / Vdsat) (1 + lambda Vds)
//
// In the limit EsatL >> Veff this reduces to the square law; in subthreshold
// Veff -> 2 n vT exp((Vgs-Vth)/(2 n vT)) gives an exponential with slope
// n vT ln 10 per decade.  Drain/source are swapped internally when Vds < 0 so
// the expression is always evaluated with the conducting polarity.
//
// The expression lives in one place, evaluate_mosfets, which evaluates a
// batch of devices: per chunk of devices it runs the model as a sequence of
// stage loops over structure-of-arrays temporaries (orientation and
// threshold, exp, log1p, overdrive and velocity saturation, tanh, outputs).
// Each lane performs exactly the scalar operations of a one-device
// evaluation, in the same order and with the same libm calls, and every
// branch of the model (PMOS reflection, drain/source swap, the |u| > 40
// overdrive limits) is a per-lane select, so a device's result does not
// depend on the batch it is evaluated in.  What the batch buys is
// independence: a lane's libm calls do not wait on the previous lane's, so
// the core overlaps their latencies.  evaluate_mosfet is a batch of one.
#pragma once

#include <span>

#include "issa/device/mos_params.hpp"

namespace issa::device {

/// Terminal voltages of a MOSFET, all referred to ground.
struct MosTerminals {
  double vg = 0.0;
  double vd = 0.0;
  double vs = 0.0;
  double vb = 0.0;
};

/// Evaluation result: drain current (into the drain terminal, NMOS positive
/// for Vds > 0) plus the conductances needed for an MNA Newton stamp.
struct MosEval {
  double id = 0.0;   ///< drain terminal current [A]
  double gm = 0.0;   ///< dId/dVg
  double gds = 0.0;  ///< dId/dVd
  double gms = 0.0;  ///< dId/dVs
  double gmb = 0.0;  ///< dId/dVb
};

/// The parts of the model that depend only on the card and the temperature.
/// The circuit simulator computes one per MOSFET when it is constructed, so
/// its Newton loop pays no std::pow or std::sqrt for them per evaluation.
struct MosThermal {
  double vth = 0.0;       ///< vth_at(card, T)
  double mu = 0.0;        ///< mobility_at(card, T)
  double sqrt_phi = 0.0;  ///< sqrt(card.phi)
  double two_n_vt = 0.0;  ///< 2 n vT, the smooth-overdrive scale
};

/// Evaluates the temperature constants of `card` at `temperature_k`.
MosThermal mos_thermal(const MosParams& card, double temperature_k);

/// Everything the model reads of one device besides its terminal voltages:
/// polarity, temperature constants, the card values the expression uses,
/// Cox W/L and the threshold shift.  The circuit simulator packs one per
/// MOSFET when it is constructed and refreshes delta_vth before each run.
struct MosConstants {
  bool pmos = false;
  MosThermal thermal;
  double gamma = 0.0;
  double phi = 0.0;
  double theta = 0.0;
  double esat_l = 0.0;
  double beta = 0.0;  ///< cox * w_over_l
  double lambda = 0.0;
  double delta_vth = 0.0;
};

/// Packs `inst` with temperature constants from mos_thermal(inst.card, T).
MosConstants pack_mosfet(const MosInstance& inst, const MosThermal& thermal);

/// Evaluates devices[k] at terminals[k] into out[k] for every k; the three
/// spans must have one size, which may be anything (the kernel works
/// through fixed-size chunks on the stack and allocates nothing).  Each
/// result is bit-identical to evaluating its device alone.
void evaluate_mosfets(std::span<const MosConstants> devices,
                      std::span<const MosTerminals> terminals, std::span<MosEval> out);

/// Evaluates the instance at the given terminal voltages with precomputed
/// temperature constants, which must come from mos_thermal(inst.card, T).
/// The returned derivatives are exact for the model expression (verified
/// against finite differences in tests/device/mosfet_test.cpp).  A batch of
/// one device.
MosEval evaluate_mosfet(const MosInstance& inst, const MosTerminals& v, const MosThermal& thermal);

/// Same as above with the constants computed on the spot; bit-identical.
MosEval evaluate_mosfet(const MosInstance& inst, const MosTerminals& v, double temperature_k);

/// Effective threshold (temperature + body effect + delta) for diagnostics.
double effective_vth(const MosInstance& inst, double vsb, double temperature_k);

}  // namespace issa::device
