#include "issa/device/mosfet.hpp"

#include <algorithm>
#include <cmath>

#include "issa/util/units.hpp"

namespace issa::device {

namespace {

// Smoothly clamps vsb to non-negative values so sqrt(phi + vsb) stays real
// when a source transiently dips below the bulk.
double smooth_positive(double x, double* dydx) {
  constexpr double kEps = 1e-4;  // [V^2] rounding of the corner at 0
  const double r = std::sqrt(x * x + kEps);
  *dydx = 0.5 * (1.0 + x / r);
  return 0.5 * (x + r);
}

// Core evaluation in the NMOS frame, requiring vd >= vs.
// Returns partials with respect to (vg, vd, vs, vb) as independent variables.
MosEval eval_ordered(const MosInstance& inst, double vg, double vd, double vs, double vb,
                     const MosThermal& th) {
  const MosParams& p = inst.card;
  const double vgs = vg - vs;
  const double vds = vd - vs;
  const double vsb = vs - vb;

  // Threshold with body effect, temperature shift, and mismatch/aging delta.
  double dvsb_eff;
  const double vsb_eff = smooth_positive(vsb, &dvsb_eff);
  const double sqrt_term = std::sqrt(p.phi + vsb_eff);
  const double vth = th.vth + p.gamma * (sqrt_term - th.sqrt_phi) + inst.delta_vth;
  const double dvth_dvsb = p.gamma * 0.5 / sqrt_term * dvsb_eff;

  // Smooth effective overdrive.
  const double two_n_vt = th.two_n_vt;
  const double u = (vgs - vth) / two_n_vt;
  double veff;
  double sig;  // dVeff/dVov
  if (u > 40.0) {
    veff = vgs - vth;
    sig = 1.0;
  } else if (u < -40.0) {
    veff = two_n_vt * std::exp(-40.0);  // floor far below any observable current
    sig = 0.0;
  } else {
    const double e = std::exp(u);
    veff = two_n_vt * std::log1p(e);
    sig = e / (1.0 + e);
  }
  veff = std::max(veff, 1e-12);

  // Mobility degradation and velocity saturation.
  const double mu = th.mu;
  const double theta_denom = 1.0 + p.theta * veff;
  const double mu_eff = mu / theta_denom;
  const double dmu_dveff = -mu * p.theta / (theta_denom * theta_denom);
  const double esat = p.esat_l;
  const double vdsat = veff * esat / (veff + esat);
  const double dvdsat_dveff = (esat / (veff + esat)) * (esat / (veff + esat));

  const double beta = p.cox * inst.w_over_l;
  const double isat = 0.5 * beta * mu_eff * veff * vdsat;
  const double disat_dveff =
      0.5 * beta * (dmu_dveff * veff * vdsat + mu_eff * vdsat + mu_eff * veff * dvdsat_dveff);

  // Drain-voltage dependence: smooth saturation plus channel-length modulation.
  const double x = vds / vdsat;
  const double t = std::tanh(x);
  const double sech2 = 1.0 - t * t;
  const double clm = 1.0 + p.lambda * vds;

  const double id = isat * t * clm;
  const double did_dvds = isat * (sech2 / vdsat * clm + t * p.lambda);
  const double did_dveff =
      disat_dveff * t * clm + isat * sech2 * (-vds / (vdsat * vdsat)) * dvdsat_dveff * clm;

  MosEval e;
  e.id = id;
  e.gm = did_dveff * sig;           // dVov/dVg = 1
  e.gds = did_dvds;                 // dVds/dVd = 1
  e.gmb = did_dveff * sig * dvth_dvsb;  // vb up -> vsb down -> vth down -> veff up
  // Translation invariance: shifting every terminal equally changes nothing.
  e.gms = -(e.gm + e.gds + e.gmb);
  return e;
}

// NMOS frame with automatic drain/source swap for vds < 0.
MosEval eval_nmos_frame(const MosInstance& inst, double vg, double vd, double vs, double vb,
                        const MosThermal& th) {
  if (vd >= vs) return eval_ordered(inst, vg, vd, vs, vb, th);
  const MosEval r = eval_ordered(inst, vg, vs, vd, vb, th);
  MosEval e;
  e.id = -r.id;
  e.gm = -r.gm;
  e.gds = -r.gms;  // actual drain plays the source role in the swapped eval
  e.gms = -r.gds;
  e.gmb = -r.gmb;
  return e;
}

}  // namespace

MosThermal mos_thermal(const MosParams& card, double temperature_k) {
  MosThermal th;
  th.vth = vth_at(card, temperature_k);
  th.mu = mobility_at(card, temperature_k);
  th.sqrt_phi = std::sqrt(card.phi);
  th.two_n_vt = 2.0 * card.n_sub * util::thermal_voltage(temperature_k);
  return th;
}

MosEval evaluate_mosfet(const MosInstance& inst, const MosTerminals& v, const MosThermal& th) {
  if (inst.type == MosType::kNmos) {
    return eval_nmos_frame(inst, v.vg, v.vd, v.vs, v.vb, th);
  }
  // PMOS: reflect every node voltage and evaluate as NMOS; the drain current
  // and all derivatives transform as id -> -id, g -> +g (chain rule through
  // the sign flip of both the function value and each argument).
  const MosEval r = eval_nmos_frame(inst, -v.vg, -v.vd, -v.vs, -v.vb, th);
  MosEval e;
  e.id = -r.id;
  e.gm = r.gm;
  e.gds = r.gds;
  e.gms = r.gms;
  e.gmb = r.gmb;
  return e;
}

MosEval evaluate_mosfet(const MosInstance& inst, const MosTerminals& v, double temperature_k) {
  return evaluate_mosfet(inst, v, mos_thermal(inst.card, temperature_k));
}

double effective_vth(const MosInstance& inst, double vsb, double temperature_k) {
  const MosParams& p = inst.card;
  double unused;
  const double vsb_eff = smooth_positive(vsb, &unused);
  return vth_at(p, temperature_k) + p.gamma * (std::sqrt(p.phi + vsb_eff) - std::sqrt(p.phi)) +
         inst.delta_vth;
}

}  // namespace issa::device
