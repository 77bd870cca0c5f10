#include "issa/device/mosfet.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>

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

// Devices per chunk: the stage loops' temporaries are arrays of this many
// lanes on the stack.  One chunk holds an NSSA (12) or ISSA (14) testbench.
constexpr std::size_t kChunk = 16;

// What one stage of a chunk hands to the next, one array per quantity.
// Lane i is written by its stage before a later stage reads it; lanes past
// the chunk's device count are never touched, so nothing is zeroed (zeroing
// cost up to a third of a batch's time).
struct Lanes {
  bool swapped[kChunk];
  double vgs[kChunk], vds[kChunk], vth[kChunk], dvth_dvsb[kChunk], u[kChunk];
  double e[kChunk], softplus[kChunk], x[kChunk], t[kChunk];
  double sig[kChunk], vdsat[kChunk], dvdsat_dveff[kChunk], isat[kChunk], disat_dveff[kChunk];
};

// Evaluates n <= kChunk devices.  Per lane this is the scalar model in the
// NMOS frame: reflect a PMOS's terminals, swap drain and source when
// vd < vs (or either is NaN), evaluate with vd >= vs, then map the partials
// back.  Every operation and its order are those of a one-device
// evaluation; the branches are per-lane selects.  Inlined into each caller,
// so evaluate_mosfet's one-device call compiles with n = 1 and costs what a
// scalar kernel would.
[[gnu::always_inline]] inline void evaluate_chunk(std::size_t n, const MosConstants* dev,
                                                  const MosTerminals* v, MosEval* out) {
  Lanes lane;

  // Orientation, then the threshold with body effect, temperature shift, and
  // mismatch/aging delta.
  for (std::size_t i = 0; i < n; ++i) {
    const MosConstants& c = dev[i];
    // PMOS: reflect every node voltage and evaluate as NMOS.
    const double vg = c.pmos ? -v[i].vg : v[i].vg;
    const double vd_in = c.pmos ? -v[i].vd : v[i].vd;
    const double vs_in = c.pmos ? -v[i].vs : v[i].vs;
    const double vb = c.pmos ? -v[i].vb : v[i].vb;
    const bool swapped = !(vd_in >= vs_in);
    const double vd = swapped ? vs_in : vd_in;
    const double vs = swapped ? vd_in : vs_in;
    const double vgs = vg - vs;
    const double vds = vd - vs;
    const double vsb = vs - vb;

    double dvsb_eff;
    const double vsb_eff = smooth_positive(vsb, &dvsb_eff);
    const double sqrt_term = std::sqrt(c.phi + vsb_eff);
    const double vth = c.thermal.vth + c.gamma * (sqrt_term - c.thermal.sqrt_phi) + c.delta_vth;
    lane.swapped[i] = swapped;
    lane.vgs[i] = vgs;
    lane.vds[i] = vds;
    lane.vth[i] = vth;
    lane.dvth_dvsb[i] = c.gamma * 0.5 / sqrt_term * dvsb_eff;
    lane.u[i] = (vgs - vth) / c.thermal.two_n_vt;
  }

  // Smooth effective overdrive.  The libm calls run lane after lane with no
  // dependence between lanes; a lane beyond |u| > 40 discards its results.
  for (std::size_t i = 0; i < n; ++i) lane.e[i] = std::exp(lane.u[i]);
  for (std::size_t i = 0; i < n; ++i) lane.softplus[i] = std::log1p(lane.e[i]);

  // Mobility degradation and velocity saturation.
  for (std::size_t i = 0; i < n; ++i) {
    const MosConstants& c = dev[i];
    const double two_n_vt = c.thermal.two_n_vt;
    const double u = lane.u[i];
    const double e = lane.e[i];
    // veff, and sig = dVeff/dVov; the floor is far below any observable
    // current.
    double veff = u > 40.0    ? lane.vgs[i] - lane.vth[i]
                  : u < -40.0 ? two_n_vt * std::exp(-40.0)
                              : two_n_vt * lane.softplus[i];
    lane.sig[i] = u > 40.0 ? 1.0 : u < -40.0 ? 0.0 : e / (1.0 + e);
    veff = std::max(veff, 1e-12);

    const double mu = c.thermal.mu;
    const double theta_denom = 1.0 + c.theta * veff;
    const double mu_eff = mu / theta_denom;
    const double dmu_dveff = -mu * c.theta / (theta_denom * theta_denom);
    const double esat = c.esat_l;
    const double vdsat = veff * esat / (veff + esat);
    const double dvdsat_dveff = (esat / (veff + esat)) * (esat / (veff + esat));

    const double beta = c.beta;
    lane.isat[i] = 0.5 * beta * mu_eff * veff * vdsat;
    lane.disat_dveff[i] =
        0.5 * beta * (dmu_dveff * veff * vdsat + mu_eff * vdsat + mu_eff * veff * dvdsat_dveff);
    lane.vdsat[i] = vdsat;
    lane.dvdsat_dveff[i] = dvdsat_dveff;
    lane.x[i] = lane.vds[i] / vdsat;
  }

  for (std::size_t i = 0; i < n; ++i) lane.t[i] = std::tanh(lane.x[i]);

  // Drain-voltage dependence: smooth saturation plus channel-length
  // modulation; then the partials back to the device's own terminals.
  for (std::size_t i = 0; i < n; ++i) {
    const double lambda = dev[i].lambda;
    const double vds = lane.vds[i];
    const double vdsat = lane.vdsat[i];
    const double isat = lane.isat[i];
    const double t = lane.t[i];
    const double sig = lane.sig[i];
    const double sech2 = 1.0 - t * t;
    const double clm = 1.0 + lambda * vds;

    const double id = isat * t * clm;
    const double did_dvds = isat * (sech2 / vdsat * clm + t * lambda);
    const double did_dveff = lane.disat_dveff[i] * t * clm +
                             isat * sech2 * (-vds / (vdsat * vdsat)) * lane.dvdsat_dveff[i] * clm;

    MosEval r;
    r.id = id;
    r.gm = did_dveff * sig;                     // dVov/dVg = 1
    r.gds = did_dvds;                           // dVds/dVd = 1
    r.gmb = did_dveff * sig * lane.dvth_dvsb[i];  // vb up -> vsb down -> vth down -> veff up
    // Translation invariance: shifting every terminal equally changes nothing.
    r.gms = -(r.gm + r.gds + r.gmb);

    // Swapped: the actual drain played the source role.
    const bool swapped = lane.swapped[i];
    MosEval f;
    f.id = swapped ? -r.id : r.id;
    f.gm = swapped ? -r.gm : r.gm;
    f.gds = swapped ? -r.gms : r.gds;
    f.gms = swapped ? -r.gds : r.gms;
    f.gmb = swapped ? -r.gmb : r.gmb;
    // PMOS: the drain current and all derivatives transform as id -> -id,
    // g -> +g (chain rule through the sign flip of both the function value
    // and each argument).
    if (dev[i].pmos) f.id = -f.id;
    out[i] = f;
  }
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

MosConstants pack_mosfet(const MosInstance& inst, const MosThermal& thermal) {
  const MosParams& p = inst.card;
  MosConstants c;
  c.pmos = inst.type == MosType::kPmos;
  c.thermal = thermal;
  c.gamma = p.gamma;
  c.phi = p.phi;
  c.theta = p.theta;
  c.esat_l = p.esat_l;
  c.beta = p.cox * inst.w_over_l;
  c.lambda = p.lambda;
  c.delta_vth = inst.delta_vth;
  return c;
}

void evaluate_mosfets(std::span<const MosConstants> devices,
                      std::span<const MosTerminals> terminals, std::span<MosEval> out) {
  if (terminals.size() != devices.size() || out.size() != devices.size()) {
    throw std::invalid_argument("evaluate_mosfets: devices, terminals and out differ in size");
  }
  for (std::size_t begin = 0; begin < devices.size(); begin += kChunk) {
    const std::size_t n = std::min(kChunk, devices.size() - begin);
    evaluate_chunk(n, &devices[begin], &terminals[begin], &out[begin]);
  }
}

MosEval evaluate_mosfet(const MosInstance& inst, const MosTerminals& v, const MosThermal& th) {
  const MosConstants device = pack_mosfet(inst, th);
  MosEval e;
  evaluate_chunk(1, &device, &v, &e);
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
