#include "issa/device/mosfet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "issa/device/mos_params.hpp"
#include "issa/util/units.hpp"

namespace issa::device {
namespace {

MosInstance nmos(double wl = 5.0) {
  MosInstance m;
  m.card = ptm45_nmos();
  m.type = MosType::kNmos;
  m.w_over_l = wl;
  return m;
}

MosInstance pmos(double wl = 5.0) {
  MosInstance m;
  m.card = ptm45_pmos();
  m.type = MosType::kPmos;
  m.w_over_l = wl;
  return m;
}

constexpr double kT = 298.15;

// --- the scalar kernel: the batch kernel's oracle ------------------------
//
// The device-at-a-time kernel that evaluate_mosfets replaced, verbatim.  The
// batch must reproduce it bit for bit.

namespace oracle {

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

// The PMOS reflection of the replaced evaluate_mosfet.
MosEval evaluate(const MosInstance& inst, const MosTerminals& v, const MosThermal& th) {
  if (inst.type == MosType::kNmos) {
    return eval_nmos_frame(inst, v.vg, v.vd, v.vs, v.vb, th);
  }
  const MosEval r = eval_nmos_frame(inst, -v.vg, -v.vd, -v.vs, -v.vb, th);
  MosEval e;
  e.id = -r.id;
  e.gm = r.gm;
  e.gds = r.gds;
  e.gms = r.gms;
  e.gmb = r.gmb;
  return e;
}

}  // namespace oracle

TEST(Mosfet, NmosOffBelowThreshold) {
  const MosEval e = evaluate_mosfet(nmos(), {0.0, 1.0, 0.0, 0.0}, kT);
  EXPECT_LT(std::fabs(e.id), 1e-9);
}

TEST(Mosfet, NmosConductsAboveThreshold) {
  const MosEval e = evaluate_mosfet(nmos(), {1.0, 1.0, 0.0, 0.0}, kT);
  EXPECT_GT(e.id, 1e-5);
  EXPECT_GT(e.gm, 0.0);
  EXPECT_GT(e.gds, 0.0);
}

TEST(Mosfet, PmosMirrorsNmos) {
  // A PMOS with source at Vdd and gate at 0 conducts with negative drain
  // current (current flows out of the drain into the load).
  const MosEval e = evaluate_mosfet(pmos(), {0.0, 0.0, 1.0, 1.0}, kT);
  EXPECT_LT(e.id, -1e-5);
}

TEST(Mosfet, PmosOffWithGateHigh) {
  const MosEval e = evaluate_mosfet(pmos(), {1.0, 0.0, 1.0, 1.0}, kT);
  EXPECT_LT(std::fabs(e.id), 1e-9);
}

TEST(Mosfet, ZeroVdsZeroCurrent) {
  const MosEval e = evaluate_mosfet(nmos(), {1.0, 0.3, 0.3, 0.0}, kT);
  EXPECT_NEAR(e.id, 0.0, 1e-15);
}

TEST(Mosfet, CurrentScalesWithWidth) {
  const MosEval narrow = evaluate_mosfet(nmos(2.0), {1.0, 1.0, 0.0, 0.0}, kT);
  const MosEval wide = evaluate_mosfet(nmos(4.0), {1.0, 1.0, 0.0, 0.0}, kT);
  EXPECT_NEAR(wide.id / narrow.id, 2.0, 1e-9);
}

TEST(Mosfet, DrainSourceSwapAntisymmetry) {
  // id(vg, vd, vs) == -id(vg, vs, vd): the channel has no built-in direction.
  const MosEval fwd = evaluate_mosfet(nmos(), {0.9, 0.7, 0.2, 0.0}, kT);
  const MosEval rev = evaluate_mosfet(nmos(), {0.9, 0.2, 0.7, 0.0}, kT);
  EXPECT_NEAR(fwd.id, -rev.id, 1e-15);
}

TEST(Mosfet, ContinuousAcrossVdsZero) {
  // The drain/source swap must not create a kink: current is ~linear in vds
  // through 0.
  const double eps = 1e-6;
  const MosEval plus = evaluate_mosfet(nmos(), {1.0, eps, 0.0, 0.0}, kT);
  const MosEval minus = evaluate_mosfet(nmos(), {1.0, -eps, 0.0, 0.0}, kT);
  EXPECT_NEAR(plus.id, -minus.id, 1e-12);
  EXPECT_NEAR(plus.gds, minus.gds, plus.gds * 1e-3);
}

TEST(Mosfet, SubthresholdSlopeIsExponential) {
  // One n * vT * ln(10) gate step deep in weak inversion changes the current
  // by ~10x (the asymptotic slope of the smooth-overdrive model).
  const MosParams p = ptm45_nmos();
  const double step = p.n_sub * util::thermal_voltage(kT) * std::log(10.0);
  const double vg0 = p.vth0 - 0.30;
  const MosEval lo = evaluate_mosfet(nmos(), {vg0, 1.0, 0.0, 0.0}, kT);
  const MosEval hi = evaluate_mosfet(nmos(), {vg0 + step, 1.0, 0.0, 0.0}, kT);
  EXPECT_NEAR(hi.id / lo.id, 10.0, 1.0);
}

TEST(Mosfet, DeltaVthShiftsCurrentDown) {
  MosInstance aged = nmos();
  aged.delta_vth = 0.05;
  const MosEval fresh = evaluate_mosfet(nmos(), {0.8, 1.0, 0.0, 0.0}, kT);
  const MosEval old = evaluate_mosfet(aged, {0.8, 1.0, 0.0, 0.0}, kT);
  EXPECT_LT(old.id, fresh.id);
}

TEST(Mosfet, DeltaVthShiftsPmosCurrentDown) {
  MosInstance aged = pmos();
  aged.delta_vth = 0.05;  // magnitude increase
  const MosEval fresh = evaluate_mosfet(pmos(), {0.2, 0.0, 1.0, 1.0}, kT);
  const MosEval old = evaluate_mosfet(aged, {0.2, 0.0, 1.0, 1.0}, kT);
  EXPECT_LT(std::fabs(old.id), std::fabs(fresh.id));
}

TEST(Mosfet, MobilityFallsWithTemperature) {
  const MosEval cold = evaluate_mosfet(nmos(), {1.0, 1.0, 0.0, 0.0}, 273.15);
  const MosEval hot = evaluate_mosfet(nmos(), {1.0, 1.0, 0.0, 0.0}, 398.15);
  EXPECT_GT(cold.id, hot.id);
}

TEST(Mosfet, SubthresholdCurrentRisesWithTemperature) {
  // Below threshold the Vth reduction and slope win over mobility loss.
  const MosParams p = ptm45_nmos();
  const double vg = p.vth0 - 0.15;
  const MosEval cold = evaluate_mosfet(nmos(), {vg, 1.0, 0.0, 0.0}, 273.15);
  const MosEval hot = evaluate_mosfet(nmos(), {vg, 1.0, 0.0, 0.0}, 398.15);
  EXPECT_GT(hot.id, cold.id);
}

TEST(Mosfet, BodyEffectRaisesVth) {
  const MosInstance m = nmos();
  EXPECT_GT(effective_vth(m, 0.5, kT), effective_vth(m, 0.0, kT));
  // Negative vsb is smoothed, not catastrophic.
  EXPECT_LE(effective_vth(m, -0.2, kT), effective_vth(m, 0.0, kT) + 1e-3);
}

TEST(Mosfet, VthFallsWithTemperature) {
  const MosInstance m = nmos();
  EXPECT_LT(effective_vth(m, 0.0, 398.15), effective_vth(m, 0.0, 298.15));
}

TEST(Mosfet, GeometryHelpers) {
  const MosInstance m = nmos(10.0);
  EXPECT_DOUBLE_EQ(m.width(), 450e-9);
  EXPECT_GT(m.gate_cap(), 0.0);
  EXPECT_GT(m.overlap_cap(), 0.0);
  EXPECT_GT(m.junction_cap(), 0.0);
}

// --- analytic derivatives vs central finite differences -------------------

struct BiasPoint {
  double vg, vd, vs, vb;
};

class MosfetDerivativeTest
    : public ::testing::TestWithParam<std::tuple<int, BiasPoint>> {};

TEST_P(MosfetDerivativeTest, MatchesFiniteDifference) {
  const auto [type_index, bias] = GetParam();
  const MosInstance inst = type_index == 0 ? nmos() : pmos();
  const double h = 1e-7;

  auto id_at = [&](double vg, double vd, double vs, double vb) {
    return evaluate_mosfet(inst, {vg, vd, vs, vb}, kT).id;
  };
  const MosEval e = evaluate_mosfet(inst, {bias.vg, bias.vd, bias.vs, bias.vb}, kT);

  const double gm_fd =
      (id_at(bias.vg + h, bias.vd, bias.vs, bias.vb) - id_at(bias.vg - h, bias.vd, bias.vs, bias.vb)) /
      (2 * h);
  const double gds_fd =
      (id_at(bias.vg, bias.vd + h, bias.vs, bias.vb) - id_at(bias.vg, bias.vd - h, bias.vs, bias.vb)) /
      (2 * h);
  const double gms_fd =
      (id_at(bias.vg, bias.vd, bias.vs + h, bias.vb) - id_at(bias.vg, bias.vd, bias.vs - h, bias.vb)) /
      (2 * h);
  const double gmb_fd =
      (id_at(bias.vg, bias.vd, bias.vs, bias.vb + h) - id_at(bias.vg, bias.vd, bias.vs, bias.vb - h)) /
      (2 * h);

  const double scale = std::max(1e-9, std::fabs(e.id));
  EXPECT_NEAR(e.gm, gm_fd, 1e-4 * scale / 0.025 + 1e-12) << "gm";
  EXPECT_NEAR(e.gds, gds_fd, 1e-4 * scale / 0.025 + 1e-12) << "gds";
  EXPECT_NEAR(e.gms, gms_fd, 1e-4 * scale / 0.025 + 1e-12) << "gms";
  EXPECT_NEAR(e.gmb, gmb_fd, 1e-4 * scale / 0.025 + 1e-12) << "gmb";
}

INSTANTIATE_TEST_SUITE_P(
    BiasGrid, MosfetDerivativeTest,
    ::testing::Combine(::testing::Values(0, 1),
                       ::testing::Values(BiasPoint{1.0, 1.0, 0.0, 0.0},   // strong inversion sat
                                         BiasPoint{1.0, 0.05, 0.0, 0.0},  // linear region
                                         BiasPoint{0.5, 0.8, 0.0, 0.0},   // moderate inversion
                                         BiasPoint{0.3, 1.0, 0.0, 0.0},   // subthreshold
                                         BiasPoint{0.9, 0.5, 0.2, 0.0},   // lifted source
                                         BiasPoint{0.8, 0.2, 0.6, 0.0},   // reverse (vd < vs)
                                         BiasPoint{1.0, 0.7, 0.1, -0.1},  // body bias
                                         BiasPoint{0.6, 0.6, 0.6, 0.0})));  // flat

// --- precomputed temperature constants ------------------------------------

TEST(MosThermal, HoldsTheCardFunctionsAtTemperature) {
  for (const MosParams& card : {ptm45_nmos(), ptm45_pmos()}) {
    const MosThermal th = mos_thermal(card, 358.15);
    EXPECT_EQ(th.vth, vth_at(card, 358.15));
    EXPECT_EQ(th.mu, mobility_at(card, 358.15));
    EXPECT_EQ(th.sqrt_phi, std::sqrt(card.phi));
    EXPECT_EQ(th.two_n_vt, 2.0 * card.n_sub * util::thermal_voltage(358.15));
  }
}

// The circuit simulator evaluates through the precomputed overload; every
// other caller passes a temperature.  Both must give the same bits.
class MosThermalBitIdentityTest : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(MosThermalBitIdentityTest, MatchesTemperatureOverload) {
  const auto [type_index, temperature_k] = GetParam();
  MosInstance inst = type_index == 0 ? nmos(3.0) : pmos(7.0);
  inst.delta_vth = 0.013;
  const MosThermal th = mos_thermal(inst.card, temperature_k);
  const MosTerminals biases[] = {
      {1.0, 1.0, 0.0, 0.0},    // saturation, Vds > 0
      {1.0, 0.05, 0.0, 0.0},   // linear
      {0.3, 1.0, 0.0, 0.0},    // subthreshold
      {0.8, 0.2, 0.6, 0.0},    // Vds < 0 (drain/source swap)
      {0.9, 0.1, 0.7, 0.0},    // Vds < 0, stronger
      {1.0, 0.7, 0.1, -0.1},   // body bias, Vsb > 0
      {0.9, 0.6, 0.2, 0.4},    // body bias, Vsb < 0
      {0.0, 0.0, 1.0, 1.0},    // PMOS-style rails
      {0.2, 0.1, 1.0, 1.0},    // PMOS on, Vds < 0
      {0.6, 0.6, 0.6, 0.0},    // flat
  };
  for (const MosTerminals& v : biases) {
    const MosEval a = evaluate_mosfet(inst, v, th);
    const MosEval b = evaluate_mosfet(inst, v, temperature_k);
    EXPECT_EQ(a.id, b.id) << v.vg << " " << v.vd << " " << v.vs << " " << v.vb;
    EXPECT_EQ(a.gm, b.gm);
    EXPECT_EQ(a.gds, b.gds);
    EXPECT_EQ(a.gms, b.gms);
    EXPECT_EQ(a.gmb, b.gmb);
  }
}

INSTANTIATE_TEST_SUITE_P(TypesAndTemperatures, MosThermalBitIdentityTest,
                         ::testing::Combine(::testing::Values(0, 1),
                                            ::testing::Values(233.15, 298.15, 358.15, 398.15)));

TEST(Mosfet, TranslationInvariance) {
  // Shifting every terminal by the same offset leaves the current unchanged.
  const MosEval a = evaluate_mosfet(nmos(), {0.9, 0.8, 0.1, 0.0}, kT);
  const MosEval b = evaluate_mosfet(nmos(), {1.4, 1.3, 0.6, 0.5}, kT);
  EXPECT_NEAR(a.id, b.id, std::fabs(a.id) * 1e-9);
  // And the derivative identity gms = -(gm + gds + gmb) holds.
  EXPECT_NEAR(a.gms, -(a.gm + a.gds + a.gmb), std::fabs(a.gm) * 1e-9 + 1e-15);
}

// The grid every batch test sweeps: each polarity at two widths and three
// threshold shifts, at every combination of terminal voltages from a set
// that gives vd < vs, vsb < 0, vds = 0 and both |u| > 40 limits, plus a NaN
// on each terminal in turn.
struct GridCase {
  MosInstance inst;
  MosTerminals v;
};

std::vector<GridCase> batch_grid() {
  std::vector<MosInstance> devices;
  for (const double wl : {1.0, 17.8}) {
    for (const double dvth : {-0.03, 0.0, 0.05}) {
      MosInstance n = nmos(wl);
      n.delta_vth = dvth;
      MosInstance p = pmos(wl);
      p.delta_vth = dvth;
      devices.push_back(n);
      devices.push_back(p);
    }
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double levels[] = {-6.0, -0.3, 0.0, 0.2, 0.45, 1.0, 1.1, 6.0};
  std::vector<GridCase> grid;
  // Devices vary fastest, so every batch mixes polarities and branches.
  for (const double vg : levels) {
    for (const double vd : levels) {
      for (const double vs : levels) {
        for (const double vb : {-0.3, 0.0, 1.0}) {
          for (const MosInstance& inst : devices) grid.push_back({inst, {vg, vd, vs, vb}});
        }
      }
    }
  }
  for (const MosInstance& inst : devices) {
    grid.push_back({inst, {nan, 1.0, 0.0, 0.0}});
    grid.push_back({inst, {1.0, nan, 0.0, 0.0}});
    grid.push_back({inst, {1.0, 1.0, nan, 0.0}});
    grid.push_back({inst, {1.0, 1.0, 0.0, nan}});
    grid.push_back({inst, {nan, nan, nan, nan}});
  }
  return grid;
}

// Bitwise equality of every output, except that a NaN matches any NaN.
// IEEE arithmetic fixes a NaN's presence but not its sign or payload, and
// the compiler may commute the operands of x + y or x * y, which decides
// the sign of the NaN that survives; so those bits differ between two
// compilations of one expression.  Which outputs are NaN must still match.
bool same_bits(const MosEval& a, const MosEval& b) {
  const double got[] = {a.id, a.gm, a.gds, a.gms, a.gmb};
  const double want[] = {b.id, b.gm, b.gds, b.gms, b.gmb};
  for (std::size_t k = 0; k < std::size(got); ++k) {
    if (std::isnan(got[k]) && std::isnan(want[k])) continue;
    if (std::memcmp(&got[k], &want[k], sizeof(double)) != 0) return false;
  }
  return true;
}

std::string describe(const GridCase& c, const MosEval& got, const MosEval& want) {
  char text[512];
  std::snprintf(text, sizeof text,
                "%s W/L=%g dvth=%g at (%g, %g, %g, %g): got id=%a gm=%a gds=%a gms=%a gmb=%a, "
                "want id=%a gm=%a gds=%a gms=%a gmb=%a",
                c.inst.type == MosType::kNmos ? "NMOS" : "PMOS", c.inst.w_over_l,
                c.inst.delta_vth, c.v.vg, c.v.vd, c.v.vs, c.v.vb, got.id, got.gm, got.gds,
                got.gms, got.gmb, want.id, want.gm, want.gds, want.gms, want.gmb);
  return text;
}

TEST(MosfetBatch, GridCoversEveryBranch) {
  // The grid must actually reach the cases it is for.
  const std::vector<GridCase> grid = batch_grid();
  bool swapped = false, negative_vsb = false, zero_vds = false, above = false, below = false;
  bool nan_out = false;
  for (const GridCase& c : grid) {
    const double s = c.inst.type == MosType::kNmos ? 1.0 : -1.0;
    const double vd = s * c.v.vd, vs = s * c.v.vs, vb = s * c.v.vb, vg = s * c.v.vg;
    swapped |= vd < vs;
    negative_vsb |= std::min(vd, vs) - vb < 0.0;
    zero_vds |= vd == vs;
    const MosThermal th = mos_thermal(c.inst.card, kT);
    const double u = (vg - std::min(vd, vs) - th.vth) / th.two_n_vt;
    above |= u > 40.0;
    below |= u < -40.0;
    nan_out |= std::isnan(oracle::evaluate(c.inst, c.v, th).id);
  }
  EXPECT_TRUE(swapped && negative_vsb && zero_vds && above && below && nan_out);
}

TEST(MosfetBatch, MatchesScalarKernelBitForBit) {
  // Batch sizes below, at and across the kernel's 16-device chunks.
  const std::vector<GridCase> grid = batch_grid();
  for (const double temperature_k : {kT, 398.15}) {
    std::vector<MosEval> want;
    for (const GridCase& c : grid) {
      want.push_back(oracle::evaluate(c.inst, c.v, mos_thermal(c.inst.card, temperature_k)));
    }
    for (const std::size_t size : {1, 3, 12, 14, 16, 17, 40}) {
      std::size_t mismatches = 0;
      for (std::size_t begin = 0; begin < grid.size(); begin += size) {
        const std::size_t n = std::min(size, grid.size() - begin);
        std::vector<MosConstants> devices;
        std::vector<MosTerminals> terminals;
        for (std::size_t k = begin; k < begin + n; ++k) {
          const MosInstance& inst = grid[k].inst;
          devices.push_back(pack_mosfet(inst, mos_thermal(inst.card, temperature_k)));
          terminals.push_back(grid[k].v);
        }
        std::vector<MosEval> out(n);
        evaluate_mosfets(devices, terminals, out);
        for (std::size_t i = 0; i < n; ++i) {
          if (same_bits(out[i], want[begin + i])) continue;
          if (++mismatches <= 5) {
            ADD_FAILURE() << "batch of " << size << ", T=" << temperature_k << ": "
                          << describe(grid[begin + i], out[i], want[begin + i]);
          }
        }
      }
      EXPECT_EQ(mismatches, 0u) << "batch of " << size << ", T=" << temperature_k;
    }
  }
}

TEST(MosfetBatch, OneDeviceOverloadsMatchScalarKernel) {
  for (const GridCase& c : batch_grid()) {
    const MosEval want = oracle::evaluate(c.inst, c.v, mos_thermal(c.inst.card, kT));
    const MosEval by_thermal = evaluate_mosfet(c.inst, c.v, mos_thermal(c.inst.card, kT));
    const MosEval by_temperature = evaluate_mosfet(c.inst, c.v, kT);
    ASSERT_TRUE(same_bits(by_thermal, want)) << describe(c, by_thermal, want);
    ASSERT_TRUE(same_bits(by_temperature, want)) << describe(c, by_temperature, want);
  }
}

TEST(MosfetBatch, RejectsMismatchedSpans) {
  const std::vector<MosConstants> devices(3, pack_mosfet(nmos(), mos_thermal(ptm45_nmos(), kT)));
  std::vector<MosTerminals> terminals(3);
  std::vector<MosEval> out(2);
  EXPECT_THROW(evaluate_mosfets(devices, terminals, out), std::invalid_argument);
  out.resize(3);
  terminals.resize(4);
  EXPECT_THROW(evaluate_mosfets(devices, terminals, out), std::invalid_argument);
}

}  // namespace
}  // namespace issa::device
