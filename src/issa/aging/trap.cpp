#include "issa/aging/trap.hpp"

#include <cmath>

#include "issa/util/rng.hpp"
#include "issa/util/units.hpp"

namespace issa::aging {

TrapSet sample_trap_set(const BtiParams& params, const device::MosInstance& inst,
                        std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const double area = inst.width() * inst.card.length;
  double mean_count = params.trap_areal_density * area;
  if (inst.type == device::MosType::kPmos) mean_count *= params.pmos_density_factor;

  const double eta_mean =
      params.eta_factor * util::kElementaryCharge / (inst.card.cox * area);

  TrapSet set;
  const unsigned count = rng.poisson(mean_count);
  set.traps.reserve(count);

  // Power-law inverse-CDF sampling for tau_c: pdf ~ tau^(alpha - 1) on
  // [tau_min, tau_max]  <=>  tau = (lo^a + u (hi^a - lo^a))^(1/a).
  const double a = params.tau_alpha;
  const double lo_a = std::pow(params.tau_c_min, a);
  const double hi_a = std::pow(params.tau_c_max, a);
  // tau_e = tau_c * ratio, the ratio log-uniform on [ratio_min, ratio_max].
  const double log_ratio_lo = std::log(params.tau_e_ratio_min);
  const double log_ratio_hi = std::log(params.tau_e_ratio_max);

  for (unsigned i = 0; i < count; ++i) {
    Trap t;
    const double u = rng.uniform();
    t.tau_c_ref = std::pow(lo_a + u * (hi_a - lo_a), 1.0 / a);
    t.tau_e_ref =
        t.tau_c_ref * std::exp(log_ratio_lo + (log_ratio_hi - log_ratio_lo) * rng.uniform());
    t.delta_vth = rng.exponential(eta_mean);
    set.traps.push_back(t);
  }
  return set;
}

double arrhenius_factor(double ea_ev, double temperature_k, double temp_ref_k) noexcept {
  constexpr double kBoltzmannEv = 8.617333262e-5;  // [eV/K]
  return std::exp(ea_ev / kBoltzmannEv * (1.0 / temperature_k - 1.0 / temp_ref_k));
}

OccupancyKernel::OccupancyKernel(const BtiParams& params, const StressProfile& profile,
                                 double temperature_k)
    : capture_temp_factor_(arrhenius_factor(params.ea_capture, temperature_k, params.temp_ref)),
      emission_temp_factor_(arrhenius_factor(params.ea_emission, temperature_k, params.temp_ref)) {
  for (const auto& phase : profile.phases()) {
    if (phase.vstress <= 0.0) relax_fraction_ += phase.fraction;
    if (phase.vstress <= 0.0 || phase.fraction <= 0.0) continue;
    stressed_.push_back(
        {phase.fraction, std::exp(-params.gamma_field * (phase.vstress - params.vdd_ref))});
  }
}

double OccupancyKernel::occupancy(const Trap& trap, double time_s) const noexcept {
  if (time_s <= 0.0) return 0.0;
  double lc = 0.0;
  for (const StressedPhase& phase : stressed_) {
    const double tau_c = trap.tau_c_ref * capture_temp_factor_ * phase.field_factor;
    lc += phase.fraction / tau_c;
  }
  if (lc <= 0.0) return 0.0;
  const double tau_e = trap.tau_e_ref * emission_temp_factor_;
  const double le = relax_fraction_ / tau_e;
  const double lambda = lc + le;
  const double p_inf = lc / lambda;
  const double x = lambda * time_s;
  // 1 - exp(-x) without cancellation for tiny x.
  const double transient = x < 1e-8 ? x : 1.0 - std::exp(-x);
  return p_inf * transient;
}

}  // namespace issa::aging
