#include "issa/aging/trap.hpp"

#include <cmath>

#include "issa/util/units.hpp"

namespace issa::aging {

TrapDistribution::TrapDistribution(const BtiParams& params, const device::MosInstance& inst) {
  const double area = inst.width() * inst.card.length;
  mean_count_ = params.trap_areal_density * area;
  if (inst.type == device::MosType::kPmos) mean_count_ *= params.pmos_density_factor;
  eta_mean_ = params.eta_factor * util::kElementaryCharge / (inst.card.cox * area);
  const double a = params.tau_alpha;
  lo_a_ = std::pow(params.tau_c_min, a);
  hi_a_ = std::pow(params.tau_c_max, a);
  inv_a_ = 1.0 / a;
  log_ratio_lo_ = std::log(params.tau_e_ratio_min);
  log_ratio_hi_ = std::log(params.tau_e_ratio_max);
}

TrapSet sample_trap_set(const BtiParams& params, const device::MosInstance& inst,
                        std::uint64_t seed) {
  const TrapDistribution dist(params, inst);
  util::Xoshiro256 rng(seed);
  TrapSet set;
  const unsigned count = dist.draw_count(rng);
  set.traps.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    const TrapDistribution::Uniforms u = TrapDistribution::draw_uniforms(rng);
    Trap t;
    t.tau_c_ref = dist.tau_c_ref(u.tau_c);
    t.tau_e_ref = dist.tau_e_ref(t.tau_c_ref, u.ratio);
    t.delta_vth = dist.impact(u.impact);
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
    capture_scale_ += phase.fraction / (capture_temp_factor_ * stressed_.back().field_factor);
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
