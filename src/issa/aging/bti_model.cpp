#include "issa/aging/bti_model.hpp"

#include <cmath>

#include "issa/util/rng.hpp"
#include "issa/util/units.hpp"
#include "issa/variation/mismatch.hpp"

namespace issa::aging {

double sample_bti_shift(const BtiParams& params, const device::MosInstance& inst,
                        const StressProfile& profile, double time_s, double temperature_k,
                        std::uint64_t seed) {
  if (time_s <= 0.0) return 0.0;
  const TrapSet set = sample_trap_set(params, inst, seed);
  const OccupancyKernel kernel(params, profile, temperature_k);
  util::Xoshiro256 occupancy_rng(util::derive_seed(seed, 0x0CCC));
  double shift = 0.0;
  for (const auto& trap : set.traps) {
    const double p = kernel.occupancy(trap, time_s);
    if (occupancy_rng.bernoulli(p)) shift += trap.delta_vth;
  }
  return shift;
}

namespace {

// Quadrature over the trap parameter space: tau_c power law x tau_e ratio
// log-uniform.  Returns the expectations of P and P^2 for a random trap.
struct OccupancyMoments {
  double mean_p = 0.0;
  double mean_p2 = 0.0;
};

OccupancyMoments occupancy_moments(const BtiParams& params, const StressProfile& profile,
                                   double time_s, double temperature_k) {
  constexpr int kTauCells = 96;
  constexpr int kRatioCells = 24;
  const double a = params.tau_alpha;
  const double lo_a = std::pow(params.tau_c_min, a);
  const double hi_a = std::pow(params.tau_c_max, a);
  const double log_ratio_lo = std::log(params.tau_e_ratio_min);
  const double log_ratio_hi = std::log(params.tau_e_ratio_max);
  const OccupancyKernel kernel(params, profile, temperature_k);

  OccupancyMoments m;
  for (int i = 0; i < kTauCells; ++i) {
    // Midpoint in the CDF of the power-law tau distribution.
    const double u = (i + 0.5) / kTauCells;
    Trap trap;
    trap.tau_c_ref = std::pow(lo_a + u * (hi_a - lo_a), 1.0 / a);
    for (int j = 0; j < kRatioCells; ++j) {
      const double w = (j + 0.5) / kRatioCells;
      trap.tau_e_ref = trap.tau_c_ref * std::exp(log_ratio_lo + w * (log_ratio_hi - log_ratio_lo));
      const double p = kernel.occupancy(trap, time_s);
      m.mean_p += p;
      m.mean_p2 += p * p;
    }
  }
  const double cells = static_cast<double>(kTauCells) * kRatioCells;
  m.mean_p /= cells;
  m.mean_p2 /= cells;
  return m;
}

double mean_trap_count(const BtiParams& params, const device::MosInstance& inst) {
  const double area = inst.width() * inst.card.length;
  double n = params.trap_areal_density * area;
  if (inst.type == device::MosType::kPmos) n *= params.pmos_density_factor;
  return n;
}

double eta_mean_of(const BtiParams& params, const device::MosInstance& inst) {
  const double area = inst.width() * inst.card.length;
  return params.eta_factor * util::kElementaryCharge / (inst.card.cox * area);
}

}  // namespace

double expected_bti_shift(const BtiParams& params, const device::MosInstance& inst,
                          const StressProfile& profile, double time_s, double temperature_k) {
  if (time_s <= 0.0) return 0.0;
  const OccupancyMoments m = occupancy_moments(params, profile, time_s, temperature_k);
  return mean_trap_count(params, inst) * eta_mean_of(params, inst) * m.mean_p;
}

double bti_shift_stddev(const BtiParams& params, const device::MosInstance& inst,
                        const StressProfile& profile, double time_s, double temperature_k) {
  if (time_s <= 0.0) return 0.0;
  const OccupancyMoments m = occupancy_moments(params, profile, time_s, temperature_k);
  const double n = mean_trap_count(params, inst);
  const double eta = eta_mean_of(params, inst);
  // Compound Poisson: each of N ~ Poisson(n) traps contributes B_i * E_i with
  // B ~ Bernoulli(P(tau)), E ~ Exp(eta).  Var = n * E[(B E)^2] = n * 2 eta^2 E[P]
  // (B^2 = B; E[E^2] = 2 eta^2), with P random over the trap distribution.
  const double second_moment = 2.0 * eta * eta * m.mean_p;
  return std::sqrt(n * second_moment);
}

void apply_bti_aging(circuit::Netlist& netlist, const BtiParams& params,
                     const DeviceStressMap& stress_map, double time_s, double temperature_k,
                     std::uint64_t master_seed, std::uint64_t sample_index) {
  if (time_s <= 0.0) return;
  const std::size_t count = netlist.mosfets().size();
  for (std::size_t i = 0; i < count; ++i) {
    auto& m = netlist.mosfet(i);
    const auto it = stress_map.find(m.name);
    if (it == stress_map.end()) continue;
    const std::uint64_t seed = util::derive_seed(
        master_seed ^ 0xB71AB71AB71AB71AULL, sample_index,
        variation::device_stream_id(m.name));
    m.inst.delta_vth +=
        sample_bti_shift(params, m.inst, it->second, time_s, temperature_k, seed);
  }
}

}  // namespace issa::aging
