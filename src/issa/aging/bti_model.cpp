#include "issa/aging/bti_model.hpp"

#include <array>
#include <cmath>

#include "issa/util/rng.hpp"
#include "issa/util/units.hpp"
#include "issa/variation/mismatch.hpp"

namespace issa::aging {

namespace {

// The screen's tau_c bins: a trap whose tau_c uniform lies in
// [j / kScreenBins, (j + 1) / kScreenBins) has tau_c_ref at or above bin j's
// floor.
constexpr std::size_t kScreenBins = 64;
// Relative margin on both sides of the screen, far above the rounding of pow
// and of the occupancy's sums (a few ulps).
constexpr double kScreenMargin = 1e-6;

// [j] tau_c_ref(j / kScreenBins) (1 - kScreenMargin), below every tau_c_ref
// of bin j since tau_c_ref(u) = (lo^a + u (hi^a - lo^a))^(1/a) increases
// with u.  It depends only on the tau_c law (tau_c_min, tau_c_max,
// tau_alpha), so each thread keeps the table of the last law it saw.
const std::array<double, kScreenBins>& tau_c_floors(const BtiParams& params,
                                                    const TrapDistribution& dist) {
  struct Floors {
    double tau_c_min = 0.0, tau_c_max = 0.0, tau_alpha = 0.0;
    std::array<double, kScreenBins> floor{};
  };
  thread_local Floors cache;
  if (cache.tau_c_min != params.tau_c_min || cache.tau_c_max != params.tau_c_max ||
      cache.tau_alpha != params.tau_alpha) {
    for (std::size_t j = 0; j < kScreenBins; ++j) {
      cache.floor[j] =
          dist.tau_c_ref(static_cast<double>(j) / kScreenBins) * (1.0 - kScreenMargin);
    }
    cache.tau_c_min = params.tau_c_min;
    cache.tau_c_max = params.tau_c_max;
    cache.tau_alpha = params.tau_alpha;
  }
  return cache.floor;
}

}  // namespace

double sample_bti_shift(const BtiParams& params, const device::MosInstance& inst,
                        const StressProfile& profile, double time_s, double temperature_k,
                        std::uint64_t seed) {
  if (time_s <= 0.0) return 0.0;
  const TrapDistribution dist(params, inst);
  const OccupancyKernel kernel(params, profile, temperature_k);
  util::Xoshiro256 rng(seed);
  util::Xoshiro256 occupancy_rng(util::derive_seed(seed, 0x0CCC));
  // The screen: p = p_inf (1 - exp(-x)) <= lc t <= capture_scale t / tau_c,
  // so an occupancy uniform at or above that bound over the bin's tau_c
  // floor cannot fall below p, and the trap is empty without its pow, exps
  // and occupancy.  Every trap still consumes its uniforms from both
  // streams, so the traps after it are drawn as without the screen.
  const std::array<double, kScreenBins>& floors = tau_c_floors(params, dist);
  const double bound = kernel.capture_scale() * time_s * (1.0 + kScreenMargin);
  double shift = 0.0;
  const unsigned count = dist.draw_count(rng);
  for (unsigned i = 0; i < count; ++i) {
    const TrapDistribution::Uniforms u = TrapDistribution::draw_uniforms(rng);
    const double occupied_below = occupancy_rng.uniform();
    const auto bin = static_cast<std::size_t>(u.tau_c * kScreenBins);
    if (occupied_below >= bound / floors[bin]) continue;
    Trap trap;
    trap.tau_c_ref = dist.tau_c_ref(u.tau_c);
    trap.tau_e_ref = dist.tau_e_ref(trap.tau_c_ref, u.ratio);
    if (occupied_below < kernel.occupancy(trap, time_s)) shift += dist.impact(u.impact);
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

OccupancyMoments occupancy_moments(const BtiParams& params, const TrapDistribution& dist,
                                   const StressProfile& profile, double time_s,
                                   double temperature_k) {
  constexpr int kTauCells = 96;
  constexpr int kRatioCells = 24;
  const OccupancyKernel kernel(params, profile, temperature_k);

  OccupancyMoments m;
  for (int i = 0; i < kTauCells; ++i) {
    // Midpoint in the CDF of the power-law tau distribution.
    const double u = (i + 0.5) / kTauCells;
    Trap trap;
    trap.tau_c_ref = dist.tau_c_ref(u);
    for (int j = 0; j < kRatioCells; ++j) {
      trap.tau_e_ref = dist.tau_e_ref(trap.tau_c_ref, (j + 0.5) / kRatioCells);
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

}  // namespace

double expected_bti_shift(const BtiParams& params, const device::MosInstance& inst,
                          const StressProfile& profile, double time_s, double temperature_k) {
  if (time_s <= 0.0) return 0.0;
  const TrapDistribution dist(params, inst);
  const OccupancyMoments m = occupancy_moments(params, dist, profile, time_s, temperature_k);
  return dist.mean_count() * dist.eta_mean() * m.mean_p;
}

double bti_shift_stddev(const BtiParams& params, const device::MosInstance& inst,
                        const StressProfile& profile, double time_s, double temperature_k) {
  if (time_s <= 0.0) return 0.0;
  const TrapDistribution dist(params, inst);
  const OccupancyMoments m = occupancy_moments(params, dist, profile, time_s, temperature_k);
  const double n = dist.mean_count();
  const double eta = dist.eta_mean();
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
