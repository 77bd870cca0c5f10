// Individual oxide defects and their capture/emission statistics.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "issa/aging/bti_params.hpp"
#include "issa/aging/stress.hpp"
#include "issa/device/mos_params.hpp"
#include "issa/util/rng.hpp"

namespace issa::aging {

/// One gate-oxide defect.
struct Trap {
  double tau_c_ref = 1.0;   ///< capture time constant at (temp_ref, vdd_ref) [s]
  double tau_e_ref = 1.0;   ///< emission time constant at temp_ref [s]
  double delta_vth = 0.0;   ///< |Vth| increase when occupied [V]
};

/// The trap population of one transistor in one Monte-Carlo sample.
struct TrapSet {
  std::vector<Trap> traps;
};

/// The trap population law of one device, and the one routine that draws
/// from it: sample_trap_set and sample_bti_shift both read a device's stream
/// through draw_count() and draw_uniforms(), so the two see the same traps.
/// The count is Poisson in the gate area (times the PMOS density factor for
/// PMOS); per-trap impacts are exponential with mean eta_factor * q /
/// (Cox W L); tau_c follows the power-law density and tau_e = tau_c times a
/// log-uniform ratio.
class TrapDistribution {
 public:
  /// One trap's three uniforms, in stream order.
  struct Uniforms {
    double tau_c = 0.0;   ///< inverse-CDF input of tau_c_ref
    double ratio = 0.0;   ///< inverse-CDF input of tau_e_ref / tau_c_ref
    double impact = 0.0;  ///< inverse-CDF input of delta_vth
  };

  TrapDistribution(const BtiParams& params, const device::MosInstance& inst);

  double mean_count() const noexcept { return mean_count_; }
  double eta_mean() const noexcept { return eta_mean_; }

  /// The trap count: the stream's first draws.
  unsigned draw_count(util::Xoshiro256& rng) const { return rng.poisson(mean_count_); }
  /// The next trap's uniforms.
  static Uniforms draw_uniforms(util::Xoshiro256& rng) {
    Uniforms u;
    u.tau_c = rng.uniform();
    u.ratio = rng.uniform();
    u.impact = rng.uniform();
    return u;
  }

  /// Power-law inverse CDF: pdf ~ tau^(alpha - 1) on [tau_min, tau_max]
  /// <=> tau = (lo^a + u (hi^a - lo^a))^(1/a), increasing in u when
  /// tau_max > tau_min.
  double tau_c_ref(double u) const { return std::pow(lo_a_ + u * (hi_a_ - lo_a_), inv_a_); }
  double tau_e_ref(double tau_c_ref, double u) const {
    return tau_c_ref * std::exp(log_ratio_lo_ + (log_ratio_hi_ - log_ratio_lo_) * u);
  }
  double impact(double u) const { return util::Xoshiro256::exponential_of(u, eta_mean_); }

 private:
  double mean_count_ = 0.0;
  double eta_mean_ = 0.0;
  double lo_a_ = 0.0;
  double hi_a_ = 0.0;
  double inv_a_ = 0.0;
  double log_ratio_lo_ = 0.0;
  double log_ratio_hi_ = 0.0;
};

/// Samples a trap set for a device (see TrapDistribution).
TrapSet sample_trap_set(const BtiParams& params, const device::MosInstance& inst,
                        std::uint64_t seed);

/// Arrhenius factor: tau(T) = tau_ref * arrhenius(Ea, T, Tref); < 1 when the
/// process speeds up at higher T.
double arrhenius_factor(double ea_ev, double temperature_k, double temp_ref_k) noexcept;

/// The occupancy of any trap of one device under one stress profile at one
/// temperature.  What does not depend on the trap (both Arrhenius factors,
/// the field factor of each stressed phase and the relaxed fraction of the
/// period) is computed once at construction, so a trap costs only its own
/// arithmetic.
class OccupancyKernel {
 public:
  OccupancyKernel(const BtiParams& params, const StressProfile& profile, double temperature_k);

  /// Occupancy probability after `time` seconds of the periodic workload,
  /// starting from an empty trap:
  ///   P(t) = lc / (lc + le) * (1 - exp(-(lc + le) t)),
  /// with the mean capture rate lc summed over the stressed phases and the
  /// mean emission rate le active in the relaxed ones.  For DC stress this
  /// reduces exactly to the paper's Eq. (1); for DC relaxation of an
  /// initially-occupied trap Eq. (2) is the complement.
  double occupancy(const Trap& trap, double time_s) const noexcept;

  /// Sum over the stressed phases of fraction / (capture Arrhenius factor x
  /// field factor): a trap's mean capture rate lc is this over its
  /// tau_c_ref, up to rounding.
  double capture_scale() const noexcept { return capture_scale_; }

 private:
  struct StressedPhase {
    double fraction = 0.0;      ///< share of the period
    double field_factor = 0.0;  ///< capture acceleration by the phase's stress voltage
  };

  double capture_temp_factor_ = 0.0;
  double emission_temp_factor_ = 0.0;
  double relax_fraction_ = 0.0;
  double capture_scale_ = 0.0;
  std::vector<StressedPhase> stressed_;
};

}  // namespace issa::aging
