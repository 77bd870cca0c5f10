// Individual oxide defects and their capture/emission statistics.
#pragma once

#include <cstdint>
#include <vector>

#include "issa/aging/bti_params.hpp"
#include "issa/aging/stress.hpp"
#include "issa/device/mos_params.hpp"

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

/// Samples a trap set for a device.  The count is Poisson in the gate area
/// (times the PMOS density factor for PMOS); per-trap impacts are exponential
/// with mean eta_factor * q / (Cox W L); tau_c follows the power-law density.
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

 private:
  struct StressedPhase {
    double fraction = 0.0;      ///< share of the period
    double field_factor = 0.0;  ///< capture acceleration by the phase's stress voltage
  };

  double capture_temp_factor_ = 0.0;
  double emission_temp_factor_ = 0.0;
  double relax_fraction_ = 0.0;
  std::vector<StressedPhase> stressed_;
};

}  // namespace issa::aging
