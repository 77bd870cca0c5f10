// Workload-dependent stress description for one transistor.
//
// A transistor's lifetime is modeled as a fast periodic alternation between
// phases; each phase is a fraction of the period during which the gate either
// stresses the device (|Vgs| = vstress, BTI capture active) or lets it relax
// (emission active).  Because the period (a memory cycle, ~ns) is many orders
// of magnitude shorter than the lifetime (1e8 s), only the time-averaged
// capture/emission rates matter — this is the standard AC reduction of the
// paper's Eq. (1)/(2).
#pragma once

#include <vector>

namespace issa::aging {

struct StressPhase {
  double fraction = 0.0;  ///< share of the period spent in this phase [0, 1]
  double vstress = 0.0;   ///< gate stress magnitude during the phase [V]; 0 = relax
};

class StressProfile {
 public:
  StressProfile() = default;
  explicit StressProfile(std::vector<StressPhase> phases);

  /// A profile that stresses the device at `vstress` for `duty` of the time.
  static StressProfile duty_cycle(double duty, double vstress);

  /// Fully relaxed profile (no stress at all).
  static StressProfile relaxed();

  const std::vector<StressPhase>& phases() const noexcept { return phases_; }

  /// Total stressed fraction of the period.
  double duty() const noexcept;

  /// Merges another profile scaled by `weight` into this one (used to
  /// compose per-workload phase lists).
  void append(const StressProfile& other, double weight);

  /// Checks that fractions sum to ~1 (within tolerance); throws otherwise.
  void validate() const;

 private:
  std::vector<StressPhase> phases_;
};

}  // namespace issa::aging
