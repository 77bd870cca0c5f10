#include "issa/aging/stress.hpp"

#include <cmath>
#include <stdexcept>

namespace issa::aging {

StressProfile::StressProfile(std::vector<StressPhase> phases) : phases_(std::move(phases)) {
  for (const auto& p : phases_) {
    if (p.fraction < 0.0 || p.fraction > 1.0) {
      throw std::invalid_argument("StressPhase: fraction outside [0, 1]");
    }
    if (p.vstress < 0.0) throw std::invalid_argument("StressPhase: vstress must be >= 0");
  }
}

StressProfile StressProfile::duty_cycle(double duty, double vstress) {
  if (duty < 0.0 || duty > 1.0) throw std::invalid_argument("duty_cycle: duty outside [0, 1]");
  std::vector<StressPhase> phases;
  if (duty > 0.0) phases.push_back({duty, vstress});
  if (duty < 1.0) phases.push_back({1.0 - duty, 0.0});
  return StressProfile(std::move(phases));
}

StressProfile StressProfile::relaxed() { return duty_cycle(0.0, 0.0); }

double StressProfile::duty() const noexcept {
  double d = 0.0;
  for (const auto& p : phases_) {
    if (p.vstress > 0.0) d += p.fraction;
  }
  return d;
}

void StressProfile::append(const StressProfile& other, double weight) {
  for (const auto& p : other.phases_) {
    phases_.push_back({p.fraction * weight, p.vstress});
  }
}

void StressProfile::validate() const {
  double total = 0.0;
  for (const auto& p : phases_) total += p.fraction;
  if (std::fabs(total - 1.0) > 1e-6) {
    throw std::logic_error("StressProfile: phase fractions sum to " + std::to_string(total) +
                           ", expected 1");
  }
}

}  // namespace issa::aging
