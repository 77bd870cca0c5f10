#include "issa/mem/bitline.hpp"

#include <stdexcept>

namespace issa::mem {

Bitline::Bitline(BitlineParams params) : params_(std::move(params)), cell_(params_.cell) {
  if (params_.rows == 0) throw std::invalid_argument("Bitline: rows must be > 0");
}

double Bitline::discharge_time(double delta_v, double vdd, double temperature_k) const {
  if (!(delta_v > 0.0)) throw std::invalid_argument("discharge_time: delta_v must be > 0");
  if (delta_v >= vdd) throw std::invalid_argument("discharge_time: delta_v must be < vdd");
  const double i_eff = cell_.effective_discharge_current(delta_v, vdd, temperature_k);
  if (!(i_eff > 0.0)) {
    throw std::runtime_error("discharge_time: cell sinks no current at this corner");
  }
  return params_.total_cap() * delta_v / i_eff;
}

}  // namespace issa::mem
