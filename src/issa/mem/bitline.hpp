// Bitline discharge model: how long must the wordline stay up before the
// bitline differential reaches the SA's required offset spec (plus margin)?
#pragma once

#include <cstddef>

#include "issa/mem/sram_cell.hpp"

namespace issa::mem {

struct BitlineParams {
  std::size_t rows = 256;          ///< cells sharing the bitline
  double wire_cap = 8e-15;         ///< bitline wire capacitance [F]
  SramCellParams cell;

  /// Total bitline capacitance: wire plus per-cell junction loading.
  double total_cap() const {
    return wire_cap + static_cast<double>(rows) * cell.bitline_cap_per_cell;
  }
};

class Bitline {
 public:
  explicit Bitline(BitlineParams params = {});

  /// Time for the accessed cell to develop `delta_v` of differential on the
  /// bitline [s]: C_bl * delta_v / I_eff(delta_v).
  double discharge_time(double delta_v, double vdd, double temperature_k) const;

  const BitlineParams& params() const noexcept { return params_; }
  const SramCell& cell() const noexcept { return cell_; }

 private:
  BitlineParams params_;
  SramCell cell_;
};

}  // namespace issa::mem
