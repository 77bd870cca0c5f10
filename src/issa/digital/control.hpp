// The ISSA control block of Fig. 3: read counter + two NANDs + inverter.
//
// Responsibilities:
//  * decode SAenableA / SAenableB from (SAenableBar, Switch) per Table I
//    (a pure function of the two NANDs and the inverter);
//  * process a stream of read operations, tracking which reads occur with
//    swapped inputs, and report the *internal* read-value balance (this is
//    the mechanism that converts an unbalanced external workload into a
//    balanced internal one);
//  * emit PWL control waveforms for the analog simulator.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "issa/circuit/waveform.hpp"
#include "issa/digital/counter.hpp"

namespace issa::digital {

/// Table-I decode (pure combinational reference):
///   SAenableA = NAND(SAenableBar, NOT Switch)
///   SAenableB = NAND(SAenableBar, Switch)
struct EnablePair {
  bool a = true;
  bool b = true;
};
EnablePair decode_enables(bool saenable_bar, bool switch_signal) noexcept;

/// Statistics of a processed read stream.
struct ReadStreamStats {
  std::uint64_t reads = 0;
  std::uint64_t external_ones = 0;  ///< reads whose bitline value was 1
  std::uint64_t internal_ones = 0;  ///< reads whose value at the internal nodes was 1
  std::uint64_t swapped_reads = 0;  ///< reads performed with inputs switched

  double external_one_fraction() const {
    return reads == 0 ? 0.0 : static_cast<double>(external_ones) / static_cast<double>(reads);
  }
  double internal_one_fraction() const {
    return reads == 0 ? 0.0 : static_cast<double>(internal_ones) / static_cast<double>(reads);
  }
  /// Imbalance of the internal workload in [0, 1]; 0 = perfectly balanced.
  double internal_imbalance() const {
    return reads == 0 ? 0.0 : std::abs(2.0 * internal_one_fraction() - 1.0);
  }
};

class IssaController {
 public:
  /// `counter_bits` = N of the paper's N-bit counter (8 in the case study).
  explicit IssaController(unsigned counter_bits = 8);

  /// Current Switch value (counter MSB).
  bool switch_signal() const noexcept { return counter_.msb(); }

  /// Number of reads between swaps.
  std::uint64_t switch_period() const noexcept { return counter_.switch_period(); }

  /// Processes one read of external value `bit`.  The counter increments,
  /// and the value seen by the SA internal nodes is `bit` XOR swapped.
  /// Returns the internal value.
  bool process_read(bool bit);

  /// Processes a whole stream; resets nothing (stats accumulate).
  void process_stream(const std::vector<bool>& bits);

  const ReadStreamStats& stats() const noexcept { return stats_; }
  void reset();

  /// The output-inversion flag for the current read: when inputs are
  /// swapped the final read value must be inverted (paper Sec. III-A).
  bool output_invert() const noexcept { return switch_signal(); }

  // --- analog interface -----------------------------------------------------
  /// Control waves for one sensing operation: SAenable rises at `t_fire` with
  /// `t_rise` ramp; SAenableA (or B when swapped) follows complementarily.
  /// Returned waves: {saenable, saenable_bar, saenable_a, saenable_b}.
  struct EnableWaves {
    circuit::SourceWave saenable = circuit::SourceWave::dc(0.0);
    circuit::SourceWave saenable_bar = circuit::SourceWave::dc(0.0);
    circuit::SourceWave saenable_a = circuit::SourceWave::dc(0.0);
    circuit::SourceWave saenable_b = circuit::SourceWave::dc(0.0);
  };
  static EnableWaves make_enable_waves(double vdd, double t_fire, double t_rise, bool swapped);

 private:
  ReadCounter counter_;
  ReadStreamStats stats_;
};

}  // namespace issa::digital
