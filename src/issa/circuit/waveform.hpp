// Source waveforms (inputs to the simulator) and the CSV writer for sampled
// ones (a transient's node waveforms live in circuit::TransientResult).
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace issa::circuit {

/// A time-dependent source value: DC or piecewise-linear.
/// PWL points must be strictly increasing in time; the value is held constant
/// before the first and after the last point.
class SourceWave {
 public:
  /// Constant value for all time.
  static SourceWave dc(double value);

  /// Piecewise-linear from (time, value) points.
  static SourceWave pwl(std::vector<std::pair<double, double>> points);

  /// Single 0->1 style step: holds v0 until `delay`, ramps linearly to v1
  /// over `rise`, then holds v1.
  static SourceWave step(double v0, double v1, double delay, double rise);

  double value(double time) const;

  /// Shifts every value by `dv` (used to re-bias a source between runs).
  void offset_by(double dv);

  /// The same wave with every value negated (for a source written the other
  /// way round: `V 0 n` with the negated wave drives n like `V n 0`).
  SourceWave negated() const;

  /// Times where the piecewise-linear slope changes.  The transient engine
  /// aligns timesteps to these breakpoints so a source corner never lands
  /// mid-step (which would degrade trapezoidal integration to first order).
  std::vector<double> corner_times() const;

 private:
  explicit SourceWave(std::vector<std::pair<double, double>> points);
  std::vector<std::pair<double, double>> points_;
};

/// Writes a set of named waveforms sharing a time axis to a CSV file.
void write_waveforms_csv(const std::string& path, const std::vector<double>& time,
                         const std::vector<std::pair<std::string, const std::vector<double>*>>& waves);

}  // namespace issa::circuit
