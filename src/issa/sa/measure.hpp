// Figure-of-merit measurements on a sense-amplifier testbench:
//  * offset voltage of one SA instance — binary search on the input
//    differential over full transient simulations (the paper's method);
//  * sensing delay — SAenable reaching 50% Vdd to Out/OutBar reaching 50%.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "issa/circuit/simulator.hpp"
#include "issa/sa/builder.hpp"

namespace issa::sa {

/// Outcome of one sensing operation.
struct SenseRunResult {
  bool read_one = false;              ///< sign of V(S) - V(SBar) at the end
  std::optional<double> delay = {};   ///< sensing delay [s], when the output resolved
  double s_final = 0.0;               ///< V(S) at t_stop
  double sbar_final = 0.0;            ///< V(SBar) at t_stop
};

/// Runs one sensing operation with input differential `vin` (= V(BL) -
/// V(BLBar)) and classifies the result.
SenseRunResult run_sense(SenseAmpCircuit& circuit, double vin);

/// Same, but returns the full transient for waveform export.
circuit::TransientResult run_sense_transient(SenseAmpCircuit& circuit, double vin);

/// The search window is [-0.25 V, +0.25 V].  A robust search stops when its
/// bracket is 50 uV wide.  A fast one mostly stops after its first probe,
/// reading the flip off that probe's split sensitivity; otherwise it stops
/// at 50 uV too, or earlier, as soon as its bracket is linear (both final
/// latch splits within 0.45 Vdd) and at most 2 mV wide.
struct OffsetSearchOptions {
  /// Search profile.  false (the default) is the measurement fast path (see
  /// DESIGN.md "Measurement fast path"): the first probe sits at the
  /// prediction of offset_model() and carries the final split's sensitivity
  /// to both bitlines, and the flip extrapolated from it is reported when
  /// the split is linear and the step to the flip short; failing that, up
  /// to two re-probes at the extrapolated flip, then bisection, which reads
  /// the flip interpolated between the final latch splits at the ends of
  /// its first linear bracket under 2 mV.  A transient without
  /// sensitivities stops once regeneration has resolved.  true is the
  /// paper's method: full-window bisection over full-length transients.
  /// The Monte-Carlo engine retries a failed sample with it.  Every probe of
  /// either profile runs on a fresh Simulator and starts its DC solve from
  /// SenseAmpCircuit::dc_guess().
  bool robust = false;
};

struct OffsetResult {
  /// Offset voltage in the paper's sign convention: the input differential
  /// measured in the *read-0* direction at the decision flip.  Positive
  /// offset means extra bitline swing is needed to read a 0 correctly —
  /// exactly the shift Fig. 4 shows after r0-heavy aging (Mdown/MupBar
  /// stressed).  Numerically this is the negated flip point of vin =
  /// V(BL) - V(BLBar): the flip extrapolated from a probe's split
  /// sensitivity, or the interpolated flip of the final bracket, on the fast
  /// path (the midpoint of a bracket that closed to 50 uV before it was
  /// linear), the midpoint of the final bracket on the robust one.
  double offset = 0.0;
  bool saturated = false;  ///< true when the flip lies outside the window
  int transients = 0;      ///< number of transient simulations performed
};

/// Measures the offset voltage of the SA instance currently described by the
/// circuit's threshold shifts.  The sensing decision is monotone in vin, so
/// bisection brackets the flip point.  The fast path, for every kind, first
/// probes the prediction of offset_model(kind, config), fitting that model
/// on first use.  Throws std::invalid_argument for a swapped circuit, whose
/// decision is inverted: the offset is defined in the unswapped orientation.
OffsetResult measure_offset(SenseAmpCircuit& circuit, const OffsetSearchOptions& options = {});

/// Linear model of the offset of one (kind, config) testbench in the
/// threshold shifts of its MOSFETs, linearised at zero shift:
/// offset ~= offset0 + sum_k sensitivity[k] * delta_vth_k.  It only chooses
/// where the fast path probes first; no measured offset depends on its
/// accuracy beyond the search tolerance.
struct OffsetModel {
  double offset0 = 0.0;             ///< offset of the unshifted testbench [V]
  std::vector<double> sensitivity;  ///< d offset / d delta_vth, per netlist MOSFET

  /// Predicted offset [V] of a testbench built from the same (kind, config).
  double predict(const SenseAmpCircuit& circuit) const;
};

/// Fits the model from the nominal testbench of (kind, config), for any
/// kind: one offset search of the unshifted circuit, then one per MOSFET
/// with its threshold raised by 20 mV, all with fault injection suspended.
/// Each is measure_offset's fast search, started at vin = 0 (a shifted one at
/// the flip of the model's offset0), so it reports an extrapolated or
/// interpolated flip, which moves continuously with the solver's solutions
/// instead of in steps of the search tolerance.
/// Bypasses the memo; measurement code calls offset_model().
OffsetModel fit_offset_model(SenseAmpKind kind, const SenseAmpConfig& config);

/// The model of (kind, config), fitted on first use and memoised for the
/// process.  Thread-safe; the returned model is immutable and lives until
/// exit.
const OffsetModel& offset_model(SenseAmpKind kind, const SenseAmpConfig& config);

/// Cumulative number of fit_offset_model() runs in this process.  Test hook
/// for the compute-once contract of offset_model().
std::uint64_t offset_model_fits() noexcept;

/// Sensing delays for both read directions at a given input magnitude.
struct DelayPair {
  double read_one = 0.0;   ///< delay when reading 1 (vin = +v) [s]
  double read_zero = 0.0;  ///< delay when reading 0 (vin = -v) [s]

  double mean() const { return 0.5 * (read_one + read_zero); }
  double worst() const { return read_one > read_zero ? read_one : read_zero; }
};

/// Measures both delays with |vin| = 200 mV of bitline swing.  A sample whose
/// offset exceeds that swing cannot read one direction; the swing is then
/// doubled (applied to both directions so the sample stays self-consistent).
/// Throws std::runtime_error when the doubled swing fails to resolve too.
/// Each run stops once its delay is in the record.
DelayPair measure_delay(SenseAmpCircuit& circuit);

namespace detail {

/// The flip of vin extrapolated from a probe at `x` with final split `g` =
/// V(S) - V(SBar) and split sensitivities `d_bl`, `d_blbar` to V(BL) and
/// V(BLBar).  vin drives V(BL) = Vdd + min(vin, 0) and V(BLBar) = Vdd -
/// max(vin, 0), so the split's slope in vin is d_bl below vin = 0 and
/// -d_blbar above it: the input path has a kink at 0, and an extrapolation
/// across it continues from the split at 0 with the other side's slope.
/// Empty when either slope is not positive (no latch gain to extrapolate
/// along).  The fast path of measure_offset reads its flip from this.
std::optional<double> extrapolated_flip(double x, double g, double d_bl, double d_blbar);

}  // namespace detail

/// Cheap first-order offset estimate from the accumulated threshold shifts
/// (no transient): dVos ~= (dVth_Mdown - dVth_MdownBar) + k (dVth_MupBar -
/// dVth_Mup), with k the PMOS/NMOS transconductance ratio at the trip point.
/// No measurement uses it: it survives only as the baseline of Ablation 1
/// (bench_ablation_methods) and its two tests.
double estimate_offset_dc(const SenseAmpCircuit& circuit);

}  // namespace issa::sa
