// Nonlinear circuit simulation: DC operating point and transient analysis.
//
// Formulation: Modified Nodal Analysis over a topology compiled once, in the
// constructor.  A voltage source whose negative terminal is ground pins its
// positive node: that node's voltage is known, source_scale * wave.value(t),
// and takes no unknown, no branch current and no KVL row.  The unknowns are
// the remaining (unpinned) non-ground node voltages, followed by one branch
// current per floating voltage source -- every source not of the pinning
// form, including grounded sources written `V 0 n`.  Each Newton iteration
// assembles the residual F(x) (KCL per unpinned node, KVL per floating
// source) and its Jacobian, then solves J dx = -F with dense LU.  On the
// sense-amplifier testbenches this leaves 6 unknowns instead of 16 (NSSA) or
// 20 (ISSA).
//
// Each pass of the Newton loop does the first of three things.  (1) The
// residual's largest entry is below the floor max(1e-9 A, 2 gmin): the
// current point is returned.  (2) The update, clamped to 0.3 V per node,
// moves every free node by less than 0.1 mV: x + dx is returned without
// being assembled.  Its residual is about c |dx|^2, where c grows with the
// beta (mu Cox W/L) of the devices on a node; it was measured at most 0.13
// of the floor on the sense amplifiers and 0.31 on an inverter with
// W/L = 640/1280 (DESIGN.md §16).  (3) Otherwise a backtracking line search
// on the residual norm picks the step, and the next pass tests the new point.
// Each update costs one LU factorisation; each assembly, the first one
// included, one pass over the MOSFETs.  A singular Jacobian, a run of failed
// line searches or 120 iterations fail the solve, and the caller falls back
// (gmin or source stepping at DC, step halving in a transient).
//
// What may change between runs: source waves and each MOSFET's delta_vth,
// both read live from the netlist.  What is fixed at construction: the
// topology (which nodes every device touches, which sources pin a node) and
// the MOSFET cards, whose temperature constants (device::MosThermal) are
// computed once per device.
//
// Transient integration replaces each capacitor with its companion model
// (backward Euler or trapezoidal); the nonlinear solve at each timestep is
// the same Newton loop, started from a predictor: the linear extrapolation
// x_n + (h / h_prev) (x_n - x_{n-1}) of the last two accepted steps (the
// previous state alone on the first step).  Integration starts at the first
// source corner, since the circuit rests at its DC point until then.  Failed
// steps are retried with a halved timestep a bounded number of times.
//
// On request a transient also carries the forward sensitivity of every node
// voltage to the value of named nodes that a source holds against ground
// (the direct method of transient sensitivity analysis, DESIGN.md §16).  The
// DC point seeds it from the DC Jacobian; after each accepted step it solves
// J s = -dF/dp once per parameter with the LU factors that step's Newton
// solve left behind (factoring the last assembly when that one was not
// factored), where dF/dp is the MOSFETs' partials on a pinned node, kept
// from the last assembly, or the driving source's KVL row, plus the
// capacitor companions' history.  When the last update was final
// without an assembly (case 2 above), the factors and partials are those of
// the iterate before it, so the sensitivity is that of a point less than
// 0.1 mV away.  It costs no device pass and leaves every waveform
// bit-identical; on a linear circuit it is exact to rounding.
//
// Every per-iteration buffer (Jacobian, residuals, trial vectors, the LU
// factorization and its scratch) lives on the Simulator and is reused across
// iterations, steps, and runs: a transient performs zero heap allocations in
// its Newton loop, which is what makes the measurement fast path (sa/measure)
// cheap enough for paper-scale Monte-Carlo sweeps.
#pragma once

#include <functional>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "issa/circuit/netlist.hpp"
#include "issa/circuit/waveform.hpp"
#include "issa/device/mosfet.hpp"
#include "issa/linalg/lu.hpp"
#include "issa/linalg/matrix.hpp"

namespace issa::circuit {

/// Thrown when Newton iteration fails to converge after all fallbacks.
class ConvergenceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class IntegrationMethod { kBackwardEuler, kTrapezoidal };

struct DcOptions {
  /// Optional starting point: full node-voltage vector (index = NodeId).
  /// A good guess (e.g. the known precharge state of a testbench) avoids
  /// the homotopy fallbacks entirely.
  std::vector<double> initial_guess;
};

struct TransientOptions {
  double tstop = 0.0;  ///< simulation end time [s]
  double dt = 0.0;     ///< base timestep [s]
  IntegrationMethod method = IntegrationMethod::kTrapezoidal;
  /// Passed through to the t = 0 DC solve as its starting point.
  std::vector<double> dc_guess;

  /// When non-empty, the TransientResult records only these nodes instead of
  /// every node at every step (the measurement fast path probes just the
  /// nodes it reads).  Node dynamics are unaffected — this is purely a
  /// recording filter.
  std::vector<NodeId> probes;
  /// Early-exit observer, called after every accepted step with the step time
  /// and the FULL node-voltage vector (index = NodeId); the lead-in that
  /// run_transient skips is not a step.  Returning true stops the transient;
  /// the triggering sample is the last one recorded.  The integration up to
  /// that point is identical to an uninterrupted run.
  std::function<bool(double t, const std::vector<double>& v)> stop_condition;
  /// Nodes a voltage source holds against ground (`V n 0` or `V 0 n`).  For
  /// each, the run carries d v / d V(node): the sensitivity of every node
  /// voltage to a constant shift of that node's drive (see the file
  /// comment).  The result holds it at the last recorded sample.  Any other
  /// node is rejected with std::invalid_argument.
  std::vector<NodeId> sensitivity_to;
};

/// Sampled node voltages over a transient run.  With a probe list, only the
/// probed nodes carry waveforms; querying any other node throws
/// std::out_of_range.
class TransientResult {
 public:
  explicit TransientResult(std::size_t node_count, std::vector<NodeId> probes = {});

  void append(double t, const std::vector<double>& node_voltages);

  /// True when `node`'s waveform was recorded (always true without probes).
  bool records(NodeId node) const noexcept;

  const std::vector<double>& time() const noexcept { return time_; }
  const std::vector<double>& node_wave(NodeId node) const;

  /// Voltage of `node` at time t (linear interpolation).
  double at(NodeId node, double t) const;

  /// First crossing of `level` on `node` in the given direction after `after`.
  /// A waveform departing from exactly `level` counts as crossing at the
  /// departure sample (a node that starts at precisely the level, as an
  /// equalized precharge node can, must still register).
  std::optional<double> crossing_time(NodeId node, double level, bool rising,
                                      double after = 0.0) const;

  /// Copies one node into a standalone Waveform.
  Waveform waveform(NodeId node) const;

  std::size_t steps() const noexcept { return time_.size(); }

  /// d v / d V(sensitivity_to[k]) at the last recorded sample, one entry per
  /// node (index = NodeId).  Throws std::out_of_range for k past the
  /// requested parameters.
  const std::vector<double>& sensitivity(std::size_t k) const { return sensitivity_.at(k); }

 private:
  friend class Simulator;

  std::vector<NodeId> recorded_;   // the nodes waves_ holds, in order
  std::vector<long> wave_index_;   // [node] -> index into waves_, -1 if absent
  std::vector<double> time_;
  std::vector<std::vector<double>> waves_;  // [recorded node][sample]
  std::vector<std::vector<double>> sensitivity_;  // [parameter][node]
};

namespace detail {

/// Outcome of one backtracking line search.
struct LineSearchOutcome {
  bool improved = false;  ///< a trial met the acceptance test
  double alpha = 1.0;     ///< the ACCEPTED step scale — the last trial's alpha
                          ///< when nothing improved, never the post-loop value
  double fnorm = 0.0;     ///< residual norm at the accepted trial point
};

/// Backtracking line search over alpha = 1, 1/2, ..., 2^-(max_trials-1).
/// `try_alpha(alpha)` must evaluate the trial point x + alpha*dx and return
/// its residual norm; the state left by the LAST call is what the caller
/// accepts, so the outcome's alpha always names the step actually taken.
/// Acceptance: strict relative decrease (a slack here would let period-2
/// orbits alternate forever), or an absolute landing below the floor.
template <typename TryAlpha>
LineSearchOutcome backtracking_line_search(int max_trials, double fnorm0, double abstol,
                                           TryAlpha&& try_alpha) {
  LineSearchOutcome out;
  double alpha = 1.0;
  for (int trial = 0; trial < max_trials; ++trial, alpha *= 0.5) {
    const double fnorm_try = try_alpha(alpha);
    out.alpha = alpha;
    out.fnorm = fnorm_try;
    if (fnorm_try <= fnorm0 * (1.0 - 0.1 * alpha) || fnorm_try < 0.5 * abstol) {
      out.improved = true;
      break;
    }
  }
  return out;
}

}  // namespace detail

class Simulator {
 public:
  /// The netlist must outlive the simulator, and its topology and MOSFET
  /// cards must not change after construction (source waves and delta_vth
  /// may; see the file comment).  `temperature_k` applies to all MOSFET
  /// evaluations.  A Simulator may be reused across runs: each run_transient
  /// re-derives every piece of run state from its own DC solve, so a reused
  /// instance reproduces a fresh one bit for bit.
  Simulator(const Netlist& netlist, double temperature_k);

  /// DC operating point with sources evaluated at t = 0.  Returns the full
  /// node-voltage vector (index = NodeId, entry 0 = ground = 0 V).  When
  /// plain Newton fails it falls back to a gmin homotopy, then to source
  /// stepping; throws ConvergenceError when all three fail.
  std::vector<double> solve_dc(const DcOptions& options = {});

  /// Transient analysis starting from the DC operating point.  The DC point
  /// is recorded at 0 and again at t0, the earliest corner of any source, and
  /// integration starts at t0 (when 0 < t0 < tstop): every source holds its
  /// first value until its first corner, so the circuit rests at DC until t0.
  TransientResult run_transient(const TransientOptions& options);

  /// The node-voltage vector of the most recent DC solve (empty before the
  /// first).
  const std::vector<double>& last_dc_solution() const noexcept { return last_dc_; }

  double temperature() const noexcept { return temperature_k_; }

 private:
  struct CapacitorState {
    double geq = 0.0;      // companion conductance for the current step
    double ieq = 0.0;      // companion current for the current step
    double voltage = 0.0;  // accepted v(a) - v(b)
    double current = 0.0;  // accepted branch current (trapezoidal history)
  };

  // Assembles F(x) and J(x) at time `t`.  `transient` selects whether the
  // capacitor companions participate (DC leaves capacitors open).
  void assemble(const std::vector<double>& x, double t, bool transient, double gmin,
                double source_scale, linalg::Matrix& jacobian, std::vector<double>& residual);

  // Newton loop on the current assembly configuration; updates x in place.
  // Returns true on convergence.
  bool newton_solve(std::vector<double>& x, double t, bool transient, double gmin,
                    double source_scale);

  // Trace forensics: emits a diagnostic bundle (kind + reason, the residual/
  // alpha histories of the last Newton solve, the node voltages implied by
  // x) when trace::enabled().  Called only on TERMINAL failures —
  // recovered fallbacks (gmin homotopy stages, transient step halvings) are
  // normal control flow and would drown the bounded forensic list.
  void record_solver_forensic(const char* kind, const char* reason,
                              const std::vector<double>& x, double t, double h_or_gmin);

  // Forward sensitivity of the circuit to the value of one source-driven
  // node.
  struct Sensitivity {
    NodeId node_id = kGround;  // the driven node
    bool pinned = false;       // its source pins it (else: drives its branch)
    std::vector<std::size_t> mosfets;    // pinned: devices with a terminal on it
    std::vector<std::size_t> resistors;  // pinned: resistors on it
    std::vector<std::pair<std::size_t, double>> kvl;  // (KVL row, -dF/dp there)
    std::vector<double> x;      // d unknowns / d V(node_id)
    std::vector<double> q;      // d capacitor charge, per row: cap_matrix_ x
    std::vector<double> cap_i;  // d capacitor current, per row
  };

  // The sensitivity to `node`'s value, zeroed; throws std::invalid_argument
  // when no source holds `node` against ground.
  Sensitivity make_sensitivity(NodeId node) const;
  // Brings every sensitivity to the point newton_solve just returned, a
  // step of size h (see the file comment).  `transient` false is the DC
  // seed: capacitors open, their current history zero.
  void advance_sensitivities(bool transient, IntegrationMethod method, double h);

  // Prepares each capacitor's companion (geq/ieq) for a step of size h.
  void prepare_companions(double h, IntegrationMethod method);
  // Accepts the step: refreshes stored capacitor voltage/current from the
  // step's full node voltages.
  void accept_step(const std::vector<double>& node_v);

  // Writes the full node-voltage vector implied by x into `v` (resized
  // once, then reused): unknowns from x, pinned nodes from their sources at
  // time t scaled by source_scale, ground 0.
  void fill_node_voltages(const std::vector<double>& x, double t, double source_scale,
                          std::vector<double>& v) const;
  // The inverse for the unknown nodes: copies their voltages from a full
  // node-voltage vector into x (other entries of x are left alone).
  void gather_unknowns(const std::vector<double>& v, std::vector<double>& x) const;

  std::size_t unknown_count() const noexcept {
    return free_node_count_ + branch_sources_.size();
  }

  const Netlist& netlist_;
  double temperature_k_;
  std::size_t node_count_;
  std::vector<CapacitorState> cap_state_;

  // Compiled topology (see file comment), built by the constructor.
  std::vector<long> row_;  // [node] -> its unknown's index; -1 for ground and pinned nodes
  std::size_t free_node_count_ = 0;          // unknowns 0 .. free_node_count_-1
  std::vector<std::pair<NodeId, std::size_t>> pins_;  // (pinned node, vsource index)
  std::vector<std::size_t> branch_sources_;  // vsource indices with a branch current
  std::vector<device::MosThermal> mos_thermal_;  // [mosfet] -> card constants at T
  linalg::Matrix cap_matrix_;  // capacitance over the unknowns (sensitivities)

  // Reusable solver workspace (see file comment): sized once in the
  // constructor, written every Newton iteration, never reallocated.
  linalg::Matrix jacobian_ws_;
  std::vector<double> residual_ws_;
  std::vector<double> residual_try_ws_;
  std::vector<double> x_try_ws_;
  std::vector<double> dx_ws_;
  linalg::LuFactorization lu_ws_;     // factors jacobian_ws_ in place
  bool jacobian_factored_ = false;    // jacobian_ws_ holds lu_ws_'s factors
  std::vector<device::MosEval> mos_eval_ws_;  // [mosfet] at the last assembly,
                                              // kept only for sensitivities
  std::vector<Sensitivity> sens_;     // the running transient's sensitivities
  std::vector<double> sens_rhs_ws_;
  std::vector<double> step_x_try_ws_; // transient per-step trial unknowns
  std::vector<double> step_x_prev_ws_; // unknowns of the step before the last
  std::vector<double> node_v_ws_;     // full node voltages per accepted step
  std::vector<double> assemble_v_ws_; // full node voltages of assemble()'s x
  std::vector<double> last_dc_;       // most recent DC solution

  // Forensic history workspace: filled by newton_solve only while
  // trace::enabled(), read by record_solver_forensic.  Reused
  // across solves (no allocation once warm), untouched when tracing is off.
  std::vector<double> fnorm_hist_ws_;
  std::vector<double> alpha_hist_ws_;
  std::vector<double> forensic_v_ws_;
};

}  // namespace issa::circuit
