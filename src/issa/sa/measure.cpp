#include "issa/sa/measure.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <mutex>
#include <stdexcept>

#include "issa/device/mosfet.hpp"
#include "issa/util/faultpoint.hpp"
#include "issa/util/trace.hpp"
#include "issa/workload/device_names.hpp"

namespace issa::sa {

namespace {

// Offset search window [-kSearchWindow, +kSearchWindow] and the bracket width
// at which a search stops [V].
constexpr double kSearchWindow = 0.25;
constexpr double kSearchTolerance = 5e-5;

// Widest linear bracket across which the fast path reads the interpolated
// flip [V].  A wider bracket is no longer linear enough in vin to
// interpolate to within the search tolerance at the hot corners; it narrows
// first (DESIGN.md §12).
constexpr double kInterpolationCap = 2e-3;

// One-probe flip (DESIGN.md §12): a fast-path probe also carries the final
// split's sensitivity to the bitline drive, and the flip extrapolated from it
// is reported when the step to it is within kFlipArea / |split| [V^2].  The
// split saturates as it grows, so the extrapolation overshoots by about
// kappa |split| |step|, with kappa at most 0.6 / V (median 0.27) over the
// corners of Tables II-IV: about 10 uV at most.  A farther flip is probed
// in turn, up to kFlipProbes probes in all, before bisection takes over.
constexpr double kFlipArea = 2e-5;
constexpr int kFlipProbes = 3;

// Threshold shift of each sensitivity probe of the offset-model fit [V].
// The model's prediction error on the aged Table II conditions falls from a
// 5 mV shift to 20 mV and is flat beyond (DESIGN.md §12).
constexpr double kFitShift = 20e-3;

// Bitline swing of a delay measurement [V]: provisioned comfortably above the
// worst aged offsets, like a guardbanded memory would.  An aged sample then
// pays for its offset through a reduced *effective* overdrive (swing minus
// offset), which is exactly the mechanism behind the paper's Fig. 7 delay
// blow-up of the unbalanced NSSA.
constexpr double kDelaySwing = 0.2;

// Largest multiple of kDelaySwing a delay measurement escalates to.  At 3x
// (0.6 V) the latch SAs' DC solve fails to converge, so a wider ladder would
// end in a solver error instead of this file's own diagnostic.
constexpr int kDelayEscalation = 2;

circuit::TransientOptions transient_options(const SenseAmpCircuit& c, double vin) {
  circuit::TransientOptions opt;
  opt.tstop = c.config().timing.t_stop;
  opt.dt = c.config().timing.dt;
  opt.method = circuit::IntegrationMethod::kTrapezoidal;
  opt.dc_guess = c.dc_guess(vin);
  return opt;
}

SenseRunResult classify(const SenseAmpCircuit& c, const circuit::TransientResult& tr) {
  SenseRunResult r;
  r.s_final = tr.node_wave(c.node_s()).back();
  r.sbar_final = tr.node_wave(c.node_sbar()).back();
  r.read_one = r.s_final > r.sbar_final;

  const double vdd_half = 0.5 * c.config().vdd;
  const double t_enable = c.config().timing.t_fire + 0.5 * c.config().timing.t_rise;
  // "the result is produced at the output (when Out or Outbar rises to 50% of
  // Vdd)" — take whichever output resolves first.  Falling crossings are
  // considered too so the measurement also covers topologies whose outputs
  // precharge high (the double-tail SA's do).
  std::optional<double> t_result;
  for (const circuit::NodeId node : {c.node_out(), c.node_outbar()}) {
    for (const bool rising : {true, false}) {
      const auto t = tr.crossing_time(node, vdd_half, rising, t_enable);
      if (t && (!t_result || *t < *t_result)) t_result = t;
    }
  }
  if (t_result) r.delay = *t_result - t_enable;
  return r;
}

// When a sensing run may stop before t_stop.
enum class Seal {
  kNever,     // integrate to t_stop: the paper's method
  kDecision,  // once the read decision is sealed (an offset probe)
  kDelay,     // once the decision is sealed and one output is on each side of Vdd/2
};

// One sensing run with input differential `vin` on a fresh Simulator, its DC
// solve starting from the circuit's own guess.  With `split_slope`, the run
// also carries the final split's sensitivities to V(BL) and V(BLBar) and
// stores d split / d V(BL) and d split / d V(BLBar) there, the split being
// V(S) - V(SBar) at the last sample.
SenseRunResult sense(SenseAmpCircuit& circuit, double vin, Seal seal,
                     std::array<double, 2>* split_slope = nullptr) {
  circuit.set_input_differential(vin);
  circuit::TransientOptions opt = transient_options(circuit, vin);
  const auto s = static_cast<std::size_t>(circuit.node_s());
  const auto sbar = static_cast<std::size_t>(circuit.node_sbar());
  // Record only what classify() reads.
  opt.probes = {circuit.node_s(), circuit.node_sbar(), circuit.node_out(), circuit.node_outbar()};
  if (split_slope != nullptr) opt.sensitivity_to = {circuit.node_bl(), circuit.node_blbar()};
  // Stop once the sensing operation has irreversibly resolved: the latch
  // split exceeds Vdd/2 — past that point the positive feedback cannot
  // reverse, so the read decision is sealed.  A delay measurement must
  // additionally wait until one output is above Vdd/2 and the other below
  // it.  Both outputs start on the same side of Vdd/2 (low on the latch
  // SAs, precharged high on the double-tail ones), so that step holds the
  // first Vdd/2 output crossing, the one that defines the delay.  The
  // output difference alone is no such witness: an output that undershoots
  // while its twin rises can put them Vdd/2 apart before either crosses.
  // Runs that never resolve (the marginal bisection probes) never trigger
  // and integrate to t_stop exactly as without early exit.
  if (seal != Seal::kNever) {
    const auto out = static_cast<std::size_t>(circuit.node_out());
    const auto outbar = static_cast<std::size_t>(circuit.node_outbar());
    const double vdd = circuit.config().vdd;
    const double t_settled = circuit.config().timing.t_fire + circuit.config().timing.t_rise;
    const bool delay = seal == Seal::kDelay;
    opt.stop_condition = [=](double t, const std::vector<double>& v) {
      return t > t_settled && std::fabs(v[s] - v[sbar]) > 0.5 * vdd &&
             (!delay || (std::max(v[out], v[outbar]) > 0.5 * vdd &&
                         std::min(v[out], v[outbar]) < 0.5 * vdd));
    };
  }
  circuit::Simulator sim(circuit.netlist(), circuit.config().temperature_k());
  const circuit::TransientResult tr = sim.run_transient(opt);
  if (split_slope != nullptr) {
    for (std::size_t k = 0; k < 2; ++k) {
      (*split_slope)[k] = tr.sensitivity(k)[s] - tr.sensitivity(k)[sbar];
    }
  }
  return classify(circuit, tr);
}

// Searches the flip of vin, starting (unless robust) at the flip of the
// `predicted` offset.  A fast search first reads the flip off its probes'
// split sensitivities (the one-probe flip, DESIGN.md §12): it reports the
// flip extrapolated from a probe with a linear split once the step to it is
// within kFlipArea / |split|, and otherwise probes that flip in turn, up to
// kFlipProbes probes.  Then it bisects to a bracket of kSearchTolerance, and
// ends as soon as its bracket is linear and no wider than kInterpolationCap,
// reporting the flip interpolated between the final latch splits at its ends
// instead of the bracket midpoint: that flip moves continuously with the
// solution, so solver changes at the uV level move it by as little, where a
// midpoint jumps by the tolerance.  A robust search never interpolates: it is
// the midpoint-bisection oracle, over full-length transients.
OffsetResult search_offset(SenseAmpCircuit& circuit, bool robust, double predicted = 0.0) {
  const Seal seal = robust ? Seal::kNever : Seal::kDecision;
  const double interpolate_below = robust ? 0.0 : kInterpolationCap;
  OffsetResult result;
  double lo = -kSearchWindow;  // assumed to read 0
  double hi = kSearchWindow;   // assumed to read 1

  // Reports the flip `flip` of vin in the paper's read-0-direction
  // convention (see OffsetResult).  If the bracket collapsed onto a window
  // edge the true flip point lies outside the window.
  auto finish = [&](double flip) {
    result.offset = -flip;
    result.saturated = (kSearchWindow - std::fabs(result.offset)) < 2.0 * kSearchTolerance;
    return result;
  };

  // Final latch splits V(S) - V(SBar) at the bracket ends, once probed:
  // negative on the lo (read-0) side, positive on the hi side.  While both
  // stay in the linear regime the split is ~proportional to vin minus the
  // flip point, which the interpolated finish exploits.
  double g_lo = 0.0, g_hi = 0.0;
  bool have_lo = false, have_hi = false;
  auto probe = [&](double x, std::array<double, 2>* split_slope = nullptr) {
    ++result.transients;
    const SenseRunResult r = sense(circuit, x, seal, split_slope);
    const double g = r.s_final - r.sbar_final;
    if (r.read_one) {
      hi = x;
      g_hi = g;
      have_hi = true;
    } else {
      lo = x;
      g_lo = g;
      have_lo = true;
    }
    return g;
  };

  const double g_linear = 0.45 * circuit.config().vdd;

  if (!robust) {
    // The flip point of vin is minus the offset (sign convention of
    // OffsetResult); clamp it inside the window.
    double x = std::clamp(-predicted, lo + kSearchTolerance, hi - kSearchTolerance);
    for (int k = 0; k < kFlipProbes; ++k) {
      std::array<double, 2> slope{};
      const double g = probe(x, &slope);
      const std::optional<double> flip = detail::extrapolated_flip(x, g, slope[0], slope[1]);
      if (!flip || *flip < lo || *flip > hi) break;
      if (std::fabs(g) < g_linear && std::fabs(g) * std::fabs(*flip - x) <= kFlipArea) {
        return finish(*flip);
      }
      x = *flip;
    }
  }

  // Both final latch splits unresolved (|split| below the early-exit seal at
  // Vdd/2, so early exit never truncates them): the split is near-linear in
  // vin across the bracket.
  auto interpolable = [&] {
    return have_lo && have_hi && g_lo > -g_linear && g_hi < g_linear &&
           hi - lo <= interpolate_below;
  };
  while (hi - lo > kSearchTolerance && !interpolable()) probe(0.5 * (lo + hi));
  // A zero split (exactly balanced latch) puts the flip at that end.
  return finish(interpolable() ? lo + (hi - lo) * (-g_lo) / (g_hi - g_lo) : 0.5 * (lo + hi));
}

}  // namespace

circuit::TransientResult run_sense_transient(SenseAmpCircuit& circuit, double vin) {
  circuit.set_input_differential(vin);
  issa::circuit::Simulator sim(circuit.netlist(), circuit.config().temperature_k());
  return sim.run_transient(transient_options(circuit, vin));
}

SenseRunResult run_sense(SenseAmpCircuit& circuit, double vin) {
  return sense(circuit, vin, Seal::kNever);
}

OffsetResult measure_offset(SenseAmpCircuit& circuit, const OffsetSearchOptions& options) {
  // Swapping inverts the decision's monotonicity in vin, which every search
  // assumes; the paper measures the unswapped orientation.
  if (circuit.swapped()) {
    throw std::invalid_argument("measure_offset: the circuit's inputs are swapped; measure the "
                                "unswapped orientation");
  }
  if (options.robust) return search_offset(circuit, /*robust=*/true);
  return search_offset(circuit, /*robust=*/false,
                       offset_model(circuit.kind(), circuit.config()).predict(circuit));
}

namespace detail {

std::optional<double> extrapolated_flip(double x, double g, double d_bl, double d_blbar) {
  const double below = d_bl;
  const double above = -d_blbar;
  if (!(below > 0.0 && above > 0.0)) return std::nullopt;
  if (g > 0.0) {  // the flip lies below x
    if (x <= 0.0) return x - g / below;
    const double flip = x - g / above;
    return flip >= 0.0 ? flip : -(g - above * x) / below;
  }
  if (x >= 0.0) return x - g / above;
  const double flip = x - g / below;
  return flip <= 0.0 ? flip : -(g - below * x) / above;
}

}  // namespace detail

double OffsetModel::predict(const SenseAmpCircuit& circuit) const {
  const auto& mosfets = circuit.netlist().mosfets();
  if (mosfets.size() != sensitivity.size()) {
    throw std::logic_error("OffsetModel::predict: testbench has " +
                           std::to_string(mosfets.size()) + " MOSFETs, model " +
                           std::to_string(sensitivity.size()));
  }
  double offset = offset0;
  for (std::size_t k = 0; k < mosfets.size(); ++k) {
    offset += sensitivity[k] * mosfets[k].inst.delta_vth;
  }
  return offset;
}

OffsetModel fit_offset_model(SenseAmpKind kind, const SenseAmpConfig& config) {
  util::trace::Span span(util::trace::spans::kSaOffsetModelFit, "sa");
  if (span.traced()) {
    span.attr_str("kind", kind_name(kind));
    span.attr_f64("vdd", config.vdd);
    span.attr_f64("temperature_c", config.temperature_c);
  }
  // The model is shared by every sample of the condition: an injected fault
  // belongs to one sample and must not reach it.
  const util::faultpoint::SuspendScope no_faults;

  SenseAmpCircuit circuit = build_sense_amp(kind, config);
  OffsetModel model;
  model.offset0 = search_offset(circuit, /*robust=*/false).offset;
  for (std::size_t k = 0; k < circuit.netlist().mosfets().size(); ++k) {
    double& delta_vth = circuit.netlist().mosfet(k).inst.delta_vth;
    delta_vth = kFitShift;
    const double shifted = search_offset(circuit, /*robust=*/false, model.offset0).offset;
    delta_vth = 0.0;
    model.sensitivity.push_back((shifted - model.offset0) / kFitShift);
  }
  return model;
}

const OffsetModel& offset_model(SenseAmpKind kind, const SenseAmpConfig& config) {
  struct Entry {
    SenseAmpKind kind;
    SenseAmpConfig config;
    OffsetModel model;
  };
  // A deque never moves its elements, so a published model stays put.  The
  // lock is held through a fit: a second caller of the same key waits for
  // it instead of fitting twice.
  static std::mutex mutex;
  static std::deque<Entry> memo;
  const std::lock_guard<std::mutex> lock(mutex);
  for (const Entry& e : memo) {
    if (e.kind == kind && e.config == config) return e.model;
  }
  return memo.emplace_back(Entry{kind, config, fit_offset_model(kind, config)}).model;
}

DelayPair measure_delay(SenseAmpCircuit& circuit) {
  for (int scale = 1; scale <= kDelayEscalation; ++scale) {
    const double vin = kDelaySwing * scale;
    const SenseRunResult one = sense(circuit, vin, Seal::kDelay);
    if (!one.delay || !one.read_one) continue;
    const SenseRunResult zero = sense(circuit, -vin, Seal::kDelay);
    if (!zero.delay || zero.read_one) continue;
    DelayPair d;
    d.read_one = *one.delay;
    d.read_zero = *zero.delay;
    return d;
  }
  throw std::runtime_error("measure_delay: SA failed to resolve both directions up to " +
                           std::to_string(kDelayEscalation * kDelaySwing) + " V of swing");
}

double estimate_offset_dc(const SenseAmpCircuit& circuit) {
  namespace names = workload::names;
  if (circuit.kind() != SenseAmpKind::kNssa && circuit.kind() != SenseAmpKind::kIssa) {
    throw std::logic_error(
        "estimate_offset_dc: first-order estimator is defined for the latch-type SA only");
  }
  const auto& net = circuit.netlist();
  const auto& mdown = net.find_mosfet(names::kMdown);
  const auto& mdownbar = net.find_mosfet(names::kMdownBar);
  const auto& mup = net.find_mosfet(names::kMup);
  const auto& mupbar = net.find_mosfet(names::kMupBar);

  // Transconductance ratio at the metastable trip point (both internal nodes
  // near Vdd/2, enable devices fully on).
  const double vdd = circuit.config().vdd;
  const double temp = circuit.config().temperature_k();
  device::MosTerminals n_terms{0.5 * vdd, 0.5 * vdd, 0.0, 0.0};
  device::MosTerminals p_terms{0.5 * vdd, 0.5 * vdd, vdd, vdd};
  device::MosInstance nclean = mdown.inst;
  nclean.delta_vth = 0.0;
  device::MosInstance pclean = mup.inst;
  pclean.delta_vth = 0.0;
  const double gm_n = device::evaluate_mosfet(nclean, n_terms, temp).gm;
  const double gm_p = device::evaluate_mosfet(pclean, p_terms, temp).gm;
  const double k = gm_n > 0.0 ? gm_p / gm_n : 0.0;

  // A higher Vth on Mdown weakens the read-0 pull-down of S, so more swing
  // is needed in the read-0 direction (positive offset in the paper's
  // convention); a higher |Vth| on MupBar weakens the pull-up of SBar with
  // the same sign of effect, scaled by gm_p/gm_n.
  return (mdown.inst.delta_vth - mdownbar.inst.delta_vth) +
         k * (mupbar.inst.delta_vth - mup.inst.delta_vth);
}

}  // namespace issa::sa
