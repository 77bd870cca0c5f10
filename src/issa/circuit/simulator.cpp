#include "issa/circuit/simulator.hpp"

#include <algorithm>
#include <cmath>

#include "issa/linalg/lu.hpp"
#include "issa/util/faultpoint.hpp"
#include "issa/util/metrics.hpp"
#include "issa/util/trace.hpp"

namespace issa::circuit {

namespace {

namespace mnames = util::metrics::names;

// Newton solver settings, shared by the DC and transient solves.
constexpr int kNewtonMaxIterations = 120;
// Residual floor [A]: below this the point counts as converged.  Five orders
// below the SA's on-currents (~1e-4 A); floating nodes held only by gmin reach
// an oscillation floor near gmin * Vdd that must be accepted, not iterated
// (newton_solve additionally floors this at 2 * gmin).
constexpr double kNewtonAbstol = 1e-9;
constexpr double kNewtonMaxStep = 0.3;  // damping: per-iteration voltage-step clamp [V]
// Final-update bound [V]: a Newton update that moves every free node by less
// than this is final, and its end point is returned without being assembled.
// Newton converges quadratically there, so that point's residual is about
// c * |dx|^2 with c ~ 2.7e-2 A/V^2 on the sense amplifiers: at most 2.65e-10 A
// (0.13 of the 2e-9 A floor) over the paper's sweeps, below the half floor at
// which the line search accepts a full step outright.  The skipped assembly
// could only confirm the same point, so every result is bit-identical
// (DESIGN.md §16).  At 3e-4 V accepted points exceed the floor and results move.
// c grows with the beta of the devices on a node: the margin was measured on
// the SA sizing (W/L <= 17.8) and on an inverter up to W/L = 640/1280, where
// the worst skipped residual was 0.31 of the floor.
constexpr double kNewtonFinalStep = 1e-4;
// Conductance from every node to ground [S].  1 nS is far below every
// on-conductance in the SA yet large enough to dominate the subthreshold
// leakage of off devices hanging on otherwise-floating nodes, which keeps
// Newton out of limit cycles there (RC with 1 fF is ~1 us >> the ~60 ps
// sensing window, so waveforms are unaffected).
constexpr double kGmin = 1e-9;
// Local timestep cuts of one transient step before the run gives up.
constexpr int kMaxStepHalvings = 8;

util::metrics::Counter& metric(const char* name) {
  return util::metrics::Registry::instance().counter(name);
}

util::metrics::Counter& m_newton_iterations() {
  static util::metrics::Counter& c = metric(mnames::kNewtonIterations);
  return c;
}
util::metrics::Counter& m_newton_failures() {
  static util::metrics::Counter& c = metric(mnames::kNewtonFailures);
  return c;
}
util::metrics::Counter& m_jacobian_builds() {
  static util::metrics::Counter& c = metric(mnames::kJacobianBuilds);
  return c;
}
util::metrics::Counter& m_device_evaluations() {
  static util::metrics::Counter& c = metric(mnames::kDeviceEvaluations);
  return c;
}
util::metrics::Counter& m_step_rejections() {
  static util::metrics::Counter& c = metric(mnames::kStepRejections);
  return c;
}
util::metrics::Counter& m_transient_steps() {
  static util::metrics::Counter& c = metric(mnames::kTransientSteps);
  return c;
}
util::metrics::Counter& m_dc_solves() {
  static util::metrics::Counter& c = metric(mnames::kDcSolves);
  return c;
}
util::metrics::Counter& m_early_exits() {
  static util::metrics::Counter& c = metric(mnames::kTransientEarlyExits);
  return c;
}
util::metrics::Counter& m_lu_factorizations() {
  static util::metrics::Counter& c = metric(mnames::kLuFactorizations);
  return c;
}

}  // namespace

TransientResult::TransientResult(std::size_t node_count, std::vector<NodeId> probes)
    : recorded_(std::move(probes)), wave_index_(node_count, -1) {
  if (recorded_.empty()) {
    recorded_.resize(node_count);
    for (std::size_t n = 0; n < node_count; ++n) recorded_[n] = static_cast<NodeId>(n);
  }
  waves_.resize(recorded_.size());
  for (std::size_t k = 0; k < recorded_.size(); ++k) {
    const auto node = static_cast<std::size_t>(recorded_[k]);
    if (recorded_[k] < 0 || node >= node_count) {
      throw std::invalid_argument("TransientResult: probe on unknown node");
    }
    wave_index_[node] = static_cast<long>(k);
  }
}

void TransientResult::append(double t, const std::vector<double>& node_voltages) {
  time_.push_back(t);
  for (std::size_t k = 0; k < recorded_.size(); ++k) {
    waves_[k].push_back(node_voltages[static_cast<std::size_t>(recorded_[k])]);
  }
}

bool TransientResult::records(NodeId node) const noexcept {
  const auto n = static_cast<std::size_t>(node);
  return node >= 0 && n < wave_index_.size() && wave_index_[n] >= 0;
}

const std::vector<double>& TransientResult::node_wave(NodeId node) const {
  const long idx = wave_index_.at(static_cast<std::size_t>(node));
  if (idx < 0) {
    throw std::out_of_range("TransientResult::node_wave: node " + std::to_string(node) +
                            " was not probed");
  }
  return waves_[static_cast<std::size_t>(idx)];
}

double TransientResult::at(NodeId node, double t) const {
  const auto& w = node_wave(node);
  if (time_.empty()) throw std::logic_error("TransientResult::at: no samples");
  if (t <= time_.front()) return w.front();
  if (t >= time_.back()) return w.back();
  const auto it = std::upper_bound(time_.begin(), time_.end(), t);
  const auto idx = static_cast<std::size_t>(it - time_.begin());
  const double frac = (t - time_[idx - 1]) / (time_[idx] - time_[idx - 1]);
  return w[idx - 1] + frac * (w[idx] - w[idx - 1]);
}

std::optional<double> TransientResult::crossing_time(NodeId node, double level, bool rising,
                                                     double after) const {
  const auto& w = node_wave(node);
  for (std::size_t i = 1; i < time_.size(); ++i) {
    if (time_[i] < after) continue;
    const double v0 = w[i - 1];
    const double v1 = w[i];
    // A segment departing from exactly `level` counts as a crossing at its
    // start; a flat segment sitting on the level does not.
    const bool crossed = rising ? (v0 < level && v1 >= level) || (v0 == level && v1 > level)
                                : (v0 > level && v1 <= level) || (v0 == level && v1 < level);
    if (!crossed) continue;
    const double frac = (level - v0) / (v1 - v0);
    const double t = time_[i - 1] + frac * (time_[i] - time_[i - 1]);
    if (t >= after) return t;
  }
  return std::nullopt;
}

Waveform TransientResult::waveform(NodeId node) const {
  Waveform w;
  w.time = time_;
  w.value = node_wave(node);
  return w;
}

Simulator::Simulator(const Netlist& netlist, double temperature_k)
    : netlist_(netlist),
      temperature_k_(temperature_k),
      node_count_(netlist.node_count()),
      cap_state_(netlist.capacitors().size()),
      row_(netlist.node_count(), -1) {
  if (!(temperature_k > 0.0)) throw std::invalid_argument("Simulator: temperature must be > 0 K");

  // A source from a node to ground pins that node (the first such source
  // does; a second one on the same node keeps its branch current, which
  // leaves the system singular exactly as two parallel sources always were).
  std::vector<bool> pinned(node_count_, false);
  const auto& vsrcs = netlist.vsources();
  for (std::size_t k = 0; k < vsrcs.size(); ++k) {
    const auto& src = vsrcs[k];
    const auto pos = static_cast<std::size_t>(src.pos);
    if (src.neg == kGround && src.pos != kGround && !pinned[pos]) {
      pinned[pos] = true;
      pins_.emplace_back(src.pos, k);
    } else {
      branch_sources_.push_back(k);
    }
  }
  for (std::size_t node = 1; node < node_count_; ++node) {
    if (!pinned[node]) row_[node] = static_cast<long>(free_node_count_++);
  }

  mos_thermal_.reserve(netlist.mosfets().size());
  for (const auto& m : netlist.mosfets()) {
    mos_thermal_.push_back(device::mos_thermal(m.inst.card, temperature_k));
  }
  mos_eval_ws_.resize(netlist.mosfets().size());

  const std::size_t n = unknown_count();
  // The capacitance matrix over the unknowns, as the sensitivities see it: a
  // constant shift of a driven node moves no capacitor current, so a
  // capacitor to a known node acts as one to ground.
  cap_matrix_.resize(n, n);
  for (const auto& cap : netlist.capacitors()) {
    const long ra = row_[static_cast<std::size_t>(cap.a)];
    const long rb = row_[static_cast<std::size_t>(cap.b)];
    const auto a = static_cast<std::size_t>(ra);
    const auto b = static_cast<std::size_t>(rb);
    if (ra >= 0) cap_matrix_(a, a) += cap.capacitance;
    if (rb >= 0) cap_matrix_(b, b) += cap.capacitance;
    if (ra >= 0 && rb >= 0) {
      cap_matrix_(a, b) -= cap.capacitance;
      cap_matrix_(b, a) -= cap.capacitance;
    }
  }
  jacobian_ws_.resize(n, n);
  residual_ws_.resize(n);
  residual_try_ws_.resize(n);
  x_try_ws_.resize(n);
  dx_ws_.resize(n);
}

void Simulator::fill_node_voltages(const std::vector<double>& x, double t, double source_scale,
                                   std::vector<double>& v) const {
  v.resize(node_count_);
  v[0] = 0.0;
  for (std::size_t n = 1; n < node_count_; ++n) {
    if (row_[n] >= 0) v[n] = x[static_cast<std::size_t>(row_[n])];
  }
  const auto& vsrcs = netlist_.vsources();
  for (const auto& [node, k] : pins_) {
    v[static_cast<std::size_t>(node)] = source_scale * vsrcs[k].wave.value(t);
  }
}

void Simulator::gather_unknowns(const std::vector<double>& v, std::vector<double>& x) const {
  for (std::size_t n = 1; n < node_count_; ++n) {
    if (row_[n] >= 0) x[static_cast<std::size_t>(row_[n])] = v[n];
  }
}

void Simulator::assemble(const std::vector<double>& x, double t, bool transient, double gmin,
                         double source_scale, linalg::Matrix& jacobian,
                         std::vector<double>& residual) {
  jacobian.set_zero();
  std::fill(residual.begin(), residual.end(), 0.0);
  jacobian_factored_ = false;

  // Every node's voltage, known ones included; only unknowns have a row.
  std::vector<double>& v = assemble_v_ws_;
  fill_node_voltages(x, t, source_scale, v);
  auto volt = [&](NodeId node) { return v[static_cast<std::size_t>(node)]; };
  auto row = [&](NodeId node) { return row_[static_cast<std::size_t>(node)]; };
  auto stamp_g = [&](NodeId a, NodeId b, double g) {
    const long ra = row(a);
    const long rb = row(b);
    if (ra >= 0) jacobian(static_cast<std::size_t>(ra), static_cast<std::size_t>(ra)) += g;
    if (rb >= 0) jacobian(static_cast<std::size_t>(rb), static_cast<std::size_t>(rb)) += g;
    if (ra >= 0 && rb >= 0) {
      jacobian(static_cast<std::size_t>(ra), static_cast<std::size_t>(rb)) -= g;
      jacobian(static_cast<std::size_t>(rb), static_cast<std::size_t>(ra)) -= g;
    }
  };
  auto add_current = [&](NodeId node, double i) {  // current flowing OUT of node
    const long r = row(node);
    if (r >= 0) residual[static_cast<std::size_t>(r)] += i;
  };
  auto add_jacobian = [&](NodeId eq_node, NodeId wrt_node, double g) {
    const long r = row(eq_node);
    const long c = row(wrt_node);
    if (r >= 0 && c >= 0) jacobian(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) += g;
  };

  // gmin to ground on every unknown node keeps floating nodes solvable.
  for (std::size_t i = 0; i < free_node_count_; ++i) {
    jacobian(i, i) += gmin;
    residual[i] += gmin * x[i];
  }

  for (const auto& r : netlist_.resistors()) {
    const double g = 1.0 / r.resistance;
    const double i = g * (volt(r.a) - volt(r.b));
    add_current(r.a, i);
    add_current(r.b, -i);
    stamp_g(r.a, r.b, g);
  }

  if (transient) {
    const auto& caps = netlist_.capacitors();
    for (std::size_t k = 0; k < caps.size(); ++k) {
      const auto& c = caps[k];
      const auto& st = cap_state_[k];
      const double i = st.geq * (volt(c.a) - volt(c.b)) + st.ieq;
      add_current(c.a, i);
      add_current(c.b, -i);
      stamp_g(c.a, c.b, st.geq);
    }
  }

  const auto& mosfets = netlist_.mosfets();
  for (std::size_t k = 0; k < mosfets.size(); ++k) {
    const auto& m = mosfets[k];
    const device::MosTerminals terms{volt(m.gate), volt(m.drain), volt(m.source), volt(m.bulk)};
    const device::MosEval e = device::evaluate_mosfet(m.inst, terms, mos_thermal_[k]);
    if (!sens_.empty()) mos_eval_ws_[k] = e;
    add_current(m.drain, e.id);
    add_current(m.source, -e.id);
    add_jacobian(m.drain, m.gate, e.gm);
    add_jacobian(m.drain, m.drain, e.gds);
    add_jacobian(m.drain, m.source, e.gms);
    add_jacobian(m.drain, m.bulk, e.gmb);
    add_jacobian(m.source, m.gate, -e.gm);
    add_jacobian(m.source, m.drain, -e.gds);
    add_jacobian(m.source, m.source, -e.gms);
    add_jacobian(m.source, m.bulk, -e.gmb);
  }

  for (const auto& src : netlist_.isources()) {
    const double i = source_scale * src.wave.value(t);
    add_current(src.pos, i);  // current leaves pos terminal through the source
    add_current(src.neg, -i);
  }

  // Floating voltage sources: one extra unknown (branch current) and one KVL
  // row each.  Pinning sources need neither: their node is already known.
  const auto& vsrcs = netlist_.vsources();
  for (std::size_t b = 0; b < branch_sources_.size(); ++b) {
    const auto& src = vsrcs[branch_sources_[b]];
    const std::size_t branch = free_node_count_ + b;
    const double i_branch = x[branch];
    add_current(src.pos, i_branch);
    add_current(src.neg, -i_branch);
    const long rp = row(src.pos);
    const long rn = row(src.neg);
    if (rp >= 0) jacobian(static_cast<std::size_t>(rp), branch) += 1.0;
    if (rn >= 0) jacobian(static_cast<std::size_t>(rn), branch) -= 1.0;
    // KVL row: v_pos - v_neg - V(t) = 0.
    residual[branch] = volt(src.pos) - volt(src.neg) - source_scale * src.wave.value(t);
    if (rp >= 0) jacobian(branch, static_cast<std::size_t>(rp)) += 1.0;
    if (rn >= 0) jacobian(branch, static_cast<std::size_t>(rn)) -= 1.0;
  }
}

void Simulator::record_solver_forensic(const char* kind, const char* reason,
                                       const std::vector<double>& x, double t,
                                       double h_or_gmin) {
  util::trace::ForensicEvent event;
  event.kind = kind;
  event.attrs.push_back(util::trace::Attr::str("reason", reason));
  event.attrs.push_back(util::trace::Attr::f64("t", t));
  event.attrs.push_back(util::trace::Attr::f64("h_or_gmin", h_or_gmin));
  event.attrs.push_back(util::trace::Attr::f64("temperature_k", temperature_k_));
  event.residual_history = fnorm_hist_ws_;
  event.alpha_history = alpha_hist_ws_;
  fill_node_voltages(x, t, 1.0, forensic_v_ws_);
  event.node_voltages = forensic_v_ws_;
  util::trace::record_forensic(std::move(event));
}

bool Simulator::newton_solve(std::vector<double>& x, double t, bool transient, double gmin,
                             double source_scale) {
  const std::size_t n = unknown_count();
  const bool forensic = util::trace::enabled();
  if (forensic) {
    fnorm_hist_ws_.clear();
    alpha_hist_ws_.clear();
  }
  // All buffers are simulator-owned workspace: zero allocations per call.
  linalg::Matrix& jacobian = jacobian_ws_;
  std::vector<double>& residual = residual_ws_;
  std::vector<double>& x_try = x_try_ws_;
  std::vector<double>& residual_try = residual_try_ws_;
  std::vector<double>& dx = dx_ws_;

  auto inf_norm = [](const std::vector<double>& v) {
    double m = 0.0;
    for (const double e : v) m = std::max(m, std::fabs(e));
    return m;
  };

  // Telemetry is batched per solve: the Newton loop counts locally (it runs
  // thousands of times per transient) and one flush on exit pays a single
  // enabled() check, keeping the hot loop free of atomics when metrics are off.
  // These counters are the only record of work below the transient level.
  struct Telemetry {
    std::uint64_t mosfets = 0;  // MOSFETs evaluated per assemble()
    std::uint64_t iterations = 0;
    std::uint64_t failures = 0;
    std::uint64_t builds = 0;          // assemble() calls, line-search trials included
    std::uint64_t factorizations = 0;  // LU attempts, singular ones included
    ~Telemetry() {
      if (!util::metrics::enabled()) return;
      if (iterations > 0) m_newton_iterations().add(iterations);
      if (failures > 0) m_newton_failures().add(failures);
      if (builds > 0) m_jacobian_builds().add(builds);
      if (builds > 0 && mosfets > 0) m_device_evaluations().add(builds * mosfets);
      if (factorizations > 0) m_lu_factorizations().add(factorizations);
    }
  } telemetry{netlist_.mosfets().size()};

  assemble(x, t, transient, gmin, source_scale, jacobian, residual);
  ++telemetry.builds;
  double fnorm = inf_norm(residual);
  int line_search_failures = 0;
  if (forensic) fnorm_hist_ws_.push_back(fnorm);

  // Injected non-convergence reports failure through the normal verdict path,
  // so callers exercise their real fallbacks (homotopy, source stepping,
  // step halving) exactly as they would for a natural failure.
  if (util::faultpoint::should_fire(util::faultpoint::sites::kNewtonNonconvergence)) {
    ++telemetry.failures;
    return false;
  }

  // Newton cannot land exactly on the root of a stiff exponential; the
  // attainable residual floor on nodes held only by gmin scales with the
  // gmin current itself, so the acceptance floor must track it.
  const double abstol = std::max(kNewtonAbstol, 2.0 * gmin);

  for (int iter = 0; iter < kNewtonMaxIterations; ++iter) {
    ++telemetry.iterations;
    if (fnorm < abstol) return true;

    try {
      ++telemetry.factorizations;
      lu_ws_.factorize(jacobian);  // in place: jacobian now holds the factors
      jacobian_factored_ = true;
      for (std::size_t i = 0; i < n; ++i) dx[i] = -residual[i];
      lu_ws_.solve_in_place(dx);
    } catch (const std::runtime_error&) {
      ++telemetry.failures;
      return false;  // singular Jacobian: the caller falls back
    }

    // Damping stage 1: clamp the voltage updates (branch currents are free).
    double max_step = 0.0;
    for (std::size_t i = 0; i < free_node_count_; ++i) {
      dx[i] = std::clamp(dx[i], -kNewtonMaxStep, kNewtonMaxStep);
      max_step = std::max(max_step, std::fabs(dx[i]));
    }

    // A settled update is final: take the full step without assembling it.
    if (max_step < kNewtonFinalStep) {
      for (std::size_t i = 0; i < n; ++i) x[i] += dx[i];
      return true;
    }

    // Damping stage 2: backtracking line search on the residual norm.  This
    // kills the period-2 orbits Newton falls into on exponential device
    // characteristics (the full step overshoots back and forth forever).
    const detail::LineSearchOutcome ls =
        detail::backtracking_line_search(7, fnorm, abstol, [&](double alpha) {
          for (std::size_t i = 0; i < n; ++i) x_try[i] = x[i] + alpha * dx[i];
          assemble(x_try, t, transient, gmin, source_scale, jacobian, residual_try);
          ++telemetry.builds;
          return inf_norm(residual_try);
        });
    if (!ls.improved) {
      // Accept the smallest trial step anyway to escape flat regions, but a
      // run of such steps means we are stuck.
      if (++line_search_failures > 4) {
        ++telemetry.failures;
        return false;
      }
    } else {
      line_search_failures = 0;
    }

    x.swap(x_try);
    residual.swap(residual_try);  // jacobian/residual already match x now
    fnorm = inf_norm(residual);
    if (forensic) {
      fnorm_hist_ws_.push_back(fnorm);
      alpha_hist_ws_.push_back(ls.alpha);
    }
  }
  ++telemetry.failures;
  return false;
}

std::vector<double> Simulator::solve_dc(const DcOptions& options) {
  m_dc_solves().add();
  util::trace::Span span(util::trace::spans::kDcSolve, "sim");
  if (span.traced()) {
    span.attr_u64("unknowns", unknown_count());
    span.attr_u64("warm_start", options.initial_guess.empty() ? 0 : 1);
  }
  std::vector<double> x(unknown_count(), 0.0);
  auto load_guess = [&] {
    std::fill(x.begin(), x.end(), 0.0);
    if (options.initial_guess.empty()) return;
    if (options.initial_guess.size() != node_count_) {
      throw std::invalid_argument("solve_dc: initial_guess size must equal node_count");
    }
    gather_unknowns(options.initial_guess, x);
  };
  auto finish = [&]() -> std::vector<double> {
    fill_node_voltages(x, 0.0, 1.0, last_dc_);
    return last_dc_;
  };

  load_guess();
  if (newton_solve(x, 0.0, /*transient=*/false, kGmin, 1.0)) return finish();

  // Homotopy: converge the heavily damped system first, then ramp gmin down
  // gently, warm-starting every stage from the previous solution.
  load_guess();
  bool ok = true;
  double gmin = 1e-2;
  while (true) {
    if (util::faultpoint::should_fire(util::faultpoint::sites::kGminStageFail) ||
        !newton_solve(x, 0.0, false, gmin, 1.0)) {
      ok = false;
      break;
    }
    if (gmin <= kGmin * 1.0001) break;
    gmin = std::max(gmin * 0.5, kGmin);
  }
  if (ok) return finish();

  // Last resort: source stepping under relaxed gmin, then re-tighten.
  load_guess();
  ok = true;
  for (double scale = 0.05; scale <= 1.0001; scale += 0.05) {
    if (!newton_solve(x, 0.0, false, 1e-8, scale)) {
      ok = false;
      break;
    }
  }
  if (ok && newton_solve(x, 0.0, false, kGmin, 1.0)) return finish();

  // Terminal: every fallback (plain, gmin homotopy, source stepping) failed.
  // The history workspace still holds the LAST failed Newton solve.
  if (util::trace::enabled()) {
    record_solver_forensic("newton_nonconvergence", "dc_all_fallbacks_failed", x, 0.0, kGmin);
  }
  throw ConvergenceError("solve_dc: Newton failed to converge");
}

void Simulator::prepare_companions(double h, IntegrationMethod method) {
  const auto& caps = netlist_.capacitors();
  for (std::size_t k = 0; k < caps.size(); ++k) {
    auto& st = cap_state_[k];
    const double c = caps[k].capacitance;
    if (method == IntegrationMethod::kBackwardEuler) {
      st.geq = c / h;
      st.ieq = -st.geq * st.voltage;
    } else {
      st.geq = 2.0 * c / h;
      st.ieq = -st.geq * st.voltage - st.current;
    }
  }
}

void Simulator::accept_step(const std::vector<double>& node_v) {
  const auto& caps = netlist_.capacitors();
  for (std::size_t k = 0; k < caps.size(); ++k) {
    auto& st = cap_state_[k];
    const double v = node_v[static_cast<std::size_t>(caps[k].a)] -
                     node_v[static_cast<std::size_t>(caps[k].b)];
    st.current = st.geq * v + st.ieq;
    st.voltage = v;
  }
}

void Simulator::advance_sensitivities(bool transient, IntegrationMethod method, double h) {
  if (!jacobian_factored_) {
    m_lu_factorizations().add();
    lu_ws_.factorize(jacobian_ws_);
    jacobian_factored_ = true;
  }
  const std::size_t n = unknown_count();
  const bool trapezoidal = method == IntegrationMethod::kTrapezoidal;
  const double geq_per_farad = transient ? (trapezoidal ? 2.0 : 1.0) / h : 0.0;
  const auto& mosfets = netlist_.mosfets();
  std::vector<double>& rhs = sens_rhs_ws_;
  for (Sensitivity& s : sens_) {
    // -dF/dp.  A pinned driven node moves the current of every device on
    // it; a driven node with a branch current moves its source's KVL row.
    rhs.assign(n, 0.0);
    auto on_pin = [&](NodeId node) { return node == s.node_id ? 1.0 : 0.0; };
    auto add_current = [&](NodeId node, double di) {
      const long r = row_[static_cast<std::size_t>(node)];
      if (r >= 0) rhs[static_cast<std::size_t>(r)] -= di;
    };
    for (const std::size_t k : s.mosfets) {
      const auto& m = mosfets[k];
      const device::MosEval& e = mos_eval_ws_[k];
      const double di = e.gm * on_pin(m.gate) + e.gds * on_pin(m.drain) +
                        e.gms * on_pin(m.source) + e.gmb * on_pin(m.bulk);
      add_current(m.drain, di);
      add_current(m.source, -di);
    }
    for (const std::size_t k : s.resistors) {
      const auto& r = netlist_.resistors()[k];
      const double di = (on_pin(r.a) - on_pin(r.b)) / r.resistance;
      add_current(r.a, di);
      add_current(r.b, -di);
    }
    for (const auto& [row, value] : s.kvl) rhs[row] += value;
    // The capacitors' history.  Per row, their charge is q = C x and their
    // companion current geq dv + ieq, with ieq = -geq dv_n - i_n
    // (trapezoidal) or -geq dv_n (backward Euler) and geq = 2C/h or C/h.
    if (transient) {
      for (std::size_t r = 0; r < n; ++r) {
        rhs[r] += geq_per_farad * s.q[r] + (trapezoidal ? s.cap_i[r] : 0.0);
      }
    }
    lu_ws_.solve_in_place(rhs);
    for (std::size_t r = 0; r < n; ++r) {
      double q = 0.0;
      for (std::size_t c = 0; c < n; ++c) q += cap_matrix_(r, c) * rhs[c];
      if (transient) {
        s.cap_i[r] = geq_per_farad * (q - s.q[r]) - (trapezoidal ? s.cap_i[r] : 0.0);
      }
      s.q[r] = q;
    }
    s.x.swap(rhs);
  }
}

Simulator::Sensitivity Simulator::make_sensitivity(NodeId node) const {
  Sensitivity s;
  s.node_id = node;
  s.x.assign(unknown_count(), 0.0);
  s.q.assign(unknown_count(), 0.0);
  s.cap_i.assign(unknown_count(), 0.0);
  s.pinned = std::any_of(pins_.begin(), pins_.end(),
                         [&](const auto& pin) { return pin.first == node; });
  if (s.pinned) {
    const auto& mosfets = netlist_.mosfets();
    for (std::size_t k = 0; k < mosfets.size(); ++k) {
      const auto& m = mosfets[k];
      if (m.gate == node || m.drain == node || m.source == node || m.bulk == node) {
        s.mosfets.push_back(k);
      }
    }
    const auto& resistors = netlist_.resistors();
    for (std::size_t k = 0; k < resistors.size(); ++k) {
      if (resistors[k].a == node || resistors[k].b == node) s.resistors.push_back(k);
    }
  }
  const auto& vsrcs = netlist_.vsources();
  for (std::size_t b = 0; b < branch_sources_.size(); ++b) {
    const auto& src = vsrcs[branch_sources_[b]];
    const std::size_t row = free_node_count_ + b;
    if (s.pinned) {
      // KVL row v_pos - v_neg - V = 0 across the pinned node.
      const double d = (src.pos == node ? 1.0 : 0.0) - (src.neg == node ? 1.0 : 0.0);
      if (d != 0.0) s.kvl.emplace_back(row, -d);
    } else if (s.kvl.empty() && node != kGround &&
               ((src.pos == node && src.neg == kGround) ||
                (src.neg == node && src.pos == kGround))) {
      // The source drives the node through its branch: its value moves by
      // +1 (`V n 0`) or -1 (`V 0 n`) per volt on the node.
      s.kvl.emplace_back(row, src.pos == node ? 1.0 : -1.0);
    }
  }
  if (!s.pinned && s.kvl.empty()) {
    throw std::invalid_argument(
        "run_transient: sensitivity to a node no source holds against ground");
  }
  return s;
}

TransientResult Simulator::run_transient(const TransientOptions& options) {
  if (!(options.tstop > 0.0) || !(options.dt > 0.0)) {
    throw std::invalid_argument("run_transient: tstop and dt must be > 0");
  }
  util::trace::Span span(util::trace::spans::kTransient, "sim");
  if (span.traced()) {
    span.attr_f64("tstop", options.tstop);
    span.attr_f64("dt", options.dt);
  }

  sens_.clear();
  for (const NodeId node : options.sensitivity_to) sens_.push_back(make_sensitivity(node));

  // Starting point: DC at t = 0.
  DcOptions dc_options;
  dc_options.initial_guess = options.dc_guess;
  const std::vector<double> v0 = solve_dc(dc_options);
  if (!sens_.empty()) advance_sensitivities(/*transient=*/false, options.method, 0.0);

  std::vector<double> x(unknown_count(), 0.0);
  gather_unknowns(v0, x);

  // Initialize capacitor state from the t = 0 solution.
  auto v_of0 = [&](NodeId node) { return v0[static_cast<std::size_t>(node)]; };
  const auto& caps = netlist_.capacitors();
  for (std::size_t k = 0; k < caps.size(); ++k) {
    cap_state_[k].voltage = v_of0(caps[k].a) - v_of0(caps[k].b);
    cap_state_[k].current = 0.0;
  }

  // Source breakpoints: steps land exactly on every PWL corner so the
  // companion integration never straddles a slope discontinuity.
  std::vector<double> breakpoints;
  for (const auto& src : netlist_.vsources()) {
    const auto corners = src.wave.corner_times();
    breakpoints.insert(breakpoints.end(), corners.begin(), corners.end());
  }
  for (const auto& src : netlist_.isources()) {
    const auto corners = src.wave.corner_times();
    breakpoints.insert(breakpoints.end(), corners.begin(), corners.end());
  }
  std::sort(breakpoints.begin(), breakpoints.end());
  std::size_t next_breakpoint = 0;

  TransientResult result(node_count_, options.probes);
  result.append(0.0, v0);

  // Every source holds its first value up to its first corner, so the DC
  // point IS the circuit's state up to the earliest corner t0: record it
  // there and integrate from t0 instead of stepping through a quiescent
  // lead-in.
  double t = 0.0;
  std::vector<double>& node_v = node_v_ws_;
  if (!breakpoints.empty() && breakpoints.front() > 0.0 && breakpoints.front() < options.tstop) {
    t = breakpoints.front();
    result.append(t, v0);
  }

  // Predictor: after the first accepted step, each step's Newton solve
  // starts from the linear extrapolation of the last two accepted states.
  std::vector<double>& x_try = step_x_try_ws_;
  std::vector<double>& x_prev = step_x_prev_ws_;
  x_try.resize(x.size());
  x_prev.assign(x.begin(), x.end());
  double h_prev = 0.0;  // last accepted step size; 0 until the first step
  while (t < options.tstop - 1e-18) {
    double h = std::min(options.dt, options.tstop - t);
    while (next_breakpoint < breakpoints.size() && breakpoints[next_breakpoint] <= t + 1e-18) {
      ++next_breakpoint;
    }
    if (next_breakpoint < breakpoints.size()) {
      const double to_corner = breakpoints[next_breakpoint] - t;
      if (to_corner > 1e-18 && to_corner < h) h = to_corner;
    }
    int halvings = 0;
    for (;;) {
      // Injected step collapse takes the same terminal path as exhausting
      // kMaxStepHalvings below: forensic event, then ConvergenceError.
      if (util::faultpoint::should_fire(util::faultpoint::sites::kTransientStepCollapse)) {
        if (util::trace::enabled()) {
          record_solver_forensic("transient_step_collapse", "fault_injected", x, t, h);
        }
        throw ConvergenceError("run_transient: Newton failed at t = " + std::to_string(t));
      }
      prepare_companions(h, options.method);
      const double ratio = h_prev > 0.0 ? h / h_prev : 0.0;
      for (std::size_t i = 0; i < x.size(); ++i) x_try[i] = x[i] + ratio * (x[i] - x_prev[i]);
      if (newton_solve(x_try, t + h, /*transient=*/true, kGmin, 1.0)) {
        x_prev.swap(x);
        x.swap(x_try);
        h_prev = h;
        t += h;
        fill_node_voltages(x, t, 1.0, node_v);
        if (!sens_.empty()) advance_sensitivities(/*transient=*/true, options.method, h);
        accept_step(node_v);
        m_transient_steps().add();
        break;
      }
      if (++halvings > kMaxStepHalvings) {
        // Terminal: the step-size control collapsed.  x is the last ACCEPTED
        // state; the history workspace holds the last failed Newton solve.
        if (util::trace::enabled()) {
          record_solver_forensic("transient_step_collapse", "step_halvings_exhausted", x, t, h);
        }
        throw ConvergenceError("run_transient: Newton failed at t = " + std::to_string(t));
      }
      m_step_rejections().add();
      h *= 0.5;
    }
    result.append(t, node_v);
    if (options.stop_condition && options.stop_condition(t, node_v)) {
      m_early_exits().add();
      if (span.traced()) span.attr_u64("early_exit", 1);
      break;
    }
  }
  if (span.traced()) {
    span.attr_u64("steps", result.steps());
    span.attr_f64("t_end", t);
  }
  for (const Sensitivity& s : sens_) {
    std::vector<double>& v = result.sensitivity_.emplace_back(node_count_, 0.0);
    for (std::size_t node = 0; node < node_count_; ++node) {
      const long r = row_[node];
      if (r >= 0) v[node] = s.x[static_cast<std::size_t>(r)];
    }
    if (s.pinned) v[static_cast<std::size_t>(s.node_id)] = 1.0;
  }
  return result;
}

}  // namespace issa::circuit
