// Ablations of the methodology choices DESIGN.md calls out:
//  1. offset measurement: transient binary search (the paper's method) vs
//     the fast path's one probe with its split sensitivity, the first-order
//     DC estimator and the linear offset model that warm-starts the fast
//     path — accuracy and cost;
//  2. transient integration: trapezoidal vs backward Euler — delay accuracy
//     vs timestep, and the offset distribution on the default step against
//     the half step;
//  3. occupancy statistics: Bernoulli-sampled atomistic aging (the paper's
//     model) vs expected-value aging — what the distribution loses.
//
// Usage: bench_ablation_methods [--mc=N] [--seed=S] [--cache[=dir]]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <iostream>

#include "bench_common.hpp"
#include "issa/aging/bti_model.hpp"
#include "issa/aging/hci.hpp"
#include "issa/util/statistics.hpp"
#include "issa/util/table.hpp"
#include "issa/workload/hci_map.hpp"
#include "issa/workload/stress_map.hpp"

using namespace issa;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  core::RunContext run(argc, argv, "bench_ablation_methods");
  const analysis::McConfig mc = run.mc();
  const std::size_t n = std::min<std::size_t>(mc.iterations, 100);

  // --- 1. offset search method ------------------------------------------------
  std::cout << "### Ablation 1: transient binary search vs offset estimators (" << n
            << " aged samples)\n\n";
  analysis::Condition cond;
  cond.kind = sa::SenseAmpKind::kNssa;
  cond.config = sa::nominal_config();
  cond.workload = workload::workload_from_name("80r0");
  cond.stress_time_s = 1e8;

  // The model is fitted once, outside the per-sample timings (the transient
  // search would otherwise pay for it on its first sample).
  const sa::OffsetModel& model = sa::offset_model(cond.kind, cond.config);
  struct Estimator {
    Estimator(const char* n, std::function<double(const sa::SenseAmpCircuit&)> f)
        : name(n), estimate(std::move(f)) {}
    const char* name;
    std::function<double(const sa::SenseAmpCircuit&)> estimate;
    util::RunningStats values, errors;
    double seconds = 0.0;
  };
  Estimator estimators[] = {
      {"DC first-order estimate", sa::estimate_offset_dc},
      {"linear offset model (warm start)",
       [&model](const sa::SenseAmpCircuit& c) { return model.predict(c); }}};
  // The paper's method is the robust profile's full-window bisection; the
  // fast path reads the flip off one probe's split sensitivity.
  util::RunningStats meas_stats, fast_stats, fast_errors;
  double t_transient = 0.0;
  double t_fast = 0.0;
  double fast_worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    auto circuit = analysis::build_sample(cond, mc, i);
    double t0 = now_seconds();
    const double measured = sa::measure_offset(circuit, {.robust = true}).offset;
    t_transient += now_seconds() - t0;
    meas_stats.add(measured * 1e3);
    t0 = now_seconds();
    const double fast = sa::measure_offset(circuit).offset;
    t_fast += now_seconds() - t0;
    fast_stats.add(fast * 1e3);
    fast_errors.add((fast - measured) * 1e3);
    fast_worst = std::max(fast_worst, std::fabs(fast - measured) * 1e3);
    for (Estimator& e : estimators) {
      t0 = now_seconds();
      const double estimated = e.estimate(circuit);
      e.seconds += now_seconds() - t0;
      e.values.add(estimated * 1e3);
      e.errors.add((estimated - measured) * 1e3);
    }
  }
  util::AsciiTable ab1({"method", "mu (mV)", "sigma (mV)", "time/sample (us)"});
  ab1.add_row({"transient bisection (paper)", util::AsciiTable::num(meas_stats.mean(), 2),
               util::AsciiTable::num(meas_stats.stddev(), 2),
               util::AsciiTable::num(1e6 * t_transient / static_cast<double>(n), 0)});
  ab1.add_row({"one probe + sensitivity (fast path)", util::AsciiTable::num(fast_stats.mean(), 2),
               util::AsciiTable::num(fast_stats.stddev(), 2),
               util::AsciiTable::num(1e6 * t_fast / static_cast<double>(n), 0)});
  for (const Estimator& e : estimators) {
    ab1.add_row({e.name, util::AsciiTable::num(e.values.mean(), 2),
                 util::AsciiTable::num(e.values.stddev(), 2),
                 util::AsciiTable::num(1e6 * e.seconds / static_cast<double>(n), 2)});
  }
  std::cout << ab1 << "\n";
  // The bisection reports the midpoint of a 50 uV bracket, so this error is
  // mostly the bisection's own: uniform within +/-25 uV.
  std::cout << "one probe + sensitivity error vs transient: mean "
            << util::AsciiTable::num(fast_errors.mean(), 4) << " mV, sigma "
            << util::AsciiTable::num(fast_errors.stddev(), 4) << " mV, worst "
            << util::AsciiTable::num(fast_worst, 4) << " mV\n";
  for (const Estimator& e : estimators) {
    std::cout << e.name << " error vs transient: mean "
              << util::AsciiTable::num(e.errors.mean(), 2) << " mV, sigma "
              << util::AsciiTable::num(e.errors.stddev(), 2) << " mV\n";
  }
  std::cout << "-> estimates are good for screening and for placing the first probe, not "
               "for the spec itself.\n\n";

  // --- 2. integration method ---------------------------------------------------
  std::cout << "### Ablation 2: trapezoidal vs backward Euler sensing delay\n\n";
  util::AsciiTable ab2({"method", "dt (ps)", "delay (ps)"});
  for (const auto method : {circuit::IntegrationMethod::kTrapezoidal,
                            circuit::IntegrationMethod::kBackwardEuler}) {
    for (const double dt_ps : {0.4, 0.2, 0.1, 0.05}) {
      sa::SenseAmpConfig cfg = sa::nominal_config();
      cfg.timing.dt = dt_ps * 1e-12;
      auto circuit = sa::build_nssa(cfg);
      // run_sense uses trapezoidal internally; drive the simulator directly
      // to select the method.
      circuit.set_input_differential(0.1);
      issa::circuit::Simulator sim(circuit.netlist(), cfg.temperature_k());
      circuit::TransientOptions opt;
      opt.tstop = cfg.timing.t_stop;
      opt.dt = cfg.timing.dt;
      opt.method = method;
      opt.dc_guess = circuit.dc_guess(0.1);
      const auto tr = sim.run_transient(opt);
      const double t_enable = cfg.timing.t_fire + 0.5 * cfg.timing.t_rise;
      const auto cross = tr.crossing_time(circuit.node_out(), 0.5 * cfg.vdd, true, t_enable);
      ab2.add_row({method == circuit::IntegrationMethod::kTrapezoidal ? "trapezoidal" : "BE",
                   util::AsciiTable::num(dt_ps, 2),
                   cross ? util::AsciiTable::num((*cross - t_enable) * 1e12, 3) : "-"});
    }
  }
  std::cout << ab2 << "\n";

  // The offset distribution of Ablation 1's aged samples, measured on the
  // default grid there, against the half-step grid.
  analysis::Condition half_step = cond;
  half_step.config.timing.dt *= 0.5;
  util::RunningStats half_step_stats;
  for (std::size_t i = 0; i < n; ++i) {
    auto circuit = analysis::build_sample(half_step, mc, i);
    half_step_stats.add(sa::measure_offset(circuit).offset * 1e3);
  }
  util::AsciiTable ab2_offset({"trapezoidal dt (ps)", "offset mu (mV)", "offset sigma (mV)"});
  auto offset_row = [&](const sa::SenseAmpConfig& config, const util::RunningStats& stats) {
    ab2_offset.add_row({util::AsciiTable::num(config.timing.dt * 1e12, 2),
                        util::AsciiTable::num(stats.mean(), 4),
                        util::AsciiTable::num(stats.stddev(), 4)});
  };
  offset_row(cond.config, fast_stats);
  offset_row(half_step.config, half_step_stats);
  std::cout << "Offsets of the " << n << " aged samples of Ablation 1:\n\n"
            << ab2_offset
            << "\nTrapezoidal is converged at the default dt = 0.2 ps: halving the step moves\n"
               "the delay by a few fs and the offset mu and sigma by a few uV, below the last\n"
               "digit of Tables II-IV and Fig. 7.  Backward Euler needs a finer step for the\n"
               "same accuracy because its numerical damping slows the regeneration\n"
               "artificially.\n\n";

  // --- 3. occupancy statistics ---------------------------------------------------
  std::cout << "### Ablation 3: sampled (atomistic) vs expected-value aging (" << n
            << " samples)\n\n";
  const auto map = workload::nssa_stress_map(cond.workload, cond.config.vdd);
  device::MosInstance inst;
  inst.card = cond.config.nmos;
  inst.type = device::MosType::kNmos;
  inst.w_over_l = cond.config.sizing.mdown_wl;
  const auto& profile = map.at("Mdown");
  util::RunningStats sampled;
  for (std::size_t i = 0; i < n * 10; ++i) {
    sampled.add(
        aging::sample_bti_shift(mc.bti, inst, profile, 1e8, cond.config.temperature_k(), i) * 1e3);
  }
  const double expected =
      aging::expected_bti_shift(mc.bti, inst, profile, 1e8, cond.config.temperature_k()) * 1e3;
  const double pred_sd =
      aging::bti_shift_stddev(mc.bti, inst, profile, 1e8, cond.config.temperature_k()) * 1e3;
  util::AsciiTable ab3({"statistic", "sampled", "expected-value model"});
  ab3.add_row({"Mdown mean shift (mV)", util::AsciiTable::num(sampled.mean(), 2),
               util::AsciiTable::num(expected, 2)});
  ab3.add_row({"Mdown shift sigma (mV)", util::AsciiTable::num(sampled.stddev(), 2),
               util::AsciiTable::num(pred_sd, 2) + " (quadrature)"});
  std::cout << ab3 << "\nAn expected-value model reproduces the mean but has zero variance, so\n"
               "it would miss the sigma growth of the aged distributions (Tables II-IV) —\n"
               "the atomistic sampling is what makes the 6.1-sigma spec move correctly.\n\n";

  // --- 4. aging mechanism mix -----------------------------------------------
  std::cout << "### Ablation 4: BTI only (the paper's model) vs BTI + HCI (" << n
            << " samples, 1 GHz read clock)\n\n";
  const auto hci_toggles = workload::sa_toggles_per_read(false);
  util::RunningStats bti_only;
  util::RunningStats bti_hci;
  util::RunningStats delay_bti;
  util::RunningStats delay_both;
  for (std::size_t i = 0; i < n; ++i) {
    auto circuit = analysis::build_sample(cond, mc, i);
    bti_only.add(sa::measure_offset(circuit).offset * 1e3);
    delay_bti.add(sa::measure_delay(circuit).worst() * 1e12);
    workload::apply_hci_aging(circuit.netlist(), aging::default_hci(), hci_toggles,
                              cond.workload, 1e9, cond.stress_time_s, cond.config.vdd,
                              cond.config.temperature_k());
    bti_hci.add(sa::measure_offset(circuit).offset * 1e3);
    delay_both.add(sa::measure_delay(circuit).worst() * 1e12);
  }
  util::AsciiTable ab4({"model", "offset mu (mV)", "offset sigma (mV)", "worst delay (ps)"});
  ab4.add_row({"BTI only (paper)", util::AsciiTable::num(bti_only.mean(), 2),
               util::AsciiTable::num(bti_only.stddev(), 2),
               util::AsciiTable::num(delay_bti.mean(), 2)});
  ab4.add_row({"BTI + HCI", util::AsciiTable::num(bti_hci.mean(), 2),
               util::AsciiTable::num(bti_hci.stddev(), 2),
               util::AsciiTable::num(delay_both.mean(), 2)});
  std::cout << ab4 << "\nHCI switches symmetrically on both latch sides: it adds a little delay\n"
               "but leaves the offset mean nearly untouched — supporting the paper's choice\n"
               "to model BTI as the dominant SA aging mechanism.\n";
  return 0;
}
