#include "issa/core/experiment.hpp"

#include <cmath>

#include "issa/util/units.hpp"

namespace issa::core {

ExperimentRunner::ExperimentRunner(analysis::McConfig mc) : mc_(std::move(mc)) {}

std::string ExperimentRunner::workload_label(sa::SenseAmpKind kind,
                                             const workload::Workload& workload,
                                             double stress_time_s) {
  if (stress_time_s <= 0.0) return "-";
  if (sa::is_switching_kind(kind)) {
    // An input-switching SA compiles all sequences of one activation rate
    // into the same balanced internal workload, so the paper reports just
    // the rate.
    const int rate = static_cast<int>(std::lround(workload.activation_rate * 100.0));
    return std::to_string(rate) + "%";
  }
  return workload.name();
}

ExperimentRow ExperimentRunner::run_cell(sa::SenseAmpKind kind,
                                         const workload::Workload& workload,
                                         double stress_time_s, double vdd_scale,
                                         double temperature_c) {
  ExperimentRow row;
  row.condition =
      analysis::make_condition(kind, workload, stress_time_s, vdd_scale, temperature_c);
  const auto [offsets, delays] = analysis::measure_cell(row.condition, mc_);
  row.workload_label = workload_label(kind, workload, stress_time_s);
  row.mu_mv = util::to_mV(offsets.summary.mean);
  row.sigma_mv = util::to_mV(offsets.summary.stddev);
  row.spec_mv = util::to_mV(offsets.spec());
  row.delay_ps = util::to_ps(delays.summary.mean);
  row.mc_iterations = mc_.iterations;
  row.quarantined =
      offsets.degradation.quarantined.size() + delays.degradation.quarantined.size();
  row.recovered = offsets.degradation.recovered + delays.degradation.recovered;
  return row;
}

std::vector<ExperimentRow> ExperimentRunner::table2_workload() {
  std::vector<ExperimentRow> rows;
  const auto fresh = workload::workload_from_name("80r0r1");  // unused at t=0
  rows.push_back(run_cell(sa::SenseAmpKind::kNssa, fresh, 0.0, 1.0, 25.0));
  for (const auto& w : workload::paper_workloads()) {
    rows.push_back(run_cell(sa::SenseAmpKind::kNssa, w, kLifetime, 1.0, 25.0));
  }
  rows.push_back(run_cell(sa::SenseAmpKind::kIssa, fresh, 0.0, 1.0, 25.0));
  rows.push_back(
      run_cell(sa::SenseAmpKind::kIssa, workload::workload_from_name("80r0"), kLifetime, 1.0, 25.0));
  rows.push_back(
      run_cell(sa::SenseAmpKind::kIssa, workload::workload_from_name("20r0"), kLifetime, 1.0, 25.0));
  return rows;
}

std::vector<ExperimentRow> ExperimentRunner::table3_voltage() {
  return corner_sweep({{0.9, 25.0}, {1.1, 25.0}});
}

std::vector<ExperimentRow> ExperimentRunner::table4_temperature() {
  return corner_sweep({{1.0, 75.0}, {1.0, 125.0}});
}

std::vector<ExperimentRow> ExperimentRunner::corner_sweep(const std::vector<Corner>& corners) {
  std::vector<ExperimentRow> rows;
  auto sweep = [&](sa::SenseAmpKind kind, const workload::Workload& w, double stress_time_s) {
    for (const Corner& c : corners) {
      rows.push_back(run_cell(kind, w, stress_time_s, c.vdd_scale, c.temperature_c));
    }
  };
  const auto fresh = workload::workload_from_name("80r0r1");
  sweep(sa::SenseAmpKind::kNssa, fresh, 0.0);
  for (const auto& w : workload::paper_workloads_80()) {
    sweep(sa::SenseAmpKind::kNssa, w, kLifetime);
  }
  sweep(sa::SenseAmpKind::kIssa, fresh, 0.0);
  sweep(sa::SenseAmpKind::kIssa, workload::workload_from_name("80r0"), kLifetime);
  return rows;
}

std::vector<DelayAgingSeries> ExperimentRunner::fig7_delay_vs_aging(
    const std::vector<double>& times_s) {
  std::vector<double> times = times_s;
  if (times.empty()) times = {0.0, 1e4, 1e5, 1e6, 1e7, 3e7, 1e8};

  struct SeriesDef {
    sa::SenseAmpKind kind;
    const char* workload;
    const char* label;
  };
  const SeriesDef defs[] = {
      {sa::SenseAmpKind::kNssa, "80r0", "NSSA 80r0"},
      {sa::SenseAmpKind::kNssa, "80r0r1", "NSSA 80r0r1"},
      {sa::SenseAmpKind::kIssa, "80r0", "ISSA 80%"},
  };

  std::vector<DelayAgingSeries> result;
  for (const auto& def : defs) {
    DelayAgingSeries series;
    series.label = def.label;
    const auto w = workload::workload_from_name(def.workload);
    for (const double t : times) {
      const analysis::DelayDistribution delays = analysis::measure_delay_distribution(
          analysis::make_condition(def.kind, w, t, 1.0, 125.0), mc_);
      series.times_s.push_back(t);
      series.delays_ps.push_back(util::to_ps(delays.summary.mean));
      series.quarantined += delays.degradation.quarantined.size();
      series.recovered += delays.degradation.recovered;
    }
    result.push_back(std::move(series));
  }
  return result;
}

}  // namespace issa::core
