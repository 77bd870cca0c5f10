#include "issa/core/experiment.hpp"

#include <cmath>
#include <sstream>

#include "issa/util/trace.hpp"
#include "issa/util/units.hpp"

namespace issa::core {

std::string ExperimentRow::condition_label() const {
  std::ostringstream os;
  os << scheme << "/" << workload_label << (stress_time_s > 0 ? "@1e8s" : "@0s");
  os.precision(2);
  os << std::fixed << " vdd=" << vdd << " T=" << static_cast<int>(temperature_c);
  return os.str();
}

ExperimentRunner::ExperimentRunner(analysis::McConfig mc) : mc_(std::move(mc)) {}

std::string ExperimentRunner::workload_label(sa::SenseAmpKind kind,
                                             const workload::Workload& workload,
                                             double stress_time_s) {
  if (stress_time_s <= 0.0) return "-";
  if (kind == sa::SenseAmpKind::kIssa) {
    // The ISSA compiles all sequences of one activation rate into the same
    // balanced internal workload, so the paper reports just the rate.
    const int rate = static_cast<int>(std::lround(workload.activation_rate * 100.0));
    return std::to_string(rate) + "%";
  }
  return workload.name();
}

analysis::Condition ExperimentRunner::make_condition(sa::SenseAmpKind kind,
                                                     const workload::Workload& workload,
                                                     double stress_time_s, double vdd_scale,
                                                     double temperature_c) const {
  analysis::Condition c;
  c.kind = kind;
  c.config = sa::nominal_config();
  c.config.vdd *= vdd_scale;
  c.config.temperature_c = temperature_c;
  c.workload = workload;
  c.stress_time_s = stress_time_s;
  return c;
}

ExperimentRow ExperimentRunner::run_cell(sa::SenseAmpKind kind,
                                         const workload::Workload& workload,
                                         double stress_time_s, double vdd_scale,
                                         double temperature_c) {
  const analysis::Condition condition =
      make_condition(kind, workload, stress_time_s, vdd_scale, temperature_c);

  util::trace::Span span(util::trace::spans::kExperimentCell, "experiment");
  if (span.traced()) {
    span.attr_str("scheme", kind == sa::SenseAmpKind::kNssa ? "NSSA" : "ISSA");
    span.attr_str("workload", workload_label(kind, workload, stress_time_s));
    span.attr_f64("vdd", condition.config.vdd);
    span.attr_f64("temperature_c", temperature_c);
    span.attr_f64("stress_time_s", stress_time_s);
  }

  // Scoped snapshot: the cell's report shows only the work this cell did.
  const util::metrics::Snapshot before =
      util::metrics::enabled() ? util::metrics::Registry::instance().snapshot()
                               : util::metrics::Snapshot{};

  const analysis::OffsetDistribution offsets =
      analysis::measure_offset_distribution(condition, mc_);
  const analysis::DelayDistribution delays = analysis::measure_delay_distribution(condition, mc_);

  ExperimentRow row;
  if (util::metrics::enabled()) {
    row.metrics = util::metrics::Registry::instance().snapshot().delta_since(before);
  }
  row.scheme = kind == sa::SenseAmpKind::kNssa ? "NSSA" : "ISSA";
  row.stress_time_s = stress_time_s;
  row.workload_label = workload_label(kind, workload, stress_time_s);
  row.vdd = condition.config.vdd;
  row.temperature_c = temperature_c;
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
  std::vector<ExperimentRow> rows;
  const auto fresh = workload::workload_from_name("80r0r1");
  for (const double scale : {0.9, 1.1}) {
    rows.push_back(run_cell(sa::SenseAmpKind::kNssa, fresh, 0.0, scale, 25.0));
  }
  for (const auto& w : workload::paper_workloads_80()) {
    for (const double scale : {0.9, 1.1}) {
      rows.push_back(run_cell(sa::SenseAmpKind::kNssa, w, kLifetime, scale, 25.0));
    }
  }
  for (const double scale : {0.9, 1.1}) {
    rows.push_back(run_cell(sa::SenseAmpKind::kIssa, fresh, 0.0, scale, 25.0));
  }
  for (const double scale : {0.9, 1.1}) {
    rows.push_back(run_cell(sa::SenseAmpKind::kIssa, workload::workload_from_name("80r0"),
                            kLifetime, scale, 25.0));
  }
  return rows;
}

std::vector<ExperimentRow> ExperimentRunner::table4_temperature() {
  std::vector<ExperimentRow> rows;
  const auto fresh = workload::workload_from_name("80r0r1");
  for (const double temp : {75.0, 125.0}) {
    rows.push_back(run_cell(sa::SenseAmpKind::kNssa, fresh, 0.0, 1.0, temp));
  }
  for (const auto& w : workload::paper_workloads_80()) {
    for (const double temp : {75.0, 125.0}) {
      rows.push_back(run_cell(sa::SenseAmpKind::kNssa, w, kLifetime, 1.0, temp));
    }
  }
  for (const double temp : {75.0, 125.0}) {
    rows.push_back(run_cell(sa::SenseAmpKind::kIssa, fresh, 0.0, 1.0, temp));
  }
  for (const double temp : {75.0, 125.0}) {
    rows.push_back(run_cell(sa::SenseAmpKind::kIssa, workload::workload_from_name("80r0"),
                            kLifetime, 1.0, temp));
  }
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
      const analysis::Condition condition = make_condition(def.kind, w, t, 1.0, 125.0);
      const analysis::DelayDistribution delays =
          analysis::measure_delay_distribution(condition, mc_);
      series.times_s.push_back(t);
      series.delays_ps.push_back(util::to_ps(delays.summary.mean));
    }
    result.push_back(std::move(series));
  }
  return result;
}

}  // namespace issa::core
