#include "issa/core/guardband.hpp"

#include <cmath>

#include "issa/core/experiment.hpp"
#include "issa/mem/column.hpp"

namespace issa::core {

namespace {

// The worst unbalanced workload: the one a guardbanded design provisions for.
workload::Workload worst_workload() { return workload::workload_from_name("80r0"); }

double spec_at(sa::SenseAmpKind kind, double temperature_c, double time_s,
               const analysis::McConfig& mc) {
  return analysis::measure_offset_distribution(
             analysis::make_condition(kind, worst_workload(), time_s, 1.0, temperature_c), mc)
      .spec();
}

}  // namespace

GuardbandComparison compare_guardband_vs_mitigation(double temperature_c,
                                                    const analysis::McConfig& mc) {
  GuardbandComparison result;
  result.corner_temperature_c = temperature_c;
  // Each corner's spec and delay come from one pass over its samples.
  auto cell = [&](sa::SenseAmpKind kind, double time_s) {
    return analysis::measure_cell(
        analysis::make_condition(kind, worst_workload(), time_s, 1.0, temperature_c), mc);
  };
  const analysis::CellDistributions nssa_fresh = cell(sa::SenseAmpKind::kNssa, 0.0);
  const double lifetime_s = ExperimentRunner::kLifetime;
  const analysis::CellDistributions nssa_aged = cell(sa::SenseAmpKind::kNssa, lifetime_s);
  const analysis::CellDistributions issa_aged = cell(sa::SenseAmpKind::kIssa, lifetime_s);
  result.nssa_fresh_spec = nssa_fresh.offset.spec();
  result.nssa_aged_spec = nssa_aged.offset.spec();
  result.issa_aged_spec = issa_aged.offset.spec();

  const mem::ColumnReadPath path;
  const double vdd = sa::nominal_config().vdd;
  const double temp_k = util::celsius_to_kelvin(temperature_c);
  result.nssa_read_time =
      path.timing(result.nssa_aged_spec, nssa_aged.delay.summary.mean, vdd, temp_k).total();
  result.issa_read_time =
      path.timing(result.issa_aged_spec, issa_aged.delay.summary.mean, vdd, temp_k).total();
  result.fresh_read_time =
      path.timing(result.nssa_fresh_spec, nssa_fresh.delay.summary.mean, vdd, temp_k).total();
  return result;
}

double nssa_time_to_reach_issa_spec(double temperature_c, const analysis::McConfig& mc) {
  const double lifetime_s = ExperimentRunner::kLifetime;
  const double issa_budget = spec_at(sa::SenseAmpKind::kIssa, temperature_c, lifetime_s, mc);
  if (spec_at(sa::SenseAmpKind::kNssa, temperature_c, lifetime_s, mc) <= issa_budget) {
    return lifetime_s;
  }
  // Bisect in log time: the NSSA spec grows monotonically with stress.
  double lo = 1e2;
  double hi = lifetime_s;
  for (int iter = 0; iter < 24 && hi / lo > 1.1; ++iter) {
    const double mid = std::sqrt(lo * hi);
    if (spec_at(sa::SenseAmpKind::kNssa, temperature_c, mid, mc) > issa_budget) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return std::sqrt(lo * hi);
}

}  // namespace issa::core
