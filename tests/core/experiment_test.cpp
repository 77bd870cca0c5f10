#include "issa/core/experiment.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "issa/util/metrics.hpp"
#include "issa/util/trace.hpp"

namespace issa::core {
namespace {

analysis::McConfig tiny_mc() {
  analysis::McConfig mc;
  mc.iterations = 16;
  mc.seed = 42;
  return mc;
}

TEST(Experiment, WorkloadLabels) {
  const auto w80r0 = workload::workload_from_name("80r0");
  const auto w20 = workload::workload_from_name("20r0r1");
  EXPECT_EQ(ExperimentRunner::workload_label(sa::SenseAmpKind::kNssa, w80r0, 0.0), "-");
  EXPECT_EQ(ExperimentRunner::workload_label(sa::SenseAmpKind::kNssa, w80r0, 1e8), "80r0");
  EXPECT_EQ(ExperimentRunner::workload_label(sa::SenseAmpKind::kIssa, w80r0, 1e8), "80%");
  EXPECT_EQ(ExperimentRunner::workload_label(sa::SenseAmpKind::kIssa, w20, 1e8), "20%");
  // The double-tail SAs follow the same rule: the switching one reports the rate.
  EXPECT_EQ(ExperimentRunner::workload_label(sa::SenseAmpKind::kDoubleTail, w80r0, 1e8), "80r0");
  EXPECT_EQ(ExperimentRunner::workload_label(sa::SenseAmpKind::kDoubleTailSwitching, w80r0, 1e8),
            "80%");
}

TEST(Experiment, FreshCellMatchesCalibration) {
  ExperimentRunner runner(tiny_mc());
  const ExperimentRow row = runner.run_cell(
      sa::SenseAmpKind::kNssa, workload::workload_from_name("80r0r1"), 0.0, 1.0, 25.0);
  EXPECT_EQ(row.condition.kind, sa::SenseAmpKind::kNssa);
  EXPECT_EQ(row.workload_label, "-");
  EXPECT_EQ(row.mc_iterations, 16u);
  // Loose bands (16 samples): sigma near 14.8 mV, delay near 13.9 ps.
  EXPECT_GT(row.sigma_mv, 7.0);
  EXPECT_LT(row.sigma_mv, 26.0);
  EXPECT_GT(row.delay_ps, 10.0);
  EXPECT_LT(row.delay_ps, 18.0);
  EXPECT_GT(row.spec_mv, 5.0 * row.sigma_mv);
}

TEST(Experiment, AgedUnbalancedCellShiftsMean) {
  ExperimentRunner runner(tiny_mc());
  const ExperimentRow row = runner.run_cell(
      sa::SenseAmpKind::kNssa, workload::workload_from_name("80r0"), 1e8, 1.0, 25.0);
  EXPECT_GT(row.mu_mv, 5.0);
  EXPECT_EQ(row.workload_label, "80r0");
  EXPECT_DOUBLE_EQ(row.condition.stress_time_s, 1e8);
  EXPECT_EQ(row.condition.workload, workload::workload_from_name("80r0"));
}

TEST(Experiment, RunCellVisitsEachSampleOnce) {
  // A cell's offset and delay come from one pass over its samples: one
  // stress map, one visit (and so at most one build) per sample.
  namespace metrics = util::metrics;
  ExperimentRunner runner(tiny_mc());
  metrics::set_enabled(true);
  const metrics::Snapshot before = metrics::Registry::instance().snapshot();
  const std::uint64_t maps = analysis::condition_stress_map_builds();
  runner.run_cell(sa::SenseAmpKind::kIssa, workload::workload_from_name("80r0"), 1e8, 1.0, 25.0);
  const metrics::Snapshot delta = metrics::Registry::instance().snapshot().delta_since(before);
  metrics::set_enabled(false);
  EXPECT_EQ(analysis::condition_stress_map_builds() - maps, 1u);
  EXPECT_EQ(delta.value(metrics::names::kMcSamples), 16u);
  const metrics::SnapshotEntry* samples = delta.find(util::trace::spans::kMcSample);
  ASSERT_NE(samples, nullptr);
  EXPECT_EQ(samples->count, 16u);
}

TEST(Experiment, VddScaleAndTemperatureLand) {
  ExperimentRunner runner(tiny_mc());
  const ExperimentRow row = runner.run_cell(
      sa::SenseAmpKind::kIssa, workload::workload_from_name("80r0"), 0.0, 1.1, 75.0);
  EXPECT_DOUBLE_EQ(row.condition.config.vdd, 1.1);
  EXPECT_DOUBLE_EQ(row.condition.config.temperature_c, 75.0);
  EXPECT_EQ(row.condition.kind, sa::SenseAmpKind::kIssa);
}

TEST(Experiment, Fig7SeriesShape) {
  ExperimentRunner runner(tiny_mc());
  const auto series = runner.fig7_delay_vs_aging({0.0, 1e8});
  ASSERT_EQ(series.size(), 3u);
  EXPECT_EQ(series[0].label, "NSSA 80r0");
  EXPECT_EQ(series[2].label, "ISSA 80%");
  for (const auto& s : series) {
    ASSERT_EQ(s.times_s.size(), 2u);
    ASSERT_EQ(s.delays_ps.size(), 2u);
    // Aging at 125 C makes everything slower.
    EXPECT_GT(s.delays_ps[1], s.delays_ps[0]);
  }
}

}  // namespace
}  // namespace issa::core
