// Calibration harness: prints every DESIGN.md section-5 anchor next to its
// paper target.  Used when retuning the device cards (delay anchors), the
// Pelgrom coefficients (t = 0 sigma), or the BTI parameters (aged mu/sigma).
// Each anchor is one Monte-Carlo distribution of the engine the benches use;
// a delay anchor is the mean of each sample's slower read direction, the
// delay of Tables II-IV.
//
//   $ ./issa_calibrate [--mc=N] [--seed=S] [--cache[=dir]] ...   (the run flags)
#include <cstdio>

#include "issa/analysis/montecarlo.hpp"
#include "issa/core/run_context.hpp"
#include "issa/util/units.hpp"

using namespace issa;

namespace {

using analysis::make_condition;
using sa::SenseAmpKind;

// The workload of a fresh anchor: it ages nothing, but the sample cache keys
// the cell by it.
const workload::Workload kFresh{};

void print_offset(const char* label, const analysis::OffsetDistribution& d, const char* paper) {
  std::printf("%s: mu=%.2f sigma=%.2f mV (paper %s)\n", label, util::to_mV(d.summary.mean),
              util::to_mV(d.summary.stddev), paper);
}

void print_delay(const char* label, const analysis::DelayDistribution& d, double paper_ps) {
  std::printf("%s: %.2f ps (paper %.1f)\n", label, util::to_ps(d.summary.mean), paper_ps);
}

void calibrate(const analysis::McConfig& mc) {
  std::printf("Calibration anchors, MC = %zu\n\n", mc.iterations);

  // t = 0: the Pelgrom coefficients and the device cards.
  const auto nssa = analysis::measure_cell(make_condition(SenseAmpKind::kNssa, kFresh, 0.0), mc);
  print_offset("NSSA t=0 offset", nssa.offset, "0.1 / 14.8");
  print_delay("NSSA t=0 delay 1.0V/25C", nssa.delay, 13.6);
  const struct {
    const char* label;
    double vdd_scale, temperature_c, paper_ps;
  } corners[] = {{"NSSA t=0 delay 0.9V", 0.9, 25.0, 17.2},
                 {"NSSA t=0 delay 1.1V", 1.1, 25.0, 11.3},
                 {"NSSA t=0 delay 75C", 1.0, 75.0, 17.1},
                 {"NSSA t=0 delay 125C", 1.0, 125.0, 21.3}};
  for (const auto& c : corners) {
    const analysis::Condition cell =
        make_condition(SenseAmpKind::kNssa, kFresh, 0.0, c.vdd_scale, c.temperature_c);
    print_delay(c.label, analysis::measure_delay_distribution(cell, mc), c.paper_ps);
  }
  const auto issa = analysis::measure_cell(make_condition(SenseAmpKind::kIssa, kFresh, 0.0), mc);
  print_offset("ISSA t=0 offset", issa.offset, "0.1 / 14.7");
  print_delay("ISSA t=0 delay", issa.delay, 13.9);

  // 1e8 s: the BTI parameters.
  const struct {
    const char* label;
    SenseAmpKind kind;
    const char* workload;
    double vdd_scale, temperature_c;
    const char* paper;
  } aged[] = {{"NSSA 80r0 25C", SenseAmpKind::kNssa, "80r0", 1.0, 25.0, "17.3 / 15.7"},
              {"NSSA 80r0r1 25C", SenseAmpKind::kNssa, "80r0r1", 1.0, 25.0, "-0.2 / 16.2"},
              {"NSSA 20r0 25C", SenseAmpKind::kNssa, "20r0", 1.0, 25.0, "12.8 / 15.6"},
              {"NSSA 80r0 125C", SenseAmpKind::kNssa, "80r0", 1.0, 125.0, "79.1 / 17.9"},
              {"NSSA 80r0 +10% Vdd", SenseAmpKind::kNssa, "80r0", 1.1, 25.0, "27.3 / 16.2"},
              {"ISSA 80% 25C", SenseAmpKind::kIssa, "80r0", 1.0, 25.0, "-0.2 / 16.1"}};
  for (const auto& a : aged) {
    const analysis::Condition cell = make_condition(
        a.kind, workload::workload_from_name(a.workload), 1e8, a.vdd_scale, a.temperature_c);
    print_offset(a.label, analysis::measure_offset_distribution(cell, mc), a.paper);
  }
}

}  // namespace

int main(int argc, char** argv) {
  core::RunContext run(argc, argv, "issa_calibrate");
  return run.guard([&] { calibrate(run.mc()); });
}
