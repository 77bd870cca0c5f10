// Aging study: how does the offset-voltage specification of a read-intensive,
// zero-heavy workload (80r0) evolve over a 1e8 s lifetime, with and without
// input switching?
//
//   $ ./aging_study [--mc=N] [--temp=C] [--csv=path]
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "issa/analysis/montecarlo.hpp"
#include "issa/util/cli.hpp"
#include "issa/util/csv.hpp"
#include "issa/util/table.hpp"
#include "issa/util/units.hpp"

int main(int argc, char** argv) {
  using namespace issa;
  const util::Options options(argc, argv, {"mc=N", "temp=C", "csv=path"});

  analysis::McConfig mc;
  mc.iterations = options.get_count_or("mc", 80);
  // Every distribution reports a standard deviation, which takes two samples.
  if (mc.iterations < 2) {
    options.fail("--mc needs at least 2 samples: " + std::to_string(mc.iterations));
  }
  const double temp_c = options.get_double_or("temp", 25.0);
  if (!(temp_c > -273.15)) {
    options.fail("--temp must be above -273.15 C: " + *options.get_string("temp"));
  }

  analysis::Condition condition;
  condition.config = sa::nominal_config();
  condition.config.temperature_c = temp_c;
  condition.workload = workload::workload_from_name("80r0");

  std::printf("Aging study: 80r0 workload at %.0f C, %zu Monte-Carlo samples per point\n\n",
              temp_c, mc.iterations);

  const std::vector<double> times = {0.0, 1e5, 1e6, 1e7, 1e8};
  util::AsciiTable table({"time (s)", "NSSA mu (mV)", "NSSA spec (mV)", "ISSA mu (mV)",
                          "ISSA spec (mV)", "spec reduction"});

  std::vector<std::vector<double>> csv_rows;
  for (const double t : times) {
    condition.stress_time_s = t;
    condition.kind = sa::SenseAmpKind::kNssa;
    const auto nssa = analysis::measure_offset_distribution(condition, mc);
    condition.kind = sa::SenseAmpKind::kIssa;
    const auto issa = analysis::measure_offset_distribution(condition, mc);
    const double reduction = 1.0 - issa.spec() / nssa.spec();
    table.add_row({t == 0.0 ? "0" : util::AsciiTable::num(t, 0),
                   util::AsciiTable::num(util::to_mV(nssa.summary.mean), 2),
                   util::AsciiTable::num(util::to_mV(nssa.spec()), 1),
                   util::AsciiTable::num(util::to_mV(issa.summary.mean), 2),
                   util::AsciiTable::num(util::to_mV(issa.spec()), 1),
                   util::AsciiTable::num(100.0 * reduction, 1) + "%"});
    csv_rows.push_back({t, util::to_mV(nssa.summary.mean), util::to_mV(nssa.spec()),
                        util::to_mV(issa.summary.mean), util::to_mV(issa.spec())});
  }
  table.print(std::cout);

  if (const auto path = options.get_string("csv")) {
    util::CsvWriter csv(*path, {"time_s", "nssa_mu_mv", "nssa_spec_mv", "issa_mu_mv",
                                "issa_spec_mv"});
    for (const auto& row : csv_rows) csv.add_row(row);
    std::printf("\nwrote %s\n", path->c_str());
  }

  std::printf(
      "\nThe NSSA's mean drifts with the unbalanced workload and drags the 6.1-sigma\n"
      "spec with it; the ISSA's periodic input swap keeps the mean pinned near zero,\n"
      "so its spec only grows through the (mild, workload-independent) sigma growth.\n");
  return 0;
}
