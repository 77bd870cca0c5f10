// Aging study: how does the offset-voltage specification of a read-intensive,
// zero-heavy workload (80r0) evolve over a 1e8 s lifetime, with and without
// input switching?
//
//   $ ./aging_study [--temp=C] [--csv=path] [--mc=N] [--seed=S] ...   (the run flags)
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "issa/analysis/montecarlo.hpp"
#include "issa/core/run_context.hpp"
#include "issa/util/csv.hpp"
#include "issa/util/table.hpp"
#include "issa/util/units.hpp"

int main(int argc, char** argv) {
  using namespace issa;
  core::RunContext run(argc, argv, "aging_study", {"temp=C", "csv=path"});
  const util::Options& options = run.options();
  const analysis::McConfig& mc = run.mc();
  const double temp_c = options.get_double_or("temp", 25.0);
  if (!(temp_c > -273.15)) {
    options.fail("--temp must be above -273.15 C: " + *options.get_string("temp"));
  }

  return run.guard([&] {
    const workload::Workload w80r0 = workload::workload_from_name("80r0");
    std::printf("Aging study: 80r0 workload at %.0f C, %zu Monte-Carlo samples per point\n\n",
                temp_c, mc.iterations);

    const std::vector<double> times = {0.0, 1e5, 1e6, 1e7, 1e8};
    util::AsciiTable table({"time (s)", "NSSA mu (mV)", "NSSA spec (mV)", "ISSA mu (mV)",
                            "ISSA spec (mV)", "spec reduction"});

    std::vector<std::vector<double>> csv_rows;
    for (const double t : times) {
      const auto nssa = analysis::measure_offset_distribution(
          analysis::make_condition(sa::SenseAmpKind::kNssa, w80r0, t, 1.0, temp_c), mc);
      const auto issa = analysis::measure_offset_distribution(
          analysis::make_condition(sa::SenseAmpKind::kIssa, w80r0, t, 1.0, temp_c), mc);
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
  });
}
