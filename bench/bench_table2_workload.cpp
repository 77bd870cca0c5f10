// Reproduces Table II / Fig. 4: workload impact on offset voltage and delay
// at nominal Vdd (1.0 V) and 25 C, t = 0 and t = 1e8 s.
//
// Usage: bench_table2_workload [--mc=N] [--seed=S] [--csv=path] [--cache[=dir]]
#include <iostream>

#include "bench_common.hpp"
#include "issa/util/csv.hpp"

using namespace issa;

int main(int argc, char** argv) {
  core::RunContext run(argc, argv, "bench_table2_workload", {"csv=path"});
  core::ExperimentRunner runner(run.mc());

  std::cout << "Reproducing Table II / Fig. 4 (workload impact), MC = "
            << runner.mc().iterations << " iterations\n\n";

  const auto rows = runner.table2_workload();
  run.attach_rows(rows);

  // Paper Table II reference values in the same row order.
  const std::vector<std::optional<bench::PaperRow>> paper = {
      bench::PaperRow{0.1, 14.8, 90.2, 13.6},    // NSSA t=0
      bench::PaperRow{-0.2, 16.2, 99.0, 14.2},   // NSSA 80r0r1
      bench::PaperRow{17.3, 15.7, 111.5, 14.3},  // NSSA 80r0
      bench::PaperRow{-17.2, 15.6, 110.6, 14.0}, // NSSA 80r1
      bench::PaperRow{-0.08, 15.9, 97.2, 14.1},  // NSSA 20r0r1
      bench::PaperRow{12.8, 15.6, 106.3, 14.2},  // NSSA 20r0
      bench::PaperRow{-12.7, 15.5, 105.5, 14.0}, // NSSA 20r1
      bench::PaperRow{0.1, 14.7, 89.9, 13.9},    // ISSA t=0
      bench::PaperRow{-0.2, 16.1, 98.3, 14.5},   // ISSA 80%
      bench::PaperRow{-0.09, 15.8, 96.6, 14.3},  // ISSA 20%
  };
  std::vector<std::vector<std::string>> extra(rows.size());
  bench::print_rows_with_reference("Table II: workload impact on offset voltage and delay", {},
                                   rows, extra, paper);

  // Fig. 4 series: mean and +/- 6.1 sigma whiskers per workload.
  std::cout << "### Fig. 4 series (x = workload, mean and +/-6.1 sigma whiskers, mV)\n\n";
  util::AsciiTable fig({"Label", "mean", "low", "high"});
  for (const auto& r : rows) {
    const std::string label = r.scheme + "/" + r.workload_label +
                              (r.stress_time_s > 0 ? "@1e8s" : "@0s");
    const double whisker = 6.1 * r.sigma_mv;
    fig.add_row({label, util::AsciiTable::num(r.mu_mv, 2),
                 util::AsciiTable::num(r.mu_mv - whisker, 1),
                 util::AsciiTable::num(r.mu_mv + whisker, 1)});
  }
  std::cout << fig << "\n";

  if (const auto csv_path = run.options().get_string("csv")) {
    util::CsvWriter csv(*csv_path, {"scheme", "time_s", "workload", "mu_mv", "sigma_mv",
                                    "spec_mv", "delay_ps"});
    for (const auto& r : rows) {
      csv.add_row(std::vector<std::string>{
          r.scheme, std::to_string(r.stress_time_s), r.workload_label,
          std::to_string(r.mu_mv), std::to_string(r.sigma_mv), std::to_string(r.spec_mv),
          std::to_string(r.delay_ps)});
    }
    std::cout << "wrote " << *csv_path << "\n";
  }

  // Headline check from the paper's text: 80r0 NSSA spec vs ISSA 80% spec
  // (111.5 -> 98.3 mV, a ~12% reduction).
  const double nssa_80r0_spec = rows[2].spec_mv;
  const double issa_80_spec = rows[8].spec_mv;
  std::cout << "ISSA spec reduction vs NSSA 80r0: "
            << util::AsciiTable::num(100.0 * (1.0 - issa_80_spec / nssa_80r0_spec), 1)
            << "% (paper: ~12%)\n";
  return 0;
}
