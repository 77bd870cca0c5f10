// Reproduces Table IV / Fig. 6: temperature impact (75 C, 125 C) on the
// offset voltage and sensing delay at nominal Vdd, t = 0 and t = 1e8 s.
//
// Usage: bench_table4_temperature [--mc=N] [--seed=S] [--csv=path] [--cache[=dir]]
#include <iostream>

#include "bench_common.hpp"
#include "issa/util/csv.hpp"

using namespace issa;

int main(int argc, char** argv) {
  core::RunContext run(argc, argv, "bench_table4_temperature", {"csv=path"});
  core::ExperimentRunner runner(run.mc());

  std::cout << "Reproducing Table IV / Fig. 6 (temperature impact), MC = "
            << runner.mc().iterations << " iterations\n\n";

  const auto rows = runner.table4_temperature();
  run.attach_rows(rows);

  // Paper Table IV reference values in row order (temperature column added).
  const std::vector<std::optional<bench::PaperRow>> paper = {
      bench::PaperRow{0.09, 15.1, 92.2, 17.1},   // NSSA t=0 75C
      bench::PaperRow{0.08, 15.3, 93.6, 21.3},   // NSSA t=0 125C
      bench::PaperRow{-0.03, 17.6, 107.3, 19.2}, // NSSA 80r0r1 75C
      bench::PaperRow{0.2, 18.8, 114.9, 25.7},   // NSSA 80r0r1 125C
      bench::PaperRow{45.0, 16.8, 145.6, 19.9},  // NSSA 80r0 75C
      bench::PaperRow{79.1, 17.9, 186.5, 29.0},  // NSSA 80r0 125C
      bench::PaperRow{-44.2, 16.3, 142.0, 18.3}, // NSSA 80r1 75C
      bench::PaperRow{-76.8, 17.0, 178.6, 23.5}, // NSSA 80r1 125C
      bench::PaperRow{0.08, 15.0, 91.6, 17.5},   // ISSA t=0 75C
      bench::PaperRow{0.08, 15.2, 92.9, 21.7},   // ISSA t=0 125C
      bench::PaperRow{-0.02, 17.4, 106.3, 19.5}, // ISSA 80% 75C
      bench::PaperRow{0.2, 18.6, 113.9, 26.0},   // ISSA 80% 125C
  };

  std::vector<std::vector<std::string>> extra;
  extra.reserve(rows.size());
  for (const auto& r : rows) {
    extra.push_back({std::to_string(static_cast<int>(r.temperature_c)) + "C"});
  }
  bench::print_rows_with_reference("Table IV: temperature impact on offset voltage and delay",
                                   {"Temp"}, rows, extra, paper);

  if (const auto csv_path = run.options().get_string("csv")) {
    util::CsvWriter csv(*csv_path, {"scheme", "time_s", "workload", "temp_c", "mu_mv",
                                    "sigma_mv", "spec_mv", "delay_ps"});
    for (const auto& r : rows) {
      csv.add_row(std::vector<std::string>{
          r.scheme, std::to_string(r.stress_time_s), r.workload_label,
          std::to_string(r.temperature_c), std::to_string(r.mu_mv), std::to_string(r.sigma_mv),
          std::to_string(r.spec_mv), std::to_string(r.delay_ps)});
    }
    std::cout << "wrote " << *csv_path << "\n";
  }

  // Paper headline: at 125 C / 80r0 / 1e8 s the ISSA reduces the offset spec
  // by about 40% relative to the NSSA.
  const double reduction = 1.0 - rows[11].spec_mv / rows[5].spec_mv;
  std::cout << "ISSA spec reduction vs NSSA 80r0 at 125C: "
            << util::AsciiTable::num(100.0 * reduction, 1) << "% (paper: ~40%)\n";
  const double growth_125 = rows[5].spec_mv / rows[1].spec_mv - 1.0;
  std::cout << "NSSA 80r0 spec growth at 125C over its t=0: "
            << util::AsciiTable::num(100.0 * growth_125, 1) << "% (paper: ~99%)\n";
  return 0;
}
