// Reproduces Table III / Fig. 5: supply-voltage impact (+/-10% Vdd) on the
// offset voltage and sensing delay at 25 C, t = 0 and t = 1e8 s.
//
// Usage: bench_table3_voltage [--mc=N] [--seed=S] [--csv=path] [--cache[=dir]]
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "issa/util/csv.hpp"

using namespace issa;

int main(int argc, char** argv) {
  core::RunContext run(argc, argv, "bench_table3_voltage", {"csv=path"});
  core::ExperimentRunner runner(run.mc());

  std::cout << "Reproducing Table III / Fig. 5 (supply-voltage impact), MC = "
            << runner.mc().iterations << " iterations\n\n";

  const auto rows = runner.table3_voltage();
  run.attach_rows(rows);

  // Paper Table III reference values in row order (supply column added).
  const std::vector<std::optional<bench::PaperRow>> paper = {
      bench::PaperRow{0.1, 14.5, 88.6, 17.2},     // NSSA t=0 -10%
      bench::PaperRow{0.8, 15.0, 91.6, 11.3},     // NSSA t=0 +10%
      bench::PaperRow{0.1, 14.6, 89.3, 17.6},     // NSSA 80r0r1 -10%
      bench::PaperRow{-0.07, 16.6, 101.5, 12.0},  // NSSA 80r0r1 +10%
      bench::PaperRow{10.5, 14.7, 98.5, 17.7},    // NSSA 80r0 -10%
      bench::PaperRow{27.3, 16.2, 124.4, 12.2},   // NSSA 80r0 +10%
      bench::PaperRow{-10.3, 14.7, 98.2, 17.3},   // NSSA 80r1 -10%
      bench::PaperRow{-27.0, 15.6, 120.4, 11.9},  // NSSA 80r1 +10%
      bench::PaperRow{0.1, 14.5, 88.5, 17.4},     // ISSA t=0 -10%
      bench::PaperRow{0.08, 14.9, 91.1, 11.6},    // ISSA t=0 +10%
      bench::PaperRow{0.1, 14.6, 89.0, 17.8},     // ISSA 80% -10%
      bench::PaperRow{-0.07, 16.5, 100.7, 12.3},  // ISSA 80% +10%
  };

  std::vector<std::vector<std::string>> extra;
  extra.reserve(rows.size());
  for (const auto& r : rows) {
    const int pct = static_cast<int>(std::lround((r.vdd - 1.0) * 100.0));
    extra.push_back({(pct > 0 ? "+" : "") + std::to_string(pct) + "%"});
  }
  bench::print_rows_with_reference("Table III: voltage impact on offset voltage and delay",
                                   {"Supply"}, rows, extra, paper);

  if (const auto csv_path = run.options().get_string("csv")) {
    util::CsvWriter csv(*csv_path, {"scheme", "time_s", "workload", "vdd", "mu_mv", "sigma_mv",
                                    "spec_mv", "delay_ps"});
    for (const auto& r : rows) {
      csv.add_row(std::vector<std::string>{
          r.scheme, std::to_string(r.stress_time_s), r.workload_label, std::to_string(r.vdd),
          std::to_string(r.mu_mv), std::to_string(r.sigma_mv), std::to_string(r.spec_mv),
          std::to_string(r.delay_ps)});
    }
    std::cout << "wrote " << *csv_path << "\n";
  }

  // Paper text: at +10% Vdd the aged unbalanced NSSA spec grows up to ~35%
  // over its own t=0 value, ~3x the growth at -10% Vdd; the ISSA holds
  // growth to ~10% / ~0.5%.
  const double nssa_grow_low = rows[4].spec_mv / rows[0].spec_mv - 1.0;
  const double nssa_grow_high = rows[5].spec_mv / rows[1].spec_mv - 1.0;
  const double issa_grow_low = rows[10].spec_mv / rows[8].spec_mv - 1.0;
  const double issa_grow_high = rows[11].spec_mv / rows[9].spec_mv - 1.0;
  std::cout << "NSSA 80r0 spec growth: " << util::AsciiTable::num(100 * nssa_grow_low, 1)
            << "% @ -10% Vdd, " << util::AsciiTable::num(100 * nssa_grow_high, 1)
            << "% @ +10% Vdd (paper: ~11% / ~35%)\n";
  std::cout << "ISSA 80% spec growth:  " << util::AsciiTable::num(100 * issa_grow_low, 1)
            << "% @ -10% Vdd, " << util::AsciiTable::num(100 * issa_grow_high, 1)
            << "% @ +10% Vdd (paper: ~0.5% / ~10%)\n";
  return 0;
}
