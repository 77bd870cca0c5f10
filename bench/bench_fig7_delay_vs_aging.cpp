// Reproduces Fig. 7: sensing delay versus stress time at T = 125 C for
// NSSA-80r0, NSSA-80r0r1, and ISSA-80%.
//
// Expected shape (paper Sec. IV-B): all three degrade with aging; the
// NSSA-80r0 curve degrades fastest and ends ~10% slower than the ISSA at
// t = 1e8 s, even though the ISSA starts slightly slower at t = 0.
//
// Usage: bench_fig7_delay_vs_aging [--mc=N] [--seed=S] [--csv=path] [--cache[=dir]]
#include <iostream>

#include "bench_common.hpp"
#include "issa/util/csv.hpp"

using namespace issa;

namespace {

void reproduce(core::RunContext& run) {
  core::ExperimentRunner runner(run.mc());

  std::cout << "Reproducing Fig. 7 (delay vs aging at 125 C), MC = " << runner.mc().iterations
            << " iterations\n\n";

  const std::vector<double> times = {0.0, 1e4, 1e5, 1e6, 1e7, 3e7, 1e8};
  const auto series = runner.fig7_delay_vs_aging(times);

  std::vector<std::string> headers = {"time(s)"};
  for (const auto& s : series) headers.push_back(s.label + " (ps)");
  util::AsciiTable table(std::move(headers));
  for (std::size_t i = 0; i < times.size(); ++i) {
    std::vector<std::string> row = {times[i] == 0.0 ? "0" : util::AsciiTable::num(times[i], 0)};
    for (const auto& s : series) row.push_back(util::AsciiTable::num(s.delays_ps[i], 2));
    table.add_row(std::move(row));
  }
  std::cout << table << "\n";
  bench::print_degraded_footer(series);

  if (const auto csv_path = run.options().get_string("csv")) {
    std::vector<std::string> cols = {"time_s"};
    for (const auto& s : series) cols.push_back(s.label);
    util::CsvWriter csv(*csv_path, cols);
    for (std::size_t i = 0; i < times.size(); ++i) {
      std::vector<double> row = {times[i]};
      for (const auto& s : series) row.push_back(s.delays_ps[i]);
      csv.add_row(row);
    }
    std::cout << "wrote " << *csv_path << "\n";
  }

  const auto& nssa_r0 = series[0];
  const auto& issa = series[2];
  const double end_gap = nssa_r0.delays_ps.back() / issa.delays_ps.back() - 1.0;
  std::cout << "At t = 1e8 s the NSSA-80r0 is "
            << util::AsciiTable::num(100.0 * end_gap, 1)
            << "% slower than the ISSA (paper: ~10%)\n";
  std::cout << "t = 0 ISSA overhead vs NSSA: "
            << util::AsciiTable::num(
                   100.0 * (issa.delays_ps.front() / nssa_r0.delays_ps.front() - 1.0), 1)
            << "% (paper: ~2%)\n";
}

}  // namespace

int main(int argc, char** argv) {
  core::RunContext run(argc, argv, "bench_fig7_delay_vs_aging", {"csv=path"});
  return run.guard([&] { reproduce(run); });
}
