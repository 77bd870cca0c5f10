// Extension experiment: the input-switching scheme applied to the
// double-tail latch-type SA (the paper's ref. [23], suggested as a target in
// Sec. II-B but not evaluated there).
//
// Prints a Table-II-style comparison for the double-tail topology: offset
// mu/sigma/spec and delay, fresh and after 1e8 s of the paper's workloads,
// with and without input switching.
//
// Usage: bench_ext_double_tail [--mc=N] [--seed=S] [--cache[=dir]]
#include <iostream>

#include "bench_common.hpp"
#include "issa/util/table.hpp"

using namespace issa;

namespace {

void reproduce(core::RunContext& run) {
  core::ExperimentRunner runner(run.mc());

  std::cout << "Extension: input switching on the double-tail SA (paper ref. [23]), MC = "
            << runner.mc().iterations << "\n\n";

  const auto cell = [&](sa::SenseAmpKind kind, const char* wl, double t) {
    return runner.run_cell(kind, workload::workload_from_name(wl), t, 1.0, 25.0);
  };
  const std::vector<core::ExperimentRow> rows = {
      cell(sa::SenseAmpKind::kDoubleTail, "80r0r1", 0.0),
      cell(sa::SenseAmpKind::kDoubleTail, "80r0r1", 1e8),
      cell(sa::SenseAmpKind::kDoubleTail, "80r0", 1e8),
      cell(sa::SenseAmpKind::kDoubleTail, "80r1", 1e8),
      cell(sa::SenseAmpKind::kDoubleTailSwitching, "80r0r1", 0.0),
      cell(sa::SenseAmpKind::kDoubleTailSwitching, "80r0", 1e8),
  };

  util::AsciiTable table({"Scheme", "Time(s)", "Workload", "mu(mV)", "sigma(mV)", "spec(mV)",
                          "delay(ps)"});
  for (const core::ExperimentRow& r : rows) {
    table.add_row({sa::is_switching_kind(r.condition.kind) ? "DT-ISSA" : "DT-NSSA",
                   r.condition.aged() ? "1e8" : "0", r.workload_label,
                   util::AsciiTable::num(r.mu_mv, 2), util::AsciiTable::num(r.sigma_mv, 1),
                   util::AsciiTable::num(r.spec_mv, 1), util::AsciiTable::num(r.delay_ps, 1)});
  }
  std::cout << table << "\n";
  bench::print_degraded_footer(rows);

  // The aged 80r0 rows: rows[2] without input switching, rows[5] with it.
  std::cout << "Input switching reduces the aged 80r0 spec by "
            << util::AsciiTable::num(100.0 * (1.0 - rows[5].spec_mv / rows[2].spec_mv), 1)
            << "% on the double-tail topology — the scheme generalizes beyond Fig. 1.\n"
            << "(No paper reference values exist for this table; it is an extension.)\n";
}

}  // namespace

int main(int argc, char** argv) {
  core::RunContext run(argc, argv, "bench_ext_double_tail");
  return run.guard([&] { reproduce(run); });
}
