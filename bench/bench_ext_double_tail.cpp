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
#include "issa/sa/double_tail.hpp"
#include "issa/util/table.hpp"

using namespace issa;

int main(int argc, char** argv) {
  core::RunContext run(argc, argv, "bench_ext_double_tail");
  const analysis::McConfig mc = run.mc();

  std::cout << "Extension: input switching on the double-tail SA (paper ref. [23]), MC = "
            << mc.iterations << "\n\n";

  util::AsciiTable table({"Scheme", "Time(s)", "Workload", "mu(mV)", "sigma(mV)", "spec(mV)",
                          "delay(ps)"});

  auto measure = [&](sa::SenseAmpKind kind, const char* wl, double t) {
    analysis::Condition c;
    c.kind = kind;
    c.config = sa::nominal_config();
    c.workload = workload::workload_from_name(wl);
    c.stress_time_s = t;
    const auto offsets = analysis::measure_offset_distribution(c, mc);
    const auto delays = analysis::measure_delay_distribution(c, mc);
    const bool switching = kind == sa::SenseAmpKind::kDoubleTailSwitching;
    table.add_row({switching ? "DT-ISSA" : "DT-NSSA", t > 0 ? "1e8" : "0",
                   t > 0 ? (switching ? "80%" : wl) : "-",
                   util::AsciiTable::num(offsets.summary.mean * 1e3, 2),
                   util::AsciiTable::num(offsets.summary.stddev * 1e3, 1),
                   util::AsciiTable::num(offsets.spec() * 1e3, 1),
                   util::AsciiTable::num(delays.summary.mean * 1e12, 1)});
    return offsets.spec();
  };

  measure(sa::SenseAmpKind::kDoubleTail, "80r0r1", 0.0);
  measure(sa::SenseAmpKind::kDoubleTail, "80r0r1", 1e8);
  const double plain_spec = measure(sa::SenseAmpKind::kDoubleTail, "80r0", 1e8);
  measure(sa::SenseAmpKind::kDoubleTail, "80r1", 1e8);
  measure(sa::SenseAmpKind::kDoubleTailSwitching, "80r0r1", 0.0);
  const double sw_spec = measure(sa::SenseAmpKind::kDoubleTailSwitching, "80r0", 1e8);

  std::cout << table << "\n";
  std::cout << "Input switching reduces the aged 80r0 spec by "
            << util::AsciiTable::num(100.0 * (1.0 - sw_spec / plain_spec), 1)
            << "% on the double-tail topology — the scheme generalizes beyond Fig. 1.\n"
            << "(No paper reference values exist for this table; it is an extension.)\n";
  return 0;
}
