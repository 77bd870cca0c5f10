// Quantifies the ISSA overhead discussion of Sec. IV-C: area, energy, and
// the system-level read-time impact, across array geometries.
//
// Usage: bench_overheads [--mc=N] [--cache[=dir]]
#include <iostream>

#include "bench_common.hpp"
#include "issa/mem/column.hpp"
#include "issa/mem/overhead.hpp"
#include "issa/util/table.hpp"

using namespace issa;

namespace {

void reproduce() {
  std::cout << "Reproducing Sec. IV-C overhead discussion\n\n";

  const auto counts = mem::transistor_counts(8);
  std::cout << "Transistor counts: NSSA SA = " << counts.baseline_sa
            << ", ISSA SA = " << counts.issa_sa
            << " (+2 pass devices), shared control block = " << counts.control_block
            << " (8-bit counter + 2 NAND + inverter)\n\n";

  // --- area across array geometries ----------------------------------------
  util::AsciiTable area({"rows", "cols", "cols/ctl", "cell array %", "ISSA area overhead %"});
  for (const std::size_t rows : {128u, 256u, 512u}) {
    for (const std::size_t cols : {64u, 128u, 256u}) {
      mem::ArrayGeometry g;
      g.rows = rows;
      g.columns = cols;
      g.columns_per_control = cols;  // one control block per array slice
      const auto a = mem::area_breakdown(g, sa::SenseAmpSizing{});
      area.add_row({std::to_string(rows), std::to_string(cols), std::to_string(cols),
                    util::AsciiTable::num(100.0 * a.cell_array / a.baseline_total(), 1),
                    util::AsciiTable::num(100.0 * a.overhead_fraction(), 3)});
    }
  }
  std::cout << "### Area (paper: cell matrix dominates, ISSA overhead 'very marginal')\n\n"
            << area << "\n";

  // --- energy ----------------------------------------------------------------
  util::AsciiTable energy({"cols/ctl", "counter energy/read (fJ)", "overhead %"});
  for (const std::size_t share : {16u, 64u, 128u, 256u}) {
    mem::ArrayGeometry g;
    g.columns_per_control = share;
    const auto e = mem::energy_breakdown(g, 1.0, 0.1, 20e-15);
    energy.add_row({std::to_string(share), util::AsciiTable::num(e.counter_per_read * 1e15, 4),
                    util::AsciiTable::num(100.0 * e.overhead_fraction(), 4)});
  }
  std::cout << "### Energy (paper: counters clock only on reads; overhead negligible)\n\n"
            << energy << "\n";

  // --- system-level read time using the paper's Table IV specs ---------------
  const mem::ColumnReadPath path;
  struct Case {
    const char* label;
    double spec_mv;
    double delay_ps;
  };
  const Case cases[] = {
      {"fresh SA (t=0, 25C)", 90.2, 13.6},
      {"aged NSSA 80r0 @125C", 186.5, 29.0},
      {"aged ISSA 80% @125C", 113.9, 26.0},
  };
  util::AsciiTable read({"operating point", "bitline develop (ps)", "total read (ps)"});
  for (const auto& c : cases) {
    const auto t = path.timing(c.spec_mv * 1e-3, c.delay_ps * 1e-12, 1.0, 398.15);
    read.add_row({c.label, util::AsciiTable::num(t.bitline_develop * 1e12, 1),
                  util::AsciiTable::num(t.total() * 1e12, 1)});
  }
  std::cout << "### Read-path timing with the paper's specs (the 'faster memory' claim)\n\n"
            << read << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  core::RunContext run(argc, argv, "bench_overheads");
  return run.guard(reproduce);
}
