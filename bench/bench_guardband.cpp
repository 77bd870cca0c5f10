// Guardbanding versus run-time mitigation (the comparison motivating the
// whole paper, Sec. I and the conclusion): how much design margin and read
// time does the ISSA save over a worst-case-provisioned design, and how long
// does an unmitigated SA take to burn through the mitigated design's budget?
//
// Usage: bench_guardband [--mc=N] [--seed=S] [--cache[=dir]]
#include <iostream>

#include "bench_common.hpp"
#include "issa/core/guardband.hpp"
#include "issa/util/table.hpp"

using namespace issa;

namespace {

void reproduce(core::RunContext& run) {
  analysis::McConfig mc = run.mc();
  // The lifetime-extension search runs ~10 extra Monte-Carlo cells; shrink
  // its sample count so the bench stays affordable at the default 400.
  analysis::McConfig search_mc = mc;
  search_mc.iterations = std::min<std::size_t>(mc.iterations, 100);

  std::cout << "Guardbanding vs run-time mitigation (worst workload 80r0, lifetime 1e8 s), MC = "
            << mc.iterations << "\n\n";

  util::AsciiTable table({"corner", "fresh spec (mV)", "guardbanded spec (mV)",
                          "mitigated spec (mV)", "guardband removed", "EOL read speedup"});
  for (const double temp : {25.0, 125.0}) {
    const auto cmp = core::compare_guardband_vs_mitigation(temp, mc);
    table.add_row({util::AsciiTable::num(temp, 0) + "C",
                   util::AsciiTable::num(cmp.nssa_fresh_spec * 1e3, 1),
                   util::AsciiTable::num(cmp.nssa_aged_spec * 1e3, 1),
                   util::AsciiTable::num(cmp.issa_aged_spec * 1e3, 1),
                   util::AsciiTable::num(100.0 * cmp.margin_saved_fraction(), 1) + "%",
                   util::AsciiTable::num(cmp.speedup(), 3) + "x"});
  }
  std::cout << table << "\n";

  const double t_cross = core::nssa_time_to_reach_issa_spec(125.0, search_mc);
  std::cout << "Lifetime view at 125C: the unmitigated NSSA consumes the ISSA's full\n"
               "end-of-life offset budget after ~"
            << util::AsciiTable::num(t_cross, 0) << " s ("
            << util::AsciiTable::num(t_cross / 1e8 * 100.0, 2)
            << "% of the lifetime) — input switching effectively extends the device\n"
               "lifetime by the remaining factor (paper Sec. V: 'can even extend the\n"
               "lifetime of the devices').\n";
}

}  // namespace

int main(int argc, char** argv) {
  core::RunContext run(argc, argv, "bench_guardband");
  return run.guard([&] { reproduce(run); });
}
