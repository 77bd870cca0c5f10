// System-level scenario: a 256-row SRAM column read path over its lifetime.
//
// The SA offset spec sets how much bitline swing must be developed before the
// SA may fire; swing costs wordline time.  This example walks the full chain
// (aged offset spec -> required swing -> bitline discharge time -> total read
// time) for the standard SA and the ISSA at a hot, read-heavy corner.
//
//   $ ./memory_column [--temp=C] [--rows=R] [--mc=N] [--seed=S] ...   (the run flags)
#include <cstdio>
#include <iostream>
#include <string>

#include "issa/analysis/montecarlo.hpp"
#include "issa/core/run_context.hpp"
#include "issa/mem/column.hpp"
#include "issa/mem/overhead.hpp"
#include "issa/util/table.hpp"
#include "issa/util/units.hpp"

int main(int argc, char** argv) {
  using namespace issa;
  core::RunContext run(argc, argv, "memory_column", {"temp=C", "rows=R"});
  const util::Options& options = run.options();
  const analysis::McConfig& mc = run.mc();
  const double temp_c = options.get_double_or("temp", 125.0);
  if (!(temp_c > -273.15)) {
    options.fail("--temp must be above -273.15 C: " + *options.get_string("temp"));
  }
  mem::ReadPathParams path_params;
  path_params.bitline.rows = options.get_count_or("rows", 256);

  return run.guard([&] {
    const mem::ColumnReadPath path(path_params);

    const workload::Workload w80r0 = workload::workload_from_name("80r0");
    std::printf("SRAM column read path: %zu rows, %.0f C, workload 80r0, MC = %zu\n\n",
                path_params.bitline.rows, temp_c, mc.iterations);

    util::AsciiTable table({"scheme", "time (s)", "spec (mV)", "SA delay (ps)",
                            "bitline develop (ps)", "total read (ps)"});
    const double temperature_k = util::celsius_to_kelvin(temp_c);
    const double vdd = sa::nominal_config().vdd;

    for (const double t : {0.0, 1e8}) {
      for (const auto kind : {sa::SenseAmpKind::kNssa, sa::SenseAmpKind::kIssa}) {
        const auto [offsets, delays] =
            analysis::measure_cell(analysis::make_condition(kind, w80r0, t, 1.0, temp_c), mc);
        const auto timing = path.timing(offsets.spec(), delays.summary.mean, vdd, temperature_k);
        table.add_row({sa::kind_name(kind),
                       t == 0.0 ? "0" : "1e8",
                       util::AsciiTable::num(util::to_mV(offsets.spec()), 1),
                       util::AsciiTable::num(util::to_ps(delays.summary.mean), 1),
                       util::AsciiTable::num(util::to_ps(timing.bitline_develop), 1),
                       util::AsciiTable::num(util::to_ps(timing.total()), 1)});
      }
    }
    table.print(std::cout);

    // What does the mitigation cost?  Area and energy, per Sec. IV-C.
    mem::ArrayGeometry geometry;
    geometry.rows = path_params.bitline.rows;
    const auto area = mem::area_breakdown(geometry, sa::SenseAmpSizing{});
    const auto energy = mem::energy_breakdown(geometry, vdd, 0.1,
                                              path_params.bitline.total_cap());
    std::printf("\nISSA cost: %.2f%% array area, %.3f%% read energy (shared %u-bit counter)\n",
                100.0 * area.overhead_fraction(), 100.0 * energy.overhead_fraction(),
                geometry.counter_bits);
    std::printf(
        "The guardbanded alternative would provision the aged NSSA's swing for the\n"
        "whole lifetime; the ISSA keeps the read path near its fresh timing instead.\n");
  });
}
