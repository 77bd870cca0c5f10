// System-level scenario: a 256-row SRAM column read path over its lifetime.
//
// The SA offset spec sets how much bitline swing must be developed before the
// SA may fire; swing costs wordline time.  This example walks the full chain
// (aged offset spec -> required swing -> bitline discharge time -> total read
// time) for the standard SA and the ISSA at a hot, read-heavy corner.
//
//   $ ./memory_column [--mc=N] [--temp=C] [--rows=R]
#include <cstdio>
#include <iostream>
#include <string>

#include "issa/analysis/montecarlo.hpp"
#include "issa/mem/column.hpp"
#include "issa/mem/overhead.hpp"
#include "issa/util/cli.hpp"
#include "issa/util/table.hpp"
#include "issa/util/units.hpp"

int main(int argc, char** argv) {
  using namespace issa;
  const util::Options options(argc, argv, {"mc=N", "temp=C", "rows=R"});

  analysis::McConfig mc;
  mc.iterations = options.get_count_or("mc", 60);
  // Every distribution reports a standard deviation, which takes two samples.
  if (mc.iterations < 2) {
    options.fail("--mc needs at least 2 samples: " + std::to_string(mc.iterations));
  }
  const double temp_c = options.get_double_or("temp", 125.0);
  if (!(temp_c > -273.15)) {
    options.fail("--temp must be above -273.15 C: " + *options.get_string("temp"));
  }

  mem::ReadPathParams path_params;
  path_params.bitline.rows = options.get_count_or("rows", 256);
  const mem::ColumnReadPath path(path_params);

  analysis::Condition condition;
  condition.config = sa::nominal_config();
  condition.config.temperature_c = temp_c;
  condition.workload = workload::workload_from_name("80r0");

  std::printf("SRAM column read path: %zu rows, %.0f C, workload 80r0, MC = %zu\n\n",
              path_params.bitline.rows, temp_c, mc.iterations);

  util::AsciiTable table({"scheme", "time (s)", "spec (mV)", "SA delay (ps)",
                          "bitline develop (ps)", "total read (ps)"});
  const double temperature_k = condition.config.temperature_k();

  for (const double t : {0.0, 1e8}) {
    for (const auto kind : {sa::SenseAmpKind::kNssa, sa::SenseAmpKind::kIssa}) {
      condition.kind = kind;
      condition.stress_time_s = t;
      const auto offsets = analysis::measure_offset_distribution(condition, mc);
      const auto delays = analysis::measure_delay_distribution(condition, mc);
      const auto timing =
          path.timing(offsets.spec(), delays.summary.mean, condition.config.vdd, temperature_k);
      table.add_row({kind == sa::SenseAmpKind::kNssa ? "NSSA" : "ISSA",
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
  const auto energy = mem::energy_breakdown(geometry, condition.config.vdd, 0.1,
                                            path_params.bitline.total_cap());
  std::printf("\nISSA cost: %.2f%% array area, %.3f%% read energy (shared %u-bit counter)\n",
              100.0 * area.overhead_fraction(), 100.0 * energy.overhead_fraction(),
              geometry.counter_bits);
  std::printf(
      "The guardbanded alternative would provision the aged NSSA's swing for the\n"
      "whole lifetime; the ISSA keeps the read path near its fresh timing instead.\n");
  return 0;
}
