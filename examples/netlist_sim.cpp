// Mini SPICE driver: parse a netlist file, solve the DC operating point,
// and optionally run a transient, dumping node waveforms to CSV.
//
//   $ ./netlist_sim --file=circuit.sp [--tstop=1e-9] [--dt=1e-12] [--csv=out.csv]
//
// With no --file, a built-in demo netlist (CMOS inverter driving an RC load)
// is simulated, so the example is runnable out of the box.
#include <cstdio>
#include <iostream>

#include "issa/circuit/parser.hpp"
#include "issa/circuit/simulator.hpp"
#include "issa/util/cli.hpp"
#include "issa/util/table.hpp"

namespace {

constexpr const char* kDemoNetlist = R"(* CMOS inverter driving an RC load
.model nch NMOS
.model pch PMOS
Vdd vdd 0 DC 1.0
Vin in 0 STEP 0 1 20p 5p
Mn out in 0 0 nch W/L=2.5
Mp out in vdd vdd pch W/L=5
Rw out load 500
Cl load 0 4f
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace issa;
  const util::Options options(argc, argv,
                              {"file=path", "temp=C", "tstop=s", "dt=s", "csv=path"});
  const double temp_c = options.get_double_or("temp", 25.0);
  if (!(temp_c > -273.15)) {
    options.fail("--temp must be above -273.15 C: " + *options.get_string("temp"));
  }
  const double tstop = options.get_double_or("tstop", 100e-12);
  const double dt = options.get_double_or("dt", tstop / 1000.0);
  if (tstop > 0.0 && !(dt > 0.0)) options.fail("--dt must be > 0: " + *options.get_string("dt"));

  circuit::Netlist netlist;
  try {
    if (const auto file = options.get_string("file"); file && !file->empty()) {
      netlist = circuit::parse_netlist_file(*file);
      std::printf("parsed %s\n", file->c_str());
    } else {
      netlist = circuit::parse_netlist(kDemoNetlist);
      std::printf("no --file given; simulating the built-in inverter demo\n");
    }
  } catch (const circuit::ParseError& e) {
    std::fprintf(stderr, "parse error: %s\n", e.what());
    return 1;
  }

  circuit::Simulator sim(netlist, 273.15 + temp_c);

  const auto dc = sim.solve_dc();
  util::AsciiTable op({"node", "V(dc)"});
  for (std::size_t n = 1; n < netlist.node_count(); ++n) {
    op.add_row({netlist.node_name(static_cast<circuit::NodeId>(n)),
                util::AsciiTable::num(dc[n], 5)});
  }
  std::cout << "\nDC operating point:\n" << op;

  if (tstop > 0.0) {
    circuit::TransientOptions tran;
    tran.tstop = tstop;
    tran.dt = dt;
    const auto result = sim.run_transient(tran);
    std::printf("\ntransient: %zu steps to %.3g s\n", result.steps(), tstop);

    util::AsciiTable fin({"node", "V(final)"});
    for (std::size_t n = 1; n < netlist.node_count(); ++n) {
      fin.add_row({netlist.node_name(static_cast<circuit::NodeId>(n)),
                   util::AsciiTable::num(result.node_wave(static_cast<circuit::NodeId>(n)).back(), 5)});
    }
    std::cout << fin;

    if (const auto csv = options.get_string("csv")) {
      std::vector<std::pair<std::string, const std::vector<double>*>> waves;
      for (std::size_t n = 1; n < netlist.node_count(); ++n) {
        waves.emplace_back(netlist.node_name(static_cast<circuit::NodeId>(n)),
                           &result.node_wave(static_cast<circuit::NodeId>(n)));
      }
      circuit::write_waveforms_csv(*csv, result.time(), waves);
      std::printf("wrote %s\n", csv->c_str());
    }
  }
  return 0;
}
