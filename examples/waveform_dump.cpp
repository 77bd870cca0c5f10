// Dumps the analog waveforms of one sensing operation to CSV for plotting:
// bitlines, internal nodes S/SBar, SAenable, and the outputs — for both a
// normal and a swapped ISSA read.
//
//   $ ./waveform_dump [--vin=mV] [--out=prefix]
#include <cmath>
#include <cstdio>
#include <string>

#include "issa/sa/builder.hpp"
#include "issa/sa/measure.hpp"
#include "issa/util/cli.hpp"

int main(int argc, char** argv) {
  using namespace issa;
  const util::Options options(argc, argv, {"vin=mV", "out=prefix"});
  const double vin = options.get_double_or("vin", 50.0) * 1e-3;
  // A bitline swing beyond the supply leaves the testbench's operating range.
  const double vdd = sa::nominal_config().vdd;
  if (!(std::fabs(vin) <= vdd)) {
    options.fail("--vin must be within +-" + std::to_string(static_cast<int>(vdd * 1e3)) +
                 " mV (Vdd): " + *options.get_string("vin"));
  }
  const std::string prefix = options.get_string("out").value_or("waves");

  auto dump = [&](sa::SenseAmpCircuit& circuit, const std::string& path) {
    const auto tr = sa::run_sense_transient(circuit, vin);
    circuit::write_waveforms_csv(
        path, tr.time(),
        {{"bl", &tr.node_wave(circuit.node_bl())},
         {"blbar", &tr.node_wave(circuit.node_blbar())},
         {"s", &tr.node_wave(circuit.node_s())},
         {"sbar", &tr.node_wave(circuit.node_sbar())},
         {"saenable", &tr.node_wave(circuit.node_saenable())},
         {"out", &tr.node_wave(circuit.node_out())},
         {"outbar", &tr.node_wave(circuit.node_outbar())}});
    std::printf("wrote %s (%zu samples)\n", path.c_str(), tr.steps());
  };

  auto nssa = sa::build_nssa(sa::nominal_config());
  dump(nssa, prefix + "_nssa.csv");

  auto issa = sa::build_issa(sa::nominal_config());
  dump(issa, prefix + "_issa.csv");

  issa.set_swapped(true);
  dump(issa, prefix + "_issa_swapped.csv");
  std::printf(
      "Note how the swapped ISSA resolves the *opposite* internal polarity for the\n"
      "same bitline input — the control logic inverts the final value to compensate.\n");
  return 0;
}
