// Control-logic walkthrough: the Fig. 3 block (N-bit read counter + two
// NANDs + inverter) processing a read stream, shown both behaviorally and at
// gate level, including the workload-balancing effect and the output-value
// correction across input swaps.
//
//   $ ./control_logic_demo [--bits=N] [--reads=K]
#include <cstdio>
#include <iostream>
#include <string>

#include "issa/digital/control.hpp"
#include "issa/sa/builder.hpp"
#include "issa/sa/measure.hpp"
#include "issa/util/cli.hpp"
#include "issa/util/table.hpp"
#include "issa/workload/bitstream.hpp"

int main(int argc, char** argv) {
  using namespace issa;
  const util::Options options(argc, argv, {"bits=N", "reads=K"});
  const std::size_t bits = options.get_count_or("bits", 3);
  if (bits > 63) options.fail("--bits must be 1..63: " + std::to_string(bits));
  const std::size_t reads = options.get_count_or("reads", 12);

  digital::IssaController controller(static_cast<unsigned>(bits));
  std::printf("ISSA control: %zu-bit counter -> inputs swap every %llu reads\n\n", bits,
              static_cast<unsigned long long>(controller.switch_period()));

  // Table I, decoded through the event-driven gate simulation.
  std::printf("Table I decode (gate-level, 5 ps NAND delay):\n");
  util::AsciiTable truth({"Switch", "SAenableBar", "SAenableA", "SAenableB"});
  for (const bool sw : {false, true}) {
    for (const bool bar : {false, true}) {
      const auto p = controller.simulate_decode(bar, sw);
      truth.add_row({sw ? "1" : "0", bar ? "1" : "0", p.a ? "1" : "0", p.b ? "1" : "0"});
    }
  }
  truth.print(std::cout);

  // A short all-zeros stream through controller + analog SA together.
  std::printf("\nReading %zu zeros through the full ISSA (external value is always 0):\n\n",
              reads);
  auto circuit = sa::build_issa(sa::nominal_config());
  util::AsciiTable log({"read#", "Switch", "internal node value", "raw SA output",
                        "corrected output"});
  for (std::size_t i = 0; i < reads; ++i) {
    const bool swapped = controller.switch_signal();
    circuit.set_swapped(swapped);
    const bool raw = sa::run_sense(circuit, /*vin=*/-0.1).read_one;  // reading a 0
    const bool corrected = controller.output_invert() ? !raw : raw;
    const bool internal = controller.process_read(false);
    log.add_row({std::to_string(i), swapped ? "1" : "0", internal ? "1" : "0",
                 raw ? "1" : "0", corrected ? "1" : "0"});
  }
  log.print(std::cout);

  const auto& stats = controller.stats();
  std::printf(
      "\nExternal ones: %llu / %llu.  Internal ones: %llu / %llu (imbalance %.3f).\n"
      "The internal nodes aged as if the workload were balanced — that is the\n"
      "entire mitigation mechanism.\n",
      static_cast<unsigned long long>(stats.external_ones),
      static_cast<unsigned long long>(stats.reads),
      static_cast<unsigned long long>(stats.internal_ones),
      static_cast<unsigned long long>(stats.reads), stats.internal_imbalance());

  // Longer streams: balancing across the paper's workloads.
  std::printf("\nInternal balance over 65536 reads:\n\n");
  util::AsciiTable bal({"workload", "external 1-fraction", "internal 1-fraction"});
  for (const auto& w : workload::paper_workloads()) {
    digital::IssaController ctl(8);
    ctl.process_stream(workload::generate_read_stream(w, 65536, 11));
    bal.add_row({w.name(), util::AsciiTable::num(ctl.stats().external_one_fraction(), 3),
                 util::AsciiTable::num(ctl.stats().internal_one_fraction(), 3)});
  }
  bal.print(std::cout);
  return 0;
}
