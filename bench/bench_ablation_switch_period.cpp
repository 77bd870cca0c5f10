// Ablation: the switching period (counter width N).
//
// The paper fixes N = 8 (swap every 128 reads) without exploring the choice.
// This bench quantifies it two ways:
//  1. residual internal imbalance of the ISSA for random and for adversarial
//     (block-correlated) read streams, across N;
//  2. the aged offset mean that a residual imbalance would re-introduce,
//     through the full stress-map -> BTI -> Monte-Carlo pipeline.
//
// Usage: bench_ablation_switch_period [--mc=N] [--seed=S] [--cache[=dir]]
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "issa/digital/control.hpp"
#include "issa/workload/bitstream.hpp"
#include "issa/workload/stress_map.hpp"
#include "issa/util/table.hpp"

using namespace issa;

int main(int argc, char** argv) {
  core::RunContext run(argc, argv, "bench_ablation_switch_period");
  const analysis::McConfig mc = run.mc();
  const std::size_t stream_len = 1 << 16;

  std::cout << "Ablation: ISSA switching period (counter width N)\n\n";

  // --- 1. residual imbalance vs N -------------------------------------------
  util::AsciiTable imb({"N", "swap period", "imbalance (random r0r1)", "imbalance (all r0)",
                        "imbalance (adversarial blocks)"});
  for (unsigned bits = 1; bits <= 12; ++bits) {
    digital::IssaController random_ctl(bits);
    random_ctl.process_stream(workload::generate_read_stream(
        workload::workload_from_name("80r0r1"), stream_len, 7));

    digital::IssaController r0_ctl(bits);
    r0_ctl.process_stream(
        workload::generate_read_stream(workload::workload_from_name("80r0"), stream_len, 7));

    // Adversarial: value blocks aligned with the swap period so the swap
    // always lands on the same value -> worst-case correlation.
    digital::IssaController adv_ctl(bits);
    adv_ctl.process_stream(workload::adversarial_block_stream(
        stream_len, static_cast<std::size_t>(adv_ctl.switch_period())));

    imb.add_row({std::to_string(bits), std::to_string(digital::ReadCounter(bits).switch_period()),
                 util::AsciiTable::num(random_ctl.stats().internal_imbalance(), 4),
                 util::AsciiTable::num(r0_ctl.stats().internal_imbalance(), 4),
                 util::AsciiTable::num(adv_ctl.stats().internal_imbalance(), 4)});
  }
  std::cout << imb << "\n";
  std::cout << "Any N balances a *stationary* stream perfectly; only input streams correlated\n"
               "with the swap period defeat the scheme, and the probability of accidental\n"
               "correlation falls with the period length.\n\n";

  // --- 2. offset cost of residual imbalance ---------------------------------
  std::cout << "### Aged offset mean vs residual internal imbalance (80% rate, 1e8 s, 25 C,\n"
            << "    MC = " << mc.iterations << ")\n\n";
  util::AsciiTable cost({"internal zero fraction", "imbalance", "mu (mV)", "spec (mV)"});
  for (const double zero_fraction : {0.5, 0.55, 0.625, 0.75, 1.0}) {
    analysis::Condition c;
    c.kind = sa::SenseAmpKind::kIssa;
    c.config = sa::nominal_config();
    c.workload = workload::workload_from_name("80r0");
    c.stress_time_s = 1e8;
    // Route the skewed map through the measurement by overriding the stress
    // map: rebuild per sample with the explicit internal balance.
    analysis::McConfig cfg = mc;
    // measure via the generic pipeline on a synthetic condition: use the
    // NSSA path with an equivalent workload when fully unbalanced, otherwise
    // sample manually.
    const auto map = workload::issa_stress_map_with_internal_balance(c.workload, c.config.vdd,
                                                                     zero_fraction);
    util::RunningStats stats;
    for (std::size_t i = 0; i < cfg.iterations; ++i) {
      auto circuit = sa::build_issa(c.config);
      variation::apply_process_variation(circuit.netlist(), cfg.mismatch, cfg.seed, i);
      aging::apply_bti_aging(circuit.netlist(), cfg.bti, map, c.stress_time_s,
                             c.config.temperature_k(), cfg.seed, i);
      stats.add(sa::measure_offset(circuit).offset);
    }
    const double spec = analysis::offset_voltage_spec(stats.mean(), stats.stddev());
    cost.add_row({util::AsciiTable::num(zero_fraction, 3),
                  util::AsciiTable::num(std::fabs(2.0 * zero_fraction - 1.0), 2),
                  util::AsciiTable::num(stats.mean() * 1e3, 2),
                  util::AsciiTable::num(spec * 1e3, 1)});
  }
  std::cout << cost << "\n";
  std::cout << "Imbalance 0 is the ideal ISSA; imbalance 1 recovers the NSSA-80r0 row of\n"
               "Table II.  The offset cost is strongly sublinear, so even a crude balancer\n"
               "recovers most of the benefit.\n";
  return 0;
}
