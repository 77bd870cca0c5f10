// Quickstart: build a sense amplifier, give it process variation, and
// measure its two figures of merit — offset voltage and sensing delay.
//
//   $ ./quickstart [--metrics[=stem]] [--trace[=stem]] [--faults=spec] [--cache[=dir]]
//
// --help lists every accepted flag.
#include <cstdio>

#include "issa/analysis/mc_cache.hpp"
#include "issa/analysis/montecarlo.hpp"
#include "issa/core/run_context.hpp"
#include "issa/sa/builder.hpp"
#include "issa/sa/measure.hpp"
#include "issa/util/metrics.hpp"
#include "issa/util/units.hpp"
#include "issa/variation/mismatch.hpp"

int main(int argc, char** argv) {
  using namespace issa;

  // Parses the flags, arms --faults (e.g. 'lu.singular_pivot=p0.001'), opens
  // the --cache and turns on --metrics / --trace collection.
  core::RunContext run(argc, argv, "quickstart");

  // 1. A testbench for the standard latch-type SA of the paper's Fig. 1,
  //    at nominal conditions (Vdd = 1.0 V, 25 C, PTM-45-like devices).
  sa::SenseAmpConfig config = sa::nominal_config();
  sa::SenseAmpCircuit circuit = sa::build_nssa(config);

  // 2. One manufactured instance: draw Pelgrom-law threshold mismatch for
  //    every transistor (sample #7 of master seed 42).
  variation::apply_process_variation(circuit.netlist(), variation::default_mismatch(),
                                     /*master_seed=*/42, /*sample_index=*/7);

  // 3. Offset voltage: binary search on the bitline differential over full
  //    transient simulations, exactly like the paper's Monte-Carlo flow.
  const sa::OffsetResult offset = sa::measure_offset(circuit);
  std::printf("offset voltage : %+.2f mV  (%d transient simulations)\n",
              util::to_mV(offset.offset), offset.transients);

  // 4. Sensing delay: SAenable 50%% -> output 50%%, both read directions.
  const sa::DelayPair delay = sa::measure_delay(circuit);
  std::printf("sensing delay  : read-1 %.2f ps, read-0 %.2f ps (worst %.2f ps)\n",
              util::to_ps(delay.read_one), util::to_ps(delay.read_zero),
              util::to_ps(delay.worst()));

  // 5. Same instance as an Input Switching SA: two extra pass transistors,
  //    same measurement API.
  sa::SenseAmpCircuit issa = sa::build_issa(config);
  variation::apply_process_variation(issa.netlist(), variation::default_mismatch(), 42, 7);
  std::printf("ISSA offset    : %+.2f mV\n", util::to_mV(sa::measure_offset(issa).offset));
  std::printf("ISSA delay     : %.2f ps (overhead of the extra pass pair)\n",
              util::to_ps(sa::measure_delay(issa).worst()));

  // 6. With --cache[=dir]: a small Monte-Carlo offset distribution (16
  //    samples unless --mc says otherwise) through the persistent sample
  //    cache.  The first run simulates and stores every sample; run the
  //    same command again and the samples replay from disk as cache hits,
  //    bit-identically.
  if (analysis::mc_cache::enabled()) {
    analysis::Condition condition;
    condition.kind = sa::SenseAmpKind::kNssa;
    condition.config = config;
    analysis::McConfig mc = run.mc();
    if (!run.options().get_long("mc")) mc.iterations = 16;
    const analysis::OffsetDistribution dist =
        analysis::measure_offset_distribution(condition, mc);
    const analysis::mc_cache::CacheCounts counts = analysis::mc_cache::counts();
    std::printf("cached MC      : sigma %.1f mV over %zu samples (hits=%llu misses=%llu"
                " stores=%llu)\n",
                util::to_mV(dist.summary.stddev), dist.valid_count(),
                static_cast<unsigned long long>(counts.hits),
                static_cast<unsigned long long>(counts.misses),
                static_cast<unsigned long long>(counts.stores));
  }

  // 7. With --metrics: the solver work this run cost (Newton iterations, LU
  //    factorizations, ...).  Finishing the run writes it to
  //    <stem>.metrics.json; with --trace also <stem>.trace.json, the span
  //    timeline and any solver forensic bundles as Chrome trace-event JSON
  //    (load in Perfetto).  Pipe the .trace.json through `trace_report` for
  //    a terminal summary.
  if (util::metrics::enabled()) {
    const util::metrics::Snapshot snapshot = util::metrics::Registry::instance().snapshot();
    std::printf("\n%s", util::metrics::to_table(snapshot).c_str());
  }
  return run.finish() ? 0 : 1;
}
