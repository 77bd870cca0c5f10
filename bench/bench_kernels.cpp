// Micro-benchmarks of the simulator kernels (google-benchmark): MOSFET
// evaluation one device at a time and as a testbench batch, LU
// factorization at MNA sizes, multi-column solves, DC solve, full sensing
// transient with and without sensitivities, offset search, trap-set
// construction and one device's BTI draw.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <span>
#include <string_view>
#include <vector>

#include "issa/aging/bti_model.hpp"
#include "issa/circuit/simulator.hpp"
#include "issa/core/run_context.hpp"
#include "issa/device/mosfet.hpp"
#include "issa/linalg/lu.hpp"
#include "issa/sa/builder.hpp"
#include "issa/sa/measure.hpp"
#include "issa/util/rng.hpp"
#include "issa/variation/mismatch.hpp"
#include "issa/workload/stress_map.hpp"

namespace {

using namespace issa;

// One evaluation through the overload the simulator calls, with the card's
// temperature constants computed once.  Arg 0: source tied to the bulk
// (vsb = 0); arg 1: source lifted 0.2 V above it.
void BM_MosfetEval(benchmark::State& state) {
  device::MosInstance inst;
  inst.card = device::ptm45_nmos();
  inst.type = device::MosType::kNmos;
  inst.w_over_l = 17.8;
  const device::MosThermal thermal = device::mos_thermal(inst.card, 298.15);
  const double vs = state.range(0) == 0 ? 0.0 : 0.2;
  double vg = 0.3;
  for (auto _ : state) {
    vg = vg > 1.0 ? 0.3 : vg + 1e-6;  // defeat constant folding
    benchmark::DoNotOptimize(device::evaluate_mosfet(inst, {vg + vs, 1.0, vs, 0.0}, thermal));
  }
}
BENCHMARK(BM_MosfetEval)->Arg(0)->Arg(1);

// One batch call over every MOSFET of a testbench, as each Newton assembly
// makes it, at the node voltages 6 ps into a resolving NSSA (arg 0) or ISSA
// (arg 1) transient at vin = 20 mV.  The per_device counter is the time per
// device, to set beside BM_MosfetEval's time per iteration.
void BM_MosfetBatch(benchmark::State& state) {
  const sa::SenseAmpKind kind =
      state.range(0) == 0 ? sa::SenseAmpKind::kNssa : sa::SenseAmpKind::kIssa;
  auto circuit = sa::build_sense_amp(kind, sa::nominal_config());
  circuit.set_input_differential(0.02);
  const double temperature_k = circuit.config().temperature_k();
  circuit::TransientOptions opt;
  opt.tstop = circuit.config().timing.t_fire + 6e-12;
  opt.dt = circuit.config().timing.dt;
  opt.dc_guess = circuit.dc_guess(0.02);
  const circuit::TransientResult run =
      circuit::Simulator(circuit.netlist(), temperature_k).run_transient(opt);
  auto at = [&](circuit::NodeId node) { return run.node_wave(node).back(); };

  std::vector<device::MosConstants> devices;
  std::vector<device::MosTerminals> terminals;
  for (const circuit::Mosfet& m : circuit.netlist().mosfets()) {
    devices.push_back(
        device::pack_mosfet(m.inst, device::mos_thermal(m.inst.card, temperature_k)));
    terminals.push_back({at(m.gate), at(m.drain), at(m.source), at(m.bulk)});
  }
  std::vector<device::MosEval> out(devices.size());
  for (auto _ : state) {
    terminals[0].vg += 1e-12;  // defeat constant folding
    device::evaluate_mosfets(devices, terminals, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["devices"] = static_cast<double>(devices.size());
  state.counters["per_device"] = benchmark::Counter(
      static_cast<double>(devices.size()),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_MosfetBatch)->Arg(0)->Arg(1);

void BM_LuFactorizeSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(1);
  linalg::Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.normal();
    a(r, r) += static_cast<double>(n);
  }
  const std::vector<double> b0(n, 1.0);
  // As each Newton iteration does: factorize a fresh copy of the matrix in
  // place, then solve in place (the copies reuse their storage).
  linalg::Matrix factors;
  std::vector<double> b;
  linalg::LuFactorization lu;
  for (auto _ : state) {
    factors = a;
    b = b0;
    lu.factorize(factors);
    lu.solve_in_place(b);
    benchmark::DoNotOptimize(b.data());
    benchmark::ClobberMemory();
  }
}
// 6 is the compiled NSSA/ISSA unknown count (DESIGN.md §16).
BENCHMARK(BM_LuFactorizeSolve)->Arg(6)->Arg(8)->Arg(16)->Arg(32);

// One solve pass over 1, 2 or 3 right-hand sides with the factors of a 6 x 6
// system: a transient step that carries two sensitivities solves its update
// and both parameter columns in one 3-column pass.
void BM_LuSolveColumns(benchmark::State& state) {
  constexpr std::size_t n = 6;  // the NSSA/ISSA unknown count
  const auto count = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(1);
  linalg::Matrix factors(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) factors(r, c) = rng.normal();
    factors(r, r) += static_cast<double>(n);
  }
  linalg::LuFactorization lu;
  lu.factorize(factors);
  std::vector<std::vector<double>> b(count, std::vector<double>(n, 1.0));
  std::vector<std::span<double>> columns(b.begin(), b.end());
  for (auto _ : state) {
    for (auto& column : b) std::fill(column.begin(), column.end(), 1.0);
    lu.solve_in_place(columns);
    benchmark::DoNotOptimize(b.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_LuSolveColumns)->Arg(1)->Arg(2)->Arg(3);

void BM_SenseAmpDcSolve(benchmark::State& state) {
  auto circuit = sa::build_nssa(sa::nominal_config());
  circuit.set_input_differential(0.05);
  for (auto _ : state) {
    circuit::Simulator sim(circuit.netlist(), 298.15);
    circuit::DcOptions opt;
    opt.initial_guess = circuit.dc_guess(0.05);
    benchmark::DoNotOptimize(sim.solve_dc(opt));
  }
}
BENCHMARK(BM_SenseAmpDcSolve);

void BM_SenseTransient(benchmark::State& state) {
  auto circuit = sa::build_nssa(sa::nominal_config());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sa::run_sense(circuit, 0.05).read_one);
  }
}
BENCHMARK(BM_SenseTransient)->Unit(benchmark::kMillisecond);

// The same transient (a fresh simulator, every node recorded) also carrying
// the sensitivities to V(BL) and V(BLBar) that each fast-path offset probe
// carries; its excess over BM_SenseTransient is their cost.
void BM_SenseTransientWithSensitivity(benchmark::State& state) {
  auto circuit = sa::build_nssa(sa::nominal_config());
  circuit.set_input_differential(0.05);
  circuit::TransientOptions opt;
  opt.tstop = circuit.config().timing.t_stop;
  opt.dt = circuit.config().timing.dt;
  opt.dc_guess = circuit.dc_guess(0.05);
  opt.sensitivity_to = {circuit.node_bl(), circuit.node_blbar()};
  for (auto _ : state) {
    circuit::Simulator sim(circuit.netlist(), circuit.config().temperature_k());
    benchmark::DoNotOptimize(sim.run_transient(opt).sensitivity(0));
  }
}
BENCHMARK(BM_SenseTransientWithSensitivity)->Unit(benchmark::kMillisecond);

// End-to-end offset search over a handful of mismatch samples — the same
// workload the Monte-Carlo distribution loop runs per sample.  Several
// samples per iteration so the measurement reflects the estimator's typical
// accuracy rather than one lucky or unlucky draw.
std::vector<sa::SenseAmpCircuit> offset_search_samples() {
  std::vector<sa::SenseAmpCircuit> circuits;
  for (int sample = 1; sample <= 4; ++sample) {
    auto c = sa::build_nssa(sa::nominal_config());
    variation::apply_process_variation(c.netlist(), variation::default_mismatch(), 42,
                                       static_cast<std::uint64_t>(sample));
    circuits.push_back(std::move(c));
  }
  return circuits;
}

// Fast path at default options (a first probe at the offset model's
// prediction that reads the flip off its split sensitivity, with the
// bracket search behind it).  Its work counts are guarded deterministically
// by the Measure.WarmStartCutsTransientCount test.
void BM_OffsetSearchFast(benchmark::State& state) {
  auto circuits = offset_search_samples();
  for (auto _ : state) {
    for (auto& circuit : circuits) {
      benchmark::DoNotOptimize(sa::measure_offset(circuit).offset);
    }
  }
}
BENCHMARK(BM_OffsetSearchFast)->Unit(benchmark::kMillisecond);

void BM_TrapSetSampling(benchmark::State& state) {
  device::MosInstance inst;
  inst.card = device::ptm45_nmos();
  inst.type = device::MosType::kNmos;
  inst.w_over_l = 17.8;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(aging::sample_trap_set(aging::default_bti(), inst, seed++));
  }
}
BENCHMARK(BM_TrapSetSampling);

// One device's draw after 1e8 s of 80r0 at 25 or 125 C (the argument):
// hot, fewer traps are screened out as certainly empty.
void BM_BtiSampleShift(benchmark::State& state) {
  device::MosInstance inst;
  inst.card = device::ptm45_nmos();
  inst.type = device::MosType::kNmos;
  inst.w_over_l = 17.8;
  const auto map = workload::nssa_stress_map(workload::workload_from_name("80r0"), 1.0);
  const auto& profile = map.at("Mdown");
  const double temperature_k = 273.15 + static_cast<double>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        aging::sample_bti_shift(aging::default_bti(), inst, profile, 1e8, temperature_k, seed++));
  }
}
BENCHMARK(BM_BtiSampleShift)->Arg(25)->Arg(125);

}  // namespace

// Custom main instead of BENCHMARK_MAIN so the run flags work here too: the
// RunContext accepts them plus google-benchmark's own --benchmark_* flags,
// and only the latter reach benchmark::Initialize (which rejects the rest).
int main(int argc, char** argv) {
  const issa::core::RunContext run(argc, argv, "bench_kernels", {"benchmark_*"});
  std::vector<char*> args = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).starts_with("--benchmark_")) args.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
