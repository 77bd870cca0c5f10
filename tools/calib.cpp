// Calibration harness: prints every DESIGN.md section-5 anchor next to its
// paper target.  Used when retuning the device cards (delay anchors), the
// Pelgrom coefficients (t = 0 sigma), or the BTI parameters (aged mu/sigma).
//
//   $ ./issa_calibrate [samples]   (default 100, at least 2; the paper uses 400)
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <vector>
#include "issa/sa/builder.hpp"
#include "issa/sa/measure.hpp"
#include "issa/variation/mismatch.hpp"
#include "issa/aging/bti_model.hpp"
#include "issa/workload/stress_map.hpp"
#include "issa/util/statistics.hpp"
#include "issa/util/thread_pool.hpp"
#include "issa/util/units.hpp"

using namespace issa;

struct McOut { double mu, sigma; };

McOut offset_mc(sa::SenseAmpKind kind, sa::SenseAmpConfig cfg, const aging::DeviceStressMap* stress,
                double time_s, int n) {
  std::vector<double> offs(n);
  util::ThreadPool::global().parallel_for(0, n, [&](std::size_t i) {
    auto c = sa::build_sense_amp(kind, cfg);
    variation::apply_process_variation(c.netlist(), variation::default_mismatch(), 42, i);
    if (stress && time_s > 0)
      aging::apply_bti_aging(c.netlist(), aging::default_bti(), *stress, time_s,
                             cfg.temperature_k(), 42, i);
    offs[i] = sa::measure_offset(c).offset;
  });
  util::RunningStats rs;
  for (double o : offs) rs.add(o);
  return {rs.mean() * 1e3, rs.stddev() * 1e3};
}

double delay_mean(sa::SenseAmpKind kind, sa::SenseAmpConfig cfg, const aging::DeviceStressMap* stress,
                  double time_s, int n) {
  std::vector<double> ds(n);
  util::ThreadPool::global().parallel_for(0, n, [&](std::size_t i) {
    auto c = sa::build_sense_amp(kind, cfg);
    variation::apply_process_variation(c.netlist(), variation::default_mismatch(), 42, i);
    if (stress && time_s > 0)
      aging::apply_bti_aging(c.netlist(), aging::default_bti(), *stress, time_s,
                             cfg.temperature_k(), 42, i);
    ds[i] = sa::measure_delay(c).mean();
  });
  util::RunningStats rs;
  for (double d : ds) rs.add(d);
  return rs.mean() * 1e12;
}

// The Monte-Carlo sample count: the one optional argument, a whole number of
// at least 2 (a standard deviation takes two samples).  --help prints the
// usage line and exits 0; anything else exits 2 with it on stderr.
int sample_count(int argc, char** argv) {
  constexpr const char* kUsage = "usage: issa_calibrate [samples]";
  if (argc == 1) return 100;
  const std::string_view arg = argv[1];
  if (argc == 2 && arg == "--help") {
    std::printf("%s\n", kUsage);
    std::exit(0);
  }
  int n = 0;
  const auto [end, ec] = std::from_chars(arg.data(), arg.data() + arg.size(), n);
  if (argc > 2 || ec != std::errc() || end != arg.data() + arg.size() || n < 2) {
    std::fprintf(stderr, "samples must be a whole number >= 2: %s\n%s\n", argv[argc - 1], kUsage);
    std::exit(2);
  }
  return n;
}

int main(int argc, char** argv) {
  const int N = sample_count(argc, argv);
  auto cfg = sa::nominal_config();

  // t=0 anchors
  auto o0 = offset_mc(sa::SenseAmpKind::kNssa, cfg, nullptr, 0, N);
  std::printf("NSSA t=0 offset: mu=%.2f sigma=%.2f mV   (paper 0.1 / 14.8)\n", o0.mu, o0.sigma);
  std::printf("NSSA t=0 delay 1.0V/25C: %.2f ps (paper 13.6)\n",
              delay_mean(sa::SenseAmpKind::kNssa, cfg, nullptr, 0, 16));
  { auto c=cfg; c.vdd=0.9; std::printf("  0.9V: %.2f ps (paper 17.2)\n", delay_mean(sa::SenseAmpKind::kNssa,c,nullptr,0,16)); }
  { auto c=cfg; c.vdd=1.1; std::printf("  1.1V: %.2f ps (paper 11.3)\n", delay_mean(sa::SenseAmpKind::kNssa,c,nullptr,0,16)); }
  { auto c=cfg; c.temperature_c=75; std::printf("  75C: %.2f ps (paper 17.1)\n", delay_mean(sa::SenseAmpKind::kNssa,c,nullptr,0,16)); }
  { auto c=cfg; c.temperature_c=125; std::printf("  125C: %.2f ps (paper 21.3)\n", delay_mean(sa::SenseAmpKind::kNssa,c,nullptr,0,16)); }
  std::printf("ISSA t=0 delay: %.2f ps (paper 13.9)\n",
              delay_mean(sa::SenseAmpKind::kIssa, cfg, nullptr, 0, 16));
  { auto c = sa::build_issa(cfg);
    auto oi = offset_mc(sa::SenseAmpKind::kIssa, cfg, nullptr, 0, N);
    std::printf("ISSA t=0 offset: mu=%.2f sigma=%.2f mV (paper 0.1 / 14.7)\n", oi.mu, oi.sigma); }

  // aged anchors @ 1e8s
  const double T = 1e8;
  auto w80r0 = workload::workload_from_name("80r0");
  auto w80bal = workload::workload_from_name("80r0r1");
  auto w20r0 = workload::workload_from_name("20r0");
  {
    auto sm = workload::nssa_stress_map(w80r0, cfg.vdd);
    auto o = offset_mc(sa::SenseAmpKind::kNssa, cfg, &sm, T, N);
    std::printf("NSSA 80r0 25C: mu=%.2f sigma=%.2f (paper 17.3 / 15.7)\n", o.mu, o.sigma);
  }
  {
    auto sm = workload::nssa_stress_map(w80bal, cfg.vdd);
    auto o = offset_mc(sa::SenseAmpKind::kNssa, cfg, &sm, T, N);
    std::printf("NSSA 80r0r1 25C: mu=%.2f sigma=%.2f (paper -0.2 / 16.2)\n", o.mu, o.sigma);
  }
  {
    auto sm = workload::nssa_stress_map(w20r0, cfg.vdd);
    auto o = offset_mc(sa::SenseAmpKind::kNssa, cfg, &sm, T, N);
    std::printf("NSSA 20r0 25C: mu=%.2f sigma=%.2f (paper 12.8 / 15.6)\n", o.mu, o.sigma);
  }
  {
    auto c = cfg; c.temperature_c = 125;
    auto sm = workload::nssa_stress_map(w80r0, c.vdd);
    auto o = offset_mc(sa::SenseAmpKind::kNssa, c, &sm, T, N);
    std::printf("NSSA 80r0 125C: mu=%.2f sigma=%.2f (paper 79.1 / 17.9)\n", o.mu, o.sigma);
  }
  {
    auto c = cfg; c.vdd = 1.1;
    auto sm = workload::nssa_stress_map(w80r0, c.vdd);
    auto o = offset_mc(sa::SenseAmpKind::kNssa, c, &sm, T, N);
    std::printf("NSSA 80r0 +10%%Vdd: mu=%.2f sigma=%.2f (paper 27.3 / 16.2)\n", o.mu, o.sigma);
  }
  {
    auto sm = workload::issa_stress_map(w80r0, cfg.vdd);
    auto o = offset_mc(sa::SenseAmpKind::kIssa, cfg, &sm, T, N);
    std::printf("ISSA 80%% 25C: mu=%.2f sigma=%.2f (paper -0.2 / 16.1)\n", o.mu, o.sigma);
  }
  return 0;
}
