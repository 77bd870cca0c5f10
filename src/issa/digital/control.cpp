#include "issa/digital/control.hpp"

namespace issa::digital {

EnablePair decode_enables(bool saenable_bar, bool switch_signal) noexcept {
  EnablePair p;
  p.a = !(saenable_bar && !switch_signal);
  p.b = !(saenable_bar && switch_signal);
  return p;
}

IssaController::IssaController(unsigned counter_bits) : counter_(counter_bits) {}

bool IssaController::process_read(bool bit) {
  const bool swapped = counter_.msb();
  counter_.increment();
  const bool internal = swapped ? !bit : bit;
  ++stats_.reads;
  if (bit) ++stats_.external_ones;
  if (internal) ++stats_.internal_ones;
  if (swapped) ++stats_.swapped_reads;
  return internal;
}

void IssaController::process_stream(const std::vector<bool>& bits) {
  for (const bool b : bits) process_read(b);
}

void IssaController::reset() {
  counter_.reset();
  stats_ = ReadStreamStats{};
}

IssaController::EnableWaves IssaController::make_enable_waves(double vdd, double t_fire,
                                                              double t_rise, bool swapped) {
  EnableWaves w;
  w.saenable = circuit::SourceWave::step(0.0, vdd, t_fire, t_rise);
  w.saenable_bar = circuit::SourceWave::step(vdd, 0.0, t_fire, t_rise);
  // The active pass-transistor pair tracks SAenable (low while tracking, high
  // when the latch fires); the inactive pair is pinned off at Vdd.
  if (!swapped) {
    w.saenable_a = circuit::SourceWave::step(0.0, vdd, t_fire, t_rise);
    w.saenable_b = circuit::SourceWave::dc(vdd);
  } else {
    w.saenable_a = circuit::SourceWave::dc(vdd);
    w.saenable_b = circuit::SourceWave::step(0.0, vdd, t_fire, t_rise);
  }
  return w;
}

}  // namespace issa::digital
