#include "issa/digital/control.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "issa/digital/counter.hpp"
#include "issa/workload/bitstream.hpp"
#include "issa/workload/workload.hpp"

namespace issa::digital {
namespace {

TEST(ReadCounter, CountsAndWraps) {
  ReadCounter c(3);
  EXPECT_EQ(c.value(), 0u);
  for (int i = 0; i < 8; ++i) c.increment();
  EXPECT_EQ(c.value(), 0u);  // wrapped
}

TEST(ReadCounter, MsbIsSwitchSignal) {
  ReadCounter c(3);
  for (int i = 0; i < 3; ++i) c.increment();
  EXPECT_FALSE(c.msb());  // value 3 = 011
  c.increment();
  EXPECT_TRUE(c.msb());  // value 4 = 100
}

TEST(ReadCounter, SwitchPeriodIsHalfRange) {
  EXPECT_EQ(ReadCounter(8).switch_period(), 128u);  // the paper's case study
  EXPECT_EQ(ReadCounter(3).switch_period(), 4u);
}

TEST(ReadCounter, ClockGatesOnReadEnable) {
  ReadCounter c(4);
  c.clock(false);
  EXPECT_EQ(c.value(), 0u);
  c.clock(true);
  EXPECT_EQ(c.value(), 1u);
}

TEST(ReadCounter, RejectsBadWidth) {
  EXPECT_THROW(ReadCounter(0), std::invalid_argument);
  EXPECT_THROW(ReadCounter(64), std::invalid_argument);
}

TEST(ReadCounter, Reset) {
  ReadCounter c(4);
  c.increment();
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

// --- Table I truth table --------------------------------------------------

class TableITest : public ::testing::TestWithParam<std::tuple<bool, bool, bool, bool>> {};

TEST_P(TableITest, DecodeMatchesPaper) {
  const auto [sw, bar, expect_a, expect_b] = GetParam();
  const EnablePair p = decode_enables(bar, sw);
  EXPECT_EQ(p.a, expect_a);
  EXPECT_EQ(p.b, expect_b);
}

// Rows of Table I: (Switch, SAenableBar) -> (SAenableA, SAenableB).
INSTANTIATE_TEST_SUITE_P(PaperTableI, TableITest,
                         ::testing::Values(std::make_tuple(false, false, true, true),
                                           std::make_tuple(false, true, false, true),
                                           std::make_tuple(true, false, true, true),
                                           std::make_tuple(true, true, true, false)));

TEST(IssaController, SwapsEverySwitchPeriod) {
  IssaController ctl(3);  // swap every 4 reads
  int swaps = 0;
  bool last = ctl.switch_signal();
  for (int i = 0; i < 16; ++i) {
    ctl.process_read(false);
    if (ctl.switch_signal() != last) {
      ++swaps;
      last = ctl.switch_signal();
    }
  }
  EXPECT_EQ(swaps, 4);  // 16 reads / period 4
}

TEST(IssaController, BalancesAllZerosStream) {
  IssaController ctl(8);
  std::vector<bool> zeros(4096, false);
  ctl.process_stream(zeros);
  EXPECT_EQ(ctl.stats().external_ones, 0u);
  // Internally exactly half the reads saw a 1 thanks to the swapping.
  EXPECT_NEAR(ctl.stats().internal_one_fraction(), 0.5, 1e-9);
  EXPECT_NEAR(ctl.stats().internal_imbalance(), 0.0, 1e-9);
}

TEST(IssaController, BalancesAllOnesStream) {
  IssaController ctl(8);
  std::vector<bool> ones(4096, true);
  ctl.process_stream(ones);
  EXPECT_NEAR(ctl.stats().internal_one_fraction(), 0.5, 1e-9);
}

TEST(IssaController, BalancedStreamStaysBalanced) {
  IssaController ctl(8);
  const auto w = workload::workload_from_name("80r0r1");
  ctl.process_stream(workload::generate_read_stream(w, 100000, 7));
  EXPECT_NEAR(ctl.stats().internal_one_fraction(), 0.5, 0.01);
}

class WorkloadBalancingTest : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadBalancingTest, InternalImbalanceIsTiny) {
  // The design claim of Sec. III: any stationary external sequence becomes
  // balanced at the internal nodes.
  IssaController ctl(8);
  const auto w = workload::workload_from_name(GetParam());
  ctl.process_stream(workload::generate_read_stream(w, 65536, 99));
  EXPECT_LT(ctl.stats().internal_imbalance(), 0.02) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(PaperWorkloads, WorkloadBalancingTest,
                         ::testing::Values("80r0r1", "80r0", "80r1", "20r0r1", "20r0", "20r1"));

TEST(IssaController, OutputInvertTracksSwitch) {
  IssaController ctl(2);  // swap every 2 reads
  EXPECT_FALSE(ctl.output_invert());
  ctl.process_read(true);
  ctl.process_read(true);
  EXPECT_TRUE(ctl.output_invert());
}

TEST(IssaController, ProcessReadReturnsInternalValue) {
  IssaController ctl(2);
  // First two reads unswapped: internal == external.
  EXPECT_TRUE(ctl.process_read(true));
  EXPECT_FALSE(ctl.process_read(false));
  // Now swapped: internal == !external.
  EXPECT_FALSE(ctl.process_read(true));
}

TEST(IssaController, ResetClearsEverything) {
  IssaController ctl(4);
  ctl.process_read(true);
  ctl.reset();
  EXPECT_EQ(ctl.stats().reads, 0u);
  EXPECT_FALSE(ctl.switch_signal());
}

TEST(IssaController, SwappedReadsAreCounted) {
  IssaController ctl(2);  // period 2
  for (int i = 0; i < 8; ++i) ctl.process_read(false);
  EXPECT_EQ(ctl.stats().swapped_reads, 4u);
}

TEST(EnableWaves, UnswappedUsesAPath) {
  const auto w = IssaController::make_enable_waves(1.0, 10e-12, 2e-12, false);
  EXPECT_DOUBLE_EQ(w.saenable_a.value(0.0), 0.0);   // A pass pair conducting
  EXPECT_DOUBLE_EQ(w.saenable_a.value(20e-12), 1.0);
  EXPECT_DOUBLE_EQ(w.saenable_b.value(0.0), 1.0);   // B pair pinned off
  EXPECT_DOUBLE_EQ(w.saenable_b.value(20e-12), 1.0);
}

TEST(EnableWaves, SwappedUsesBPath) {
  const auto w = IssaController::make_enable_waves(1.0, 10e-12, 2e-12, true);
  EXPECT_DOUBLE_EQ(w.saenable_b.value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(w.saenable_a.value(0.0), 1.0);
}

TEST(EnableWaves, SaenableComplementary) {
  const auto w = IssaController::make_enable_waves(1.0, 10e-12, 2e-12, false);
  for (double t : {0.0, 10.5e-12, 11e-12, 15e-12}) {
    EXPECT_NEAR(w.saenable.value(t) + w.saenable_bar.value(t), 1.0, 1e-12);
  }
}

}  // namespace
}  // namespace issa::digital
