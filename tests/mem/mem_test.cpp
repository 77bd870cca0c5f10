#include <gtest/gtest.h>

#include <cmath>

#include "issa/mem/bitline.hpp"
#include "issa/mem/column.hpp"
#include "issa/mem/overhead.hpp"
#include "issa/mem/sram_cell.hpp"

namespace issa::mem {
namespace {

constexpr double kT25 = 298.15;

TEST(SramCell, ReadCurrentIsMicroampScale) {
  const SramCell cell;
  const double i = cell.read_current(1.0, 1.0, kT25);
  EXPECT_GT(i, 1e-6);
  EXPECT_LT(i, 1e-3);
}

TEST(SramCell, NoBitlineVoltageNoCurrent) {
  const SramCell cell;
  EXPECT_DOUBLE_EQ(cell.read_current(0.0, 1.0, kT25), 0.0);
}

TEST(SramCell, CurrentFallsWithTemperature) {
  const SramCell cell;
  EXPECT_GT(cell.read_current(1.0, 1.0, kT25), cell.read_current(1.0, 1.0, 398.15));
}

TEST(SramCell, StrongerDriverMoreCurrent) {
  SramCellParams weak;
  weak.driver_wl = 1.0;
  SramCellParams strong;
  strong.driver_wl = 4.0;
  EXPECT_GT(SramCell(strong).read_current(1.0, 1.0, kT25),
            SramCell(weak).read_current(1.0, 1.0, kT25));
}

TEST(SramCell, EffectiveCurrentBetweenEndpoints) {
  const SramCell cell;
  const double i0 = cell.read_current(1.0, 1.0, kT25);
  const double i1 = cell.read_current(0.8, 1.0, kT25);
  const double eff = cell.effective_discharge_current(0.2, 1.0, kT25);
  EXPECT_GE(eff, std::min(i0, i1));
  EXPECT_LE(eff, std::max(i0, i1));
}

TEST(SramCell, RejectsBadGeometry) {
  SramCellParams p;
  p.access_wl = 0.0;
  EXPECT_THROW(SramCell{p}, std::invalid_argument);
}

TEST(Bitline, TotalCapacitanceSums) {
  BitlineParams p;
  p.rows = 100;
  p.wire_cap = 5e-15;
  p.cell.bitline_cap_per_cell = 0.1e-15;
  EXPECT_NEAR(p.total_cap(), 15e-15, 1e-20);
}

TEST(Bitline, DischargeTimeScalesWithSwing) {
  const Bitline bl;
  const double t1 = bl.discharge_time(0.05, 1.0, kT25);
  const double t2 = bl.discharge_time(0.10, 1.0, kT25);
  EXPECT_GT(t2, t1 * 1.7);  // roughly linear in swing
  EXPECT_GT(t1, 1e-12);
  EXPECT_LT(t2, 10e-9);
}

TEST(Bitline, MoreRowsSlowBitline) {
  BitlineParams small;
  small.rows = 64;
  BitlineParams big;
  big.rows = 512;
  EXPECT_GT(Bitline(big).discharge_time(0.1, 1.0, kT25),
            Bitline(small).discharge_time(0.1, 1.0, kT25));
}

TEST(Bitline, InputValidation) {
  const Bitline bl;
  EXPECT_THROW(bl.discharge_time(0.0, 1.0, kT25), std::invalid_argument);
  EXPECT_THROW(bl.discharge_time(1.0, 1.0, kT25), std::invalid_argument);
  BitlineParams p;
  p.rows = 0;
  EXPECT_THROW(Bitline{p}, std::invalid_argument);
}

TEST(Column, TimingDecomposes) {
  const ColumnReadPath path;
  const ReadTiming t = path.timing(0.09, 14e-12, 1.0, kT25);
  EXPECT_GT(t.bitline_develop, 0.0);
  EXPECT_DOUBLE_EQ(t.sense, 14e-12);
  EXPECT_NEAR(t.total(), t.wordline + t.bitline_develop + t.sense + t.output, 1e-18);
}

TEST(Column, SmallerSpecIsFasterMemory) {
  // The paper's system-level claim: the ISSA's lower aged spec shortens the
  // bitline-develop phase and therefore the total read time.
  const ColumnReadPath path;
  const double aged_nssa_spec = 0.1865;  // Table IV 125C 80r0
  const double aged_issa_spec = 0.1139;  // Table IV 125C ISSA
  const ReadTiming slow = path.timing(aged_nssa_spec, 29e-12, 1.0, kT25);
  const ReadTiming fast = path.timing(aged_issa_spec, 26e-12, 1.0, kT25);
  EXPECT_LT(fast.total(), slow.total());
  EXPECT_GT(slow.total() / fast.total(), 1.10);
}

TEST(Overhead, TransistorCountsMatchFigures) {
  const TransistorCounts c = transistor_counts(8);
  EXPECT_EQ(c.baseline_sa, 12u);      // Fig. 1
  EXPECT_EQ(c.issa_sa, 14u);          // Fig. 2: + M3/M4
  EXPECT_GT(c.control_block, 100u);   // 8-bit counter dominates
}

TEST(Overhead, AreaOverheadIsMarginal) {
  // Sec. IV-C: the area overhead is "very marginal" because the cell matrix
  // dominates.
  const ArrayGeometry geometry;
  const AreaBreakdown a = area_breakdown(geometry, sa::SenseAmpSizing{});
  EXPECT_GT(a.cell_array / a.baseline_total(), 0.7);  // paper: cells > 70%
  EXPECT_LT(a.overhead_fraction(), 0.02);             // ISSA adds < 2%
  EXPECT_GT(a.overhead_fraction(), 0.0);
}

TEST(Overhead, SharingControlAmortizesArea) {
  ArrayGeometry few;
  few.columns_per_control = 8;
  ArrayGeometry many;
  many.columns_per_control = 128;
  const auto a_few = area_breakdown(few, sa::SenseAmpSizing{});
  const auto a_many = area_breakdown(many, sa::SenseAmpSizing{});
  EXPECT_GT(a_few.issa_control, a_many.issa_control);
}

TEST(Overhead, EnergyOverheadIsNegligible) {
  const ArrayGeometry geometry;
  const EnergyBreakdown e = energy_breakdown(geometry, 1.0, 0.1, 20e-15);
  EXPECT_LT(e.overhead_fraction(), 0.01);  // well under 1% per read
  EXPECT_GT(e.read_dynamic, 0.0);
}

TEST(Overhead, InputValidation) {
  ArrayGeometry bad;
  bad.columns = 0;
  EXPECT_THROW(area_breakdown(bad, sa::SenseAmpSizing{}), std::invalid_argument);
  EXPECT_THROW(energy_breakdown(ArrayGeometry{}, 0.0, 0.1, 1e-15), std::invalid_argument);
}

}  // namespace
}  // namespace issa::mem
