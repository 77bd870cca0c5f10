#include "issa/aging/stress.hpp"

#include <gtest/gtest.h>

namespace issa::aging {
namespace {

TEST(StressProfile, DutyCycleBasics) {
  const StressProfile p = StressProfile::duty_cycle(0.4, 1.0);
  EXPECT_DOUBLE_EQ(p.duty(), 0.4);
  p.validate();
}

TEST(StressProfile, FullStress) {
  const StressProfile p = StressProfile::duty_cycle(1.0, 1.1);
  EXPECT_DOUBLE_EQ(p.duty(), 1.0);
  p.validate();
}

TEST(StressProfile, RelaxedHasZeroDuty) {
  const StressProfile p = StressProfile::relaxed();
  EXPECT_DOUBLE_EQ(p.duty(), 0.0);
  p.validate();
}

TEST(StressProfile, RejectsBadInputs) {
  EXPECT_THROW(StressProfile::duty_cycle(-0.1, 1.0), std::invalid_argument);
  EXPECT_THROW(StressProfile::duty_cycle(1.1, 1.0), std::invalid_argument);
  EXPECT_THROW(StressProfile({{0.5, -1.0}}), std::invalid_argument);
  EXPECT_THROW(StressProfile({{1.5, 1.0}}), std::invalid_argument);
}

TEST(StressProfile, ValidateCatchesBadSum) {
  const StressProfile p({{0.3, 1.0}, {0.3, 0.0}});
  EXPECT_THROW(p.validate(), std::logic_error);
}

TEST(StressProfile, MultiPhaseDutyAndMeanVoltage) {
  const StressProfile p({{0.2, 1.0}, {0.2, 0.8}, {0.6, 0.0}});
  EXPECT_DOUBLE_EQ(p.duty(), 0.4);
  // Time-average of the stress voltage over the stressed phases.
  double volt_fraction = 0.0;
  for (const StressPhase& phase : p.phases()) volt_fraction += phase.fraction * phase.vstress;
  EXPECT_NEAR(volt_fraction / p.duty(), 0.9, 1e-12);
  p.validate();
}

TEST(StressProfile, AppendComposesWeightedProfiles) {
  StressProfile combined;
  combined.append(StressProfile::duty_cycle(1.0, 1.0), 0.5);
  combined.append(StressProfile::relaxed(), 0.5);
  combined.validate();
  EXPECT_DOUBLE_EQ(combined.duty(), 0.5);
}

}  // namespace
}  // namespace issa::aging
