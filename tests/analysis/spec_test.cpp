#include "issa/analysis/spec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "issa/analysis/montecarlo.hpp"
#include "issa/util/normal.hpp"
#include "issa/util/rng.hpp"

namespace issa::analysis {
namespace {

TEST(Spec, SigmaMultiplierIsSixPointOne) {
  // Paper Sec. II-C: fr = 1e-9 leads to Voffset = 6.1 sigma for mu = 0.
  EXPECT_NEAR(spec_sigma_multiplier(1e-9), 6.1, 0.02);
}

TEST(Spec, CenteredSpecIsMultiplierTimesSigma) {
  const double sigma = 14.8e-3;
  const double spec = offset_voltage_spec(0.0, sigma);
  EXPECT_NEAR(spec, spec_sigma_multiplier(1e-9) * sigma, 1e-6);
  // ... which reproduces the paper's 90.2 mV t=0 spec.
  EXPECT_NEAR(spec * 1e3, 90.2, 0.8);
}

TEST(Spec, MeanShiftWidensSpec) {
  const double sigma = 15e-3;
  const double centered = offset_voltage_spec(0.0, sigma);
  const double shifted = offset_voltage_spec(17.3e-3, sigma);
  EXPECT_GT(shifted, centered);
  // For a shift well inside the window, the widening approaches |mu|.
  EXPECT_NEAR(shifted - centered, 17.3e-3, 2e-3);
}

TEST(Spec, SpecIsSymmetricInMu) {
  const double sigma = 15e-3;
  EXPECT_NEAR(offset_voltage_spec(10e-3, sigma), offset_voltage_spec(-10e-3, sigma), 1e-9);
}

TEST(Spec, ReproducesPaperTableIIRows) {
  // NSSA 80r0 aged: mu = 17.3 mV, sigma = 15.7 mV -> spec 111.5 mV.
  EXPECT_NEAR(offset_voltage_spec(17.3e-3, 15.7e-3) * 1e3, 111.5, 1.5);
  // NSSA 80r0r1 aged: mu = -0.2, sigma = 16.2 -> 99.0 mV.
  EXPECT_NEAR(offset_voltage_spec(-0.2e-3, 16.2e-3) * 1e3, 99.0, 1.0);
  // Table IV 125C 80r0: mu = 79.1, sigma = 17.9 -> 186.5 mV.
  EXPECT_NEAR(offset_voltage_spec(79.1e-3, 17.9e-3) * 1e3, 186.5, 2.0);
}

TEST(Spec, MonotoneInSigma) {
  double prev = 0.0;
  for (double sigma : {5e-3, 10e-3, 15e-3, 20e-3}) {
    const double spec = offset_voltage_spec(5e-3, sigma);
    EXPECT_GT(spec, prev);
    prev = spec;
  }
}

TEST(Spec, FailureRateRoundTrip) {
  for (double fr : {1e-6, 1e-9, 1e-3}) {
    const double spec = offset_voltage_spec(8e-3, 12e-3, fr);
    EXPECT_NEAR(failure_rate_of_spec(8e-3, 12e-3, spec) / fr, 1.0, 1e-3) << fr;
  }
}

TEST(Spec, LooserFailureRateShrinksSpec) {
  EXPECT_LT(offset_voltage_spec(0.0, 15e-3, 1e-3), offset_voltage_spec(0.0, 15e-3, 1e-9));
}

TEST(Spec, FailureRateEdgeCases) {
  EXPECT_DOUBLE_EQ(failure_rate_of_spec(0.0, 1.0, -1.0), 1.0);
  EXPECT_NEAR(failure_rate_of_spec(0.0, 1.0, 0.0), 1.0, 1e-12);
}

// Property: spec and failure rate are inverse functions of each other over
// the whole regime the paper's tables touch — means up to 10 sigma off
// center and failure rates down to 1e-12.
TEST(SpecProperty, FailureRateRoundTripAcrossExtremes) {
  for (const double sigma : {1e-3, 14.8e-3, 50e-3}) {
    for (const double mu_sigmas : {-10.0, -3.0, -0.5, 0.0, 0.5, 3.0, 10.0}) {
      for (const double fr : {1e-3, 1e-6, 1e-9, 1e-12}) {
        const double mu = mu_sigmas * sigma;
        const double spec = offset_voltage_spec(mu, sigma, fr);
        const double fr_back = failure_rate_of_spec(mu, sigma, spec);
        EXPECT_NEAR(fr_back / fr, 1.0, 1e-2)
            << "mu=" << mu << " sigma=" << sigma << " fr=" << fr;
      }
    }
  }
}

TEST(SpecProperty, CenteredSpecIsSixPointOneSigmaAtPaperRate) {
  // mu = 0 limit: spec(1e-9) must be 6.1 sigma for every sigma.
  for (const double sigma : {1e-3, 5e-3, 14.8e-3, 30e-3, 100e-3}) {
    EXPECT_NEAR(offset_voltage_spec(0.0, sigma, kPaperFailureRate) / sigma, 6.1, 0.02)
        << "sigma=" << sigma;
  }
}

TEST(SpecProperty, SpecGrowsWithMeanMagnitudeAndTighterRate) {
  const double sigma = 12e-3;
  double prev = 0.0;
  for (const double mu_sigmas : {0.0, 1.0, 3.0, 10.0}) {
    const double spec = offset_voltage_spec(mu_sigmas * sigma, sigma, 1e-9);
    EXPECT_GT(spec, prev);
    prev = spec;
  }
  // Far off center, the spec approaches |mu| + one-sided quantile.
  const double far = offset_voltage_spec(10.0 * sigma, sigma, 1e-9);
  EXPECT_NEAR(far, 10.0 * sigma + util::normal_quantile(1.0 - 1e-9) * sigma, 1e-3);
}

TEST(Spec, InputValidation) {
  EXPECT_THROW(offset_voltage_spec(0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(offset_voltage_spec(0.0, -1.0), std::invalid_argument);
  EXPECT_THROW(offset_voltage_spec(0.0, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(offset_voltage_spec(0.0, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(spec_sigma_multiplier(0.0), std::invalid_argument);
  EXPECT_THROW(failure_rate_of_spec(0.0, 0.0, 1.0), std::invalid_argument);
}

// The fraction of `offsets` outside the window [-swing, +swing].
double fraction_outside(const std::vector<double>& offsets, double swing) {
  const auto outside = std::count_if(offsets.begin(), offsets.end(),
                                     [swing](double o) { return std::fabs(o) > swing; });
  return static_cast<double>(outside) / static_cast<double>(offsets.size());
}

TEST(Spec, FailureRateMatchesSyntheticNormalAtRelaxedRate) {
  // Draw a large synthetic normal population and compare the analytic
  // failure rate against the empirical fraction at ~1% rates.
  util::Xoshiro256 rng(7);
  const double mu = 8e-3;
  const double sigma = 15e-3;
  std::vector<double> samples(200000);
  for (auto& s : samples) s = rng.normal(mu, sigma);
  const double swing = offset_voltage_spec(mu, sigma, 1e-2);
  const double analytic = failure_rate_of_spec(mu, sigma, swing);
  EXPECT_NEAR(fraction_outside(samples, swing) / analytic, 1.0, 0.1);
}

TEST(Spec, MeasuredOffsetsBehaveGaussian) {
  // End-to-end sanity: the simulated offset population's empirical tail at a
  // relaxed rate is consistent with the fitted normal (validates using
  // N(mu, sigma) inside Eq. 3 for the simulated SA).
  const Condition c =
      make_condition(sa::SenseAmpKind::kNssa, workload::workload_from_name("80r0r1"), 0.0);
  McConfig mc;
  mc.iterations = 60;
  const OffsetDistribution dist = measure_offset_distribution(c, mc);
  // ~10% two-sided rate -> expect ~6 of 60 outside; allow broad Poisson slack.
  const double swing = offset_voltage_spec(dist.summary.mean, dist.summary.stddev, 0.10);
  const double frac = fraction_outside(dist.offsets, swing);
  EXPECT_GT(frac, 0.0);
  EXPECT_LT(frac, 0.30);
}

}  // namespace
}  // namespace issa::analysis
