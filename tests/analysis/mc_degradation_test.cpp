// Graceful degradation of the Monte-Carlo engine under injected solver
// faults: quarantine decisions must be a pure function of (condition, mc
// config, fault spec) — bit-identical across thread counts — a retry must
// recover probabilistic faults, a threshold-exceeded run must fail loudly
// with the quarantine summary in the error, and quarantined slots must never
// contaminate the summary statistics.  Extends the determinism suite
// (tests/analysis/determinism_test.cpp) into the failure paths.
#include "issa/analysis/montecarlo.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "issa/util/faultpoint.hpp"
#include "issa/util/thread_pool.hpp"

namespace issa::analysis {
namespace {

namespace fp = util::faultpoint;

::testing::AssertionResult bit_exact(const std::vector<double>& a,
                                     const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint64_t bits_a = 0;
    std::uint64_t bits_b = 0;
    std::memcpy(&bits_a, &a[i], sizeof(bits_a));
    std::memcpy(&bits_b, &b[i], sizeof(bits_b));
    if (bits_a != bits_b) {
      return ::testing::AssertionFailure()
             << "sample " << i << " differs: " << a[i] << " vs " << b[i]
             << " (bits 0x" << std::hex << bits_a << " vs 0x" << bits_b << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

Condition fresh_condition() {
  Condition c;
  c.kind = sa::SenseAmpKind::kNssa;
  c.config = sa::nominal_config();
  c.workload = workload::workload_from_name("80r0");
  c.stress_time_s = 0.0;
  return c;
}

McConfig mc_with(std::size_t iterations, bool parallel, util::ThreadPool* pool = nullptr) {
  McConfig mc;
  mc.iterations = iterations;
  mc.seed = 42;
  mc.parallel = parallel;
  mc.pool = pool;
  return mc;
}

std::vector<std::size_t> quarantined_indices(const McDegradation& deg) {
  std::vector<std::size_t> out;
  for (const auto& q : deg.quarantined) out.push_back(q.sample);
  return out;
}

class McDegradationTest : public ::testing::Test {
 protected:
  void TearDown() override { fp::clear(); }
};

TEST_F(McDegradationTest, CleanRunHasNoDegradation) {
  const OffsetDistribution dist =
      measure_offset_distribution(fresh_condition(), mc_with(20, false));
  EXPECT_TRUE(dist.degradation.quarantined.empty());
  EXPECT_EQ(dist.degradation.recovered, 0u);
  EXPECT_FALSE(dist.degradation.degraded());
  EXPECT_EQ(dist.valid_count(), 20u);
  EXPECT_EQ(dist.summary.count, 20u);
}

TEST_F(McDegradationTest, KeyedLuFaultQuarantinesExactlyThoseSamples) {
  // Key-list triggers ignore the retry attempt: samples 3 and 11 are doomed
  // and must land in quarantine; everything else must be untouched.
  const McConfig clean_mc = mc_with(16, false);
  const OffsetDistribution clean = measure_offset_distribution(fresh_condition(), clean_mc);

  fp::configure("lu.singular_pivot=key3|11");
  McConfig mc = mc_with(16, false);
  mc.max_quarantine_fraction = 0.5;
  const OffsetDistribution dist = measure_offset_distribution(fresh_condition(), mc);

  EXPECT_EQ(quarantined_indices(dist.degradation), (std::vector<std::size_t>{3, 11}));
  EXPECT_TRUE(std::isnan(dist.offsets[3]));
  EXPECT_TRUE(std::isnan(dist.offsets[11]));
  EXPECT_EQ(dist.valid_count(), 14u);
  EXPECT_EQ(dist.summary.count, 14u);
  // Valid samples are bit-identical to the clean run's: the fault did not
  // perturb any surviving measurement.
  for (std::size_t i = 0; i < 16; ++i) {
    if (i == 3 || i == 11) continue;
    EXPECT_EQ(dist.offsets[i], clean.offsets[i]) << "sample " << i;
  }
  // Quarantine records carry the full provenance.
  const QuarantinedSample& q = dist.degradation.quarantined[0];
  EXPECT_EQ(q.sample, 3u);
  EXPECT_EQ(q.seed, 42u);
  EXPECT_EQ(q.condition, condition_label(fresh_condition()));
  // The injected singular pivot travels the natural catch path: newton_solve
  // reports a failed solve, every fallback fails, and the sample dies with
  // the ordinary convergence error.
  EXPECT_NE(q.error.find("converge"), std::string::npos) << q.error;
}

TEST_F(McDegradationTest, QuarantineListIsIdenticalAcrossThreadCounts) {
  // The acceptance scenario: faults injected into ~1% of samples at a fixed
  // seed; measure_offset_distribution must complete and report the exact
  // same quarantined sample set for 1, 4, and 8 threads.
  fp::configure("sim.newton_nonconvergence=key7|23|61|88");
  auto run = [&](bool parallel, std::size_t threads) {
    McConfig mc = mc_with(100, parallel);
    mc.max_quarantine_fraction = 0.05;
    util::ThreadPool pool(threads);
    mc.pool = parallel ? &pool : nullptr;
    return measure_offset_distribution(fresh_condition(), mc);
  };
  const OffsetDistribution serial = run(false, 1);
  const OffsetDistribution pool1 = run(true, 1);
  const OffsetDistribution pool4 = run(true, 4);
  const OffsetDistribution pool8 = run(true, 8);

  const std::vector<std::size_t> expected{7, 23, 61, 88};
  EXPECT_EQ(quarantined_indices(serial.degradation), expected);
  EXPECT_EQ(quarantined_indices(pool1.degradation), expected);
  EXPECT_EQ(quarantined_indices(pool4.degradation), expected);
  EXPECT_EQ(quarantined_indices(pool8.degradation), expected);
  EXPECT_TRUE(bit_exact(serial.offsets, pool4.offsets));
  EXPECT_TRUE(bit_exact(serial.offsets, pool8.offsets));
  EXPECT_EQ(serial.summary.mean, pool8.summary.mean);
  EXPECT_EQ(serial.summary.stddev, pool8.summary.stddev);
}

TEST_F(McDegradationTest, ProbabilisticFaultRecoversViaRetryDeterministically) {
  // p-triggers draw independently per attempt: the retry usually escapes.
  // The oracle predicts exactly which samples fail once (recovered) and
  // which fail twice (quarantined); the engine must agree, at every thread
  // count.
  fp::configure("sim.newton_nonconvergence=p0.08@13");
  const std::size_t n = 100;
  std::vector<std::size_t> expect_quarantined;
  std::size_t expect_recovered = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool first = fp::would_fire(fp::sites::kNewtonNonconvergence, i, 0);
    const bool second = fp::would_fire(fp::sites::kNewtonNonconvergence, i, 1);
    if (first && second) {
      expect_quarantined.push_back(i);
    } else if (first) {
      ++expect_recovered;
    }
  }
  ASSERT_GT(expect_recovered, 0u) << "seed produced no recoverable samples; pick another";

  McConfig mc = mc_with(n, true);
  mc.max_quarantine_fraction = 1.0;
  const OffsetDistribution dist = measure_offset_distribution(fresh_condition(), mc);
  EXPECT_EQ(quarantined_indices(dist.degradation), expect_quarantined);
  EXPECT_EQ(dist.degradation.recovered, expect_recovered);

  const OffsetDistribution serial =
      measure_offset_distribution(fresh_condition(), [&] {
        McConfig m = mc_with(n, false);
        m.max_quarantine_fraction = 1.0;
        return m;
      }());
  EXPECT_EQ(quarantined_indices(serial.degradation), expect_quarantined);
  EXPECT_EQ(serial.degradation.recovered, expect_recovered);
}

TEST_F(McDegradationTest, ThresholdExceededThrowsWithQuarantineSummary) {
  fp::configure("sim.transient_step_collapse=key0|1|2|3");
  McConfig mc = mc_with(16, false);
  mc.max_quarantine_fraction = 0.01;  // 4/16 = 25% >> 1%
  try {
    measure_offset_distribution(fresh_condition(), mc);
    FAIL() << "expected McDegradationError";
  } catch (const McDegradationError& e) {
    EXPECT_EQ(quarantined_indices(e.degradation()), (std::vector<std::size_t>{0, 1, 2, 3}));
    const std::string what = e.what();
    EXPECT_NE(what.find("4/16"), std::string::npos) << what;
    EXPECT_NE(what.find("#0"), std::string::npos) << what;
    EXPECT_NE(what.find("seed=42"), std::string::npos) << what;
  }
}

TEST_F(McDegradationTest, ThresholdIsStrictlyGreater) {
  // Exactly at the threshold still completes: 1 of 100 = 1% == max 1%.
  fp::configure("sim.newton_nonconvergence=key50");
  const McConfig mc = mc_with(100, false);  // default max_quarantine_fraction = 0.01
  const OffsetDistribution dist = measure_offset_distribution(fresh_condition(), mc);
  EXPECT_EQ(quarantined_indices(dist.degradation), (std::vector<std::size_t>{50}));
}

TEST_F(McDegradationTest, DelayDistributionQuarantinesToo) {
  fp::configure("sim.newton_nonconvergence=key2");
  McConfig mc = mc_with(10, false);
  mc.max_quarantine_fraction = 0.5;
  const DelayDistribution dist = measure_delay_distribution(fresh_condition(), mc);
  EXPECT_EQ(quarantined_indices(dist.degradation), (std::vector<std::size_t>{2}));
  EXPECT_TRUE(std::isnan(dist.delays[2]));
  EXPECT_EQ(dist.valid_count(), 10u - dist.degradation.quarantined.size());
  EXPECT_EQ(dist.summary.count, dist.valid_count());
}

TEST_F(McDegradationTest, GminStageFaultIsAbsorbedByFallbacks) {
  // One failed gmin-homotopy stage is NOT fatal for a sample: solve_dc falls
  // through to source stepping.  With the plain solve untouched, the gmin
  // path only runs when the plain solve already failed — so injecting it
  // alone must leave the distribution clean and bit-identical.
  const OffsetDistribution clean =
      measure_offset_distribution(fresh_condition(), mc_with(8, false));
  fp::configure("sim.gmin_stage_fail=always");
  const OffsetDistribution dist =
      measure_offset_distribution(fresh_condition(), mc_with(8, false));
  EXPECT_TRUE(dist.degradation.quarantined.empty());
  EXPECT_TRUE(bit_exact(clean.offsets, dist.offsets));
}

TEST_F(McDegradationTest, RunIdFlowsIntoQuarantineRecords) {
  fp::configure("lu.singular_pivot=key1");
  McConfig mc = mc_with(4, false);
  mc.max_quarantine_fraction = 1.0;
  mc.run_id = "test-run-17";
  const OffsetDistribution dist = measure_offset_distribution(fresh_condition(), mc);
  ASSERT_EQ(dist.degradation.quarantined.size(), 1u);
  EXPECT_EQ(dist.degradation.quarantined[0].run_id, "test-run-17");
}

TEST_F(McDegradationTest, UnsetRunIdGetsDeterministicFallbackInRecords) {
  // Regression: quarantine records used to inherit an EMPTY run id when the
  // caller never set McConfig::run_id, leaving them unjoinable with any
  // report.  The engine now stamps effective_run_id()'s deterministic
  // fallback instead.
  fp::configure("lu.singular_pivot=key2");
  McConfig mc = mc_with(4, false);
  mc.max_quarantine_fraction = 1.0;
  ASSERT_TRUE(mc.run_id.empty());
  const OffsetDistribution dist = measure_offset_distribution(fresh_condition(), mc);
  ASSERT_EQ(dist.degradation.quarantined.size(), 1u);
  const std::string& run_id = dist.degradation.quarantined[0].run_id;
  EXPECT_FALSE(run_id.empty());
  EXPECT_EQ(run_id, effective_run_id(fresh_condition(), mc));
  // Deterministic: the same cell quarantines under the same id every run.
  const OffsetDistribution again = measure_offset_distribution(fresh_condition(), mc);
  EXPECT_EQ(again.degradation.quarantined[0].run_id, run_id);
}

TEST_F(McDegradationTest, PoolTaskThrowStillFailsTheRun) {
  // pool.task_throw fires OUTSIDE the per-sample body, in the chunk lambda:
  // it exercises parallel_for's first-error rethrow contract and is
  // deliberately NOT absorbed by sample quarantine.
  fp::configure("pool.task_throw=always");
  util::ThreadPool pool(2);
  McConfig mc = mc_with(16, true, &pool);
  EXPECT_THROW(measure_offset_distribution(fresh_condition(), mc), fp::FaultInjected);
}

TEST(McDegradationApi, ConditionStressMapNamesUnknownKind) {
  Condition c = fresh_condition();
  c.stress_time_s = 1e8;
  c.kind = static_cast<sa::SenseAmpKind>(97);
  try {
    condition_stress_map(c);
    FAIL() << "expected logic_error";
  } catch (const std::logic_error& e) {
    // Regression: the old message was a bare "unknown kind" with no value.
    EXPECT_NE(std::string(e.what()).find("97"), std::string::npos) << e.what();
  }
}

TEST(McDegradationApi, ConditionLabelNamesTheCell) {
  const std::string label = condition_label(fresh_condition());
  EXPECT_NE(label.find("NSSA"), std::string::npos);
  EXPECT_NE(label.find("vdd="), std::string::npos);
  EXPECT_NE(label.find("T="), std::string::npos);
}

}  // namespace
}  // namespace issa::analysis
