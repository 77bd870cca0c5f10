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

// A pool without workers: its caller runs every sample in order.
util::ThreadPool g_serial(0);

McConfig mc_with(std::size_t iterations, util::ThreadPool* pool = &g_serial) {
  McConfig mc;
  mc.iterations = iterations;
  mc.seed = 42;
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
      measure_offset_distribution(fresh_condition(), mc_with(20));
  EXPECT_TRUE(dist.degradation.quarantined.empty());
  EXPECT_EQ(dist.degradation.recovered, 0u);
  EXPECT_FALSE(dist.degradation.degraded());
  EXPECT_EQ(dist.valid_count(), 20u);
  EXPECT_EQ(dist.summary.count, 20u);
}

TEST_F(McDegradationTest, KeyedLuFaultQuarantinesExactlyThoseSamples) {
  // Key-list triggers ignore the retry attempt: samples 3 and 11 are doomed
  // and must land in quarantine; everything else must be untouched.
  const McConfig clean_mc = mc_with(16);
  const OffsetDistribution clean = measure_offset_distribution(fresh_condition(), clean_mc);

  fp::configure("lu.singular_pivot=key3|11");
  McConfig mc = mc_with(16);
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
  auto run = [&](std::size_t threads) {
    util::ThreadPool pool(threads);
    McConfig mc = mc_with(100, &pool);
    mc.max_quarantine_fraction = 0.05;
    return measure_offset_distribution(fresh_condition(), mc);
  };
  const OffsetDistribution serial = run(0);
  const OffsetDistribution pool1 = run(1);
  const OffsetDistribution pool4 = run(4);
  const OffsetDistribution pool8 = run(8);

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

  McConfig mc = mc_with(n, &util::ThreadPool::global());
  mc.max_quarantine_fraction = 1.0;
  const OffsetDistribution dist = measure_offset_distribution(fresh_condition(), mc);
  EXPECT_EQ(quarantined_indices(dist.degradation), expect_quarantined);
  EXPECT_EQ(dist.degradation.recovered, expect_recovered);

  const OffsetDistribution serial =
      measure_offset_distribution(fresh_condition(), [&] {
        McConfig m = mc_with(n);
        m.max_quarantine_fraction = 1.0;
        return m;
      }());
  EXPECT_EQ(quarantined_indices(serial.degradation), expect_quarantined);
  EXPECT_EQ(serial.degradation.recovered, expect_recovered);
}

TEST_F(McDegradationTest, ThresholdExceededThrowsWithQuarantineSummary) {
  fp::configure("sim.transient_step_collapse=key0|1|2|3");
  McConfig mc = mc_with(16);
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
  const McConfig mc = mc_with(100);  // default max_quarantine_fraction = 0.01
  const OffsetDistribution dist = measure_offset_distribution(fresh_condition(), mc);
  EXPECT_EQ(quarantined_indices(dist.degradation), (std::vector<std::size_t>{50}));
}

TEST_F(McDegradationTest, DelayDistributionQuarantinesToo) {
  fp::configure("sim.newton_nonconvergence=key2");
  McConfig mc = mc_with(10);
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
      measure_offset_distribution(fresh_condition(), mc_with(8));
  fp::configure("sim.gmin_stage_fail=always");
  const OffsetDistribution dist =
      measure_offset_distribution(fresh_condition(), mc_with(8));
  EXPECT_TRUE(dist.degradation.quarantined.empty());
  EXPECT_TRUE(bit_exact(clean.offsets, dist.offsets));
}

TEST_F(McDegradationTest, RunIdFlowsIntoQuarantineRecords) {
  fp::configure("lu.singular_pivot=key1");
  McConfig mc = mc_with(4);
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
  McConfig mc = mc_with(4);
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
  McConfig mc = mc_with(16, &pool);
  EXPECT_THROW(measure_offset_distribution(fresh_condition(), mc), fp::FaultInjected);
}

// Field-by-field equality of two degradation records.
void expect_same_degradation(const McDegradation& a, const McDegradation& b, const char* what) {
  EXPECT_EQ(a.recovered, b.recovered) << what;
  ASSERT_EQ(a.quarantined.size(), b.quarantined.size()) << what;
  for (std::size_t q = 0; q < a.quarantined.size(); ++q) {
    EXPECT_EQ(a.quarantined[q].sample, b.quarantined[q].sample) << what;
    EXPECT_EQ(a.quarantined[q].seed, b.quarantined[q].seed) << what;
    EXPECT_EQ(a.quarantined[q].condition, b.quarantined[q].condition) << what;
    EXPECT_EQ(a.quarantined[q].run_id, b.quarantined[q].run_id) << what;
    EXPECT_EQ(a.quarantined[q].error, b.quarantined[q].error) << what;
  }
}

TEST_F(McDegradationTest, MeasureCellMatchesSeparateDistributions) {
  // One pass measures each sample's offset and delay on one build, with a
  // retry and quarantine per measurement.  Under a p-trigger that both
  // recovers and quarantines samples, it must reproduce separate offset and
  // delay calls bit for bit, serially and on a pool, on aged cells of both
  // schemes: every injected fault fires as it does there, and a retry on the
  // reused build measures what a retry on a fresh build does.
  const char* spec = "sim.newton_nonconvergence=p0.3@4";
  fp::configure(spec);
  const std::size_t n = 24;
  std::size_t recovers = 0;
  std::size_t quarantines = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool first = fp::would_fire(fp::sites::kNewtonNonconvergence, i, 0);
    const bool second = fp::would_fire(fp::sites::kNewtonNonconvergence, i, 1);
    recovers += first && !second;
    quarantines += first && second;
  }
  ASSERT_GT(recovers, 0u) << spec << " recovers no sample; pick another";
  ASSERT_GT(quarantines, 0u) << spec << " quarantines no sample; pick another";

  util::ThreadPool pool(3);
  for (const sa::SenseAmpKind kind : {sa::SenseAmpKind::kNssa, sa::SenseAmpKind::kIssa}) {
    Condition c = fresh_condition();
    c.kind = kind;
    c.stress_time_s = 1e8;
    McConfig serial = mc_with(n);
    serial.max_quarantine_fraction = 1.0;
    const OffsetDistribution offset = measure_offset_distribution(c, serial);
    const DelayDistribution delay = measure_delay_distribution(c, serial);
    EXPECT_FALSE(offset.degradation.quarantined.empty()) << sa::kind_name(kind);
    EXPECT_GT(offset.degradation.recovered, 0u) << sa::kind_name(kind);
    EXPECT_FALSE(delay.degradation.quarantined.empty()) << sa::kind_name(kind);
    EXPECT_GT(delay.degradation.recovered, 0u) << sa::kind_name(kind);

    McConfig pooled = serial;
    pooled.pool = &pool;
    for (const McConfig& mc : {serial, pooled}) {
      const std::string what =
          std::string(sa::kind_name(kind)) + (mc.pool == &pool ? " on a pool" : " serial");
      const CellDistributions cell = measure_cell(c, mc);
      EXPECT_TRUE(bit_exact(cell.offset.offsets, offset.offsets)) << what;
      EXPECT_EQ(cell.offset.saturated_count, offset.saturated_count) << what;
      EXPECT_EQ(cell.offset.summary.mean, offset.summary.mean) << what;
      EXPECT_EQ(cell.offset.summary.stddev, offset.summary.stddev) << what;
      expect_same_degradation(cell.offset.degradation, offset.degradation, what.c_str());
      EXPECT_TRUE(bit_exact(cell.delay.delays, delay.delays)) << what;
      EXPECT_EQ(cell.delay.summary.mean, delay.summary.mean) << what;
      expect_same_degradation(cell.delay.degradation, delay.degradation, what.c_str());
    }
  }
}

TEST_F(McDegradationTest, CellOverItsBoundAnnouncesBothMeasurementsBeforeThrowing) {
  // Every transient collapses, so both of the cell's distributions lose all
  // their samples: the offset's error is thrown, and only once the delay's
  // notice has reached stderr too.
  fp::configure("sim.transient_step_collapse=always");
  ::testing::internal::CaptureStderr();
  EXPECT_THROW(measure_cell(fresh_condition(), mc_with(4)), McDegradationError);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("[issa] DEGRADED MC RUN offset: 4/4"), std::string::npos) << err;
  EXPECT_NE(err.find("[issa] DEGRADED MC RUN delay.worst: 4/4"), std::string::npos) << err;
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
  // An aged cell names the workload that aged it; a fresh one has none.
  EXPECT_EQ(label.find("80r0"), std::string::npos) << label;
  Condition aged = fresh_condition();
  aged.stress_time_s = 1e8;
  EXPECT_EQ(condition_label(aged), "NSSA 80r0 vdd=1.00V T=25.0C stress=1e+08s");
}

}  // namespace
}  // namespace issa::analysis
