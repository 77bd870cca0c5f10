// The content-addressed Monte-Carlo sample cache (analysis/mc_cache): warm
// reruns must replay bit-identically from disk, fingerprints must separate
// everything that changes a sample and ignore everything that does not,
// quarantine verdicts must replay with their records, and interrupted stores
// must resume.
#include "issa/analysis/mc_cache.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "issa/analysis/montecarlo.hpp"
#include "sa/offset_model_fits.hpp"
#include "issa/util/faultpoint.hpp"
#include "issa/util/thread_pool.hpp"
#include "issa/workload/stress_map.hpp"

namespace issa::analysis {
namespace {

namespace fs = std::filesystem;

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
             << "sample " << i << " differs: " << a[i] << " vs " << b[i];
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

McConfig mc_with(std::size_t iterations) {
  McConfig mc;
  mc.iterations = iterations;
  mc.seed = 42;
  mc.pool = &g_serial;
  return mc;
}

TEST(EffectiveRunId, NonEmptyDeterministicFallback) {
  const Condition condition = fresh_condition();
  McConfig mc = mc_with(8);
  // Unset run_id: a deterministic, non-empty id derived from the cell.
  const std::string fallback = effective_run_id(condition, mc);
  EXPECT_FALSE(fallback.empty());
  EXPECT_EQ(fallback, effective_run_id(condition, mc));
  EXPECT_EQ(fallback.rfind("auto-", 0), 0u) << fallback;
  // Different seed or condition: different id.
  McConfig other_seed = mc;
  other_seed.seed = 43;
  EXPECT_NE(effective_run_id(condition, other_seed), fallback);
  Condition other = condition;
  other.config.vdd *= 1.1;
  EXPECT_NE(effective_run_id(other, mc), fallback);
  // Two aged cells that differ only in their workload (two rows of Table II)
  // get different ids.
  Condition aged_80r0 = condition;
  aged_80r0.stress_time_s = 1e8;
  Condition aged_20r0 = aged_80r0;
  aged_20r0.workload = workload::workload_from_name("20r0");
  EXPECT_NE(effective_run_id(aged_80r0, mc), effective_run_id(aged_20r0, mc));
  // Explicit run_id wins untouched.
  mc.run_id = "session-7";
  EXPECT_EQ(effective_run_id(condition, mc), "session-7");
}

class McCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/issa_mc_cache_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
  }

  void TearDown() override {
    mc_cache::close();
    util::faultpoint::clear();
  }

  // Hit/miss/store deltas for one scoped measurement.
  template <typename Fn>
  mc_cache::CacheCounts delta(Fn&& fn) {
    const mc_cache::CacheCounts before = mc_cache::counts();
    fn();
    const mc_cache::CacheCounts after = mc_cache::counts();
    return {after.hits - before.hits, after.misses - before.misses,
            after.stores - before.stores};
  }

  std::string dir_;
};

TEST_F(McCacheTest, RecordEncodingRoundTrips) {
  mc_cache::CachedSample in;
  in.status = 2;
  in.value = -0.01724;
  in.saturated = true;
  in.error = "solver did not converge";
  mc_cache::CachedSample out;
  ASSERT_TRUE(mc_cache::decode(mc_cache::encode(in), out));
  EXPECT_EQ(out.status, in.status);
  EXPECT_EQ(out.value, in.value);
  EXPECT_EQ(out.saturated, in.saturated);
  EXPECT_EQ(out.error, in.error);

  // NaN values (quarantined slots) survive the byte round trip.
  in.value = std::nan("");
  ASSERT_TRUE(mc_cache::decode(mc_cache::encode(in), out));
  EXPECT_TRUE(std::isnan(out.value));

  // Truncated or length-inconsistent records are rejected, not misread.
  EXPECT_FALSE(mc_cache::decode("", out));
  EXPECT_FALSE(mc_cache::decode("short", out));
  std::string bytes = mc_cache::encode(in);
  bytes.pop_back();
  EXPECT_FALSE(mc_cache::decode(bytes, out));
}

TEST_F(McCacheTest, WarmOffsetRerunReplaysBitIdentically) {
  const Condition condition = fresh_condition();
  const McConfig mc = mc_with(12);

  mc_cache::open(dir_);
  OffsetDistribution cold;
  const auto cold_counts = delta([&] { cold = measure_offset_distribution(condition, mc); });
  EXPECT_EQ(cold_counts.hits, 0u);
  EXPECT_EQ(cold_counts.misses, 12u);
  EXPECT_EQ(cold_counts.stores, 12u);
  mc_cache::close();

  mc_cache::open(dir_);
  OffsetDistribution warm;
  const auto warm_counts = delta([&] { warm = measure_offset_distribution(condition, mc); });
  EXPECT_EQ(warm_counts.hits, 12u);
  EXPECT_EQ(warm_counts.misses, 0u);
  EXPECT_EQ(warm_counts.stores, 0u);

  EXPECT_TRUE(bit_exact(cold.offsets, warm.offsets));
  EXPECT_EQ(cold.summary.mean, warm.summary.mean);
  EXPECT_EQ(cold.summary.stddev, warm.summary.stddev);
  EXPECT_EQ(cold.saturated_count, warm.saturated_count);
  EXPECT_EQ(cold.spec(), warm.spec());

  // The cache must also agree with a cache-less run: replay changes where
  // values come from, never what they are.
  mc_cache::close();
  const OffsetDistribution plain = measure_offset_distribution(condition, mc);
  EXPECT_TRUE(bit_exact(plain.offsets, warm.offsets));
}

TEST_F(McCacheTest, WarmDelayRerunReplaysBothMetricsIndependently) {
  const Condition condition = fresh_condition();
  const McConfig mc = mc_with(8);

  mc_cache::open(dir_);
  const OffsetDistribution cold_offset = measure_offset_distribution(condition, mc);
  const DelayDistribution cold_delay = measure_delay_distribution(condition, mc);

  // Same fingerprint, different kind: offset and delay never collide.
  DelayDistribution warm_delay;
  const auto delay_counts =
      delta([&] { warm_delay = measure_delay_distribution(condition, mc); });
  EXPECT_EQ(delay_counts.hits, 8u);
  EXPECT_EQ(delay_counts.misses, 0u);
  OffsetDistribution warm_offset;
  const auto offset_counts =
      delta([&] { warm_offset = measure_offset_distribution(condition, mc); });
  EXPECT_EQ(offset_counts.hits, 8u);

  EXPECT_TRUE(bit_exact(cold_delay.delays, warm_delay.delays));
  EXPECT_TRUE(bit_exact(cold_offset.offsets, warm_offset.offsets));
}

TEST_F(McCacheTest, HalfCachedCellSimulatesOnlyItsMissingMeasurement) {
  // A cell whose offsets are cached replays them and builds each sample only
  // for its delay; both distributions equal a cold, cache-less run's.
  const Condition condition = fresh_condition();
  const McConfig mc = mc_with(6);
  const CellDistributions cold = measure_cell(condition, mc);

  mc_cache::open(dir_);
  measure_offset_distribution(condition, mc);
  CellDistributions warm;
  const auto counts = delta([&] { warm = measure_cell(condition, mc); });
  EXPECT_EQ(counts.hits, 6u);    // the offsets
  EXPECT_EQ(counts.misses, 6u);  // the delays
  EXPECT_EQ(counts.stores, 6u);

  EXPECT_TRUE(bit_exact(cold.offset.offsets, warm.offset.offsets));
  EXPECT_EQ(cold.offset.saturated_count, warm.offset.saturated_count);
  EXPECT_TRUE(bit_exact(cold.delay.delays, warm.delay.delays));
  EXPECT_EQ(cold.delay.summary.mean, warm.delay.summary.mean);
}

TEST_F(McCacheTest, GivenStressMapPassIsKeyedApartFromTheCondition) {
  // The ISSA's own map is the balanced one, so a pass under the balanced map
  // given explicitly measures the standard cell bit for bit; it keys its
  // samples by that map all the same, so it neither replays nor overwrites
  // the standard cell's records.
  Condition condition = fresh_condition();
  condition.kind = sa::SenseAmpKind::kIssa;
  condition.stress_time_s = 1e8;
  const McConfig mc = mc_with(6);
  const aging::DeviceStressMap balanced = workload::issa_stress_map_with_internal_balance(
      condition.workload, condition.config.vdd, 0.5);
  const aging::DeviceStressMap skewed = workload::issa_stress_map_with_internal_balance(
      condition.workload, condition.config.vdd, 0.75);

  const std::string standard_fp = mc_cache::condition_fingerprint(condition, mc);
  const std::string balanced_fp = mc_cache::condition_fingerprint(condition, mc, &balanced);
  EXPECT_NE(balanced_fp, standard_fp);
  EXPECT_NE(mc_cache::condition_fingerprint(condition, mc, &skewed), balanced_fp);
  EXPECT_EQ(mc_cache::condition_fingerprint(condition, mc, &balanced), balanced_fp);
  EXPECT_NE(mc_cache::sample_key(balanced_fp, "offset", 0),
            mc_cache::sample_key(standard_fp, "offset", 0));

  mc_cache::open(dir_);
  const OffsetDistribution standard = measure_offset_distribution(condition, mc);
  OffsetDistribution given;
  const auto counts =
      delta([&] { given = measure_offset_distribution(condition, mc, &balanced); });
  EXPECT_EQ(counts.hits, 0u);
  EXPECT_EQ(counts.misses, 6u);
  EXPECT_EQ(counts.stores, 6u);
  EXPECT_TRUE(bit_exact(given.offsets, standard.offsets));
  EXPECT_EQ(given.summary.mean, standard.summary.mean);
  EXPECT_EQ(given.summary.stddev, standard.summary.stddev);

  // The skewed map ages the sample differently.
  mc_cache::close();
  const OffsetDistribution unbalanced = measure_offset_distribution(condition, mc, &skewed);
  EXPECT_NE(unbalanced.summary.mean, standard.summary.mean);
}

TEST_F(McCacheTest, GrowingIterationCountReusesThePrefix) {
  // Iteration count is excluded from the fingerprint: growing 8 -> 12
  // replays the first 8 samples and simulates only the 4 new ones.
  const Condition condition = fresh_condition();
  mc_cache::open(dir_);
  measure_offset_distribution(condition, mc_with(8));
  OffsetDistribution grown;
  const auto counts =
      delta([&] { grown = measure_offset_distribution(condition, mc_with(12)); });
  EXPECT_EQ(counts.hits, 8u);
  EXPECT_EQ(counts.misses, 4u);
  EXPECT_EQ(counts.stores, 4u);
  EXPECT_EQ(grown.valid_count(), 12u);
}

TEST_F(McCacheTest, FullReplayFitsNoOffsetModel) {
  // The warm-start model only serves simulated samples: a distribution the
  // cache replays whole must not pay for a fit.  The supply is one no other
  // test fits, and the records are planted, so no fit happened before.
  Condition condition = fresh_condition();
  condition.config.vdd = 0.93;
  mc_cache::open(dir_);
  const std::string fp = mc_cache::condition_fingerprint(condition, mc_with(4));
  for (std::size_t i = 0; i < 4; ++i) {
    const mc_cache::CachedSample planted{0, 1e-3 * static_cast<double>(i), false, ""};
    mc_cache::insert(fp, "offset", i, planted);
  }
  OffsetDistribution replayed;
  EXPECT_EQ(sa::testing::offset_model_fits(
                [&] { replayed = measure_offset_distribution(condition, mc_with(4)); }),
            0u);
  EXPECT_EQ(replayed.offsets, (std::vector<double>{0.0, 1e-3, 2e-3, 3e-3}));

  // One sample to simulate: the model is fitted, before the sample loop.
  EXPECT_EQ(sa::testing::offset_model_fits(
                [&] { measure_offset_distribution(condition, mc_with(5)); }),
            1u);
}

TEST_F(McCacheTest, FingerprintSeparatesInputsAndIgnoresExecutionKnobs) {
  const Condition condition = fresh_condition();
  const McConfig mc = mc_with(8);
  const std::string base = mc_cache::condition_fingerprint(condition, mc);
  ASSERT_EQ(base.size(), 64u);
  // Pinned: stores written since schema version 9 replay only while the
  // recipe hashes the same bytes.  A deliberate recipe change bumps
  // kSchemaVersion and this value together.  A changed config default (the
  // sensing step SenseTiming::dt, say) changes the hashed config bytes
  // alone: stores of the old default miss instead of replaying, and only
  // this value moves.
  EXPECT_EQ(base, "dd3edee201ba698f43360b94188321c009a7737600dd738c88234ca36cdc4caa");

  // Everything that changes what a sample computes must change the key.
  McConfig seed = mc;
  seed.seed = 43;
  EXPECT_NE(mc_cache::condition_fingerprint(condition, seed), base);
  Condition vdd = condition;
  vdd.config.vdd *= 1.1;
  EXPECT_NE(mc_cache::condition_fingerprint(vdd, mc), base);
  Condition kind = condition;
  kind.kind = sa::SenseAmpKind::kIssa;
  EXPECT_NE(mc_cache::condition_fingerprint(kind, mc), base);
  Condition aged = condition;
  aged.stress_time_s = 1e8;
  EXPECT_NE(mc_cache::condition_fingerprint(aged, mc), base);
  Condition wl = condition;
  wl.workload = workload::workload_from_name("20r1");
  wl.stress_time_s = 1e8;
  Condition wl2 = wl;
  wl2.workload = workload::workload_from_name("80r1");
  EXPECT_NE(mc_cache::condition_fingerprint(wl, mc), mc_cache::condition_fingerprint(wl2, mc));

  // Execution knobs that cannot change sample values must NOT change it.
  McConfig knobs = mc;
  knobs.iterations = 4000;
  util::ThreadPool pool(1);
  knobs.pool = &pool;
  knobs.run_id = "whatever";
  knobs.max_quarantine_fraction = 0.5;
  EXPECT_EQ(mc_cache::condition_fingerprint(condition, knobs), base);
}

TEST_F(McCacheTest, TruncatedStoreResumesWithPartialReplay) {
  const Condition condition = fresh_condition();
  mc_cache::open(dir_);
  OffsetDistribution cold;
  delta([&] { cold = measure_offset_distribution(condition, mc_with(10)); });
  mc_cache::close();

  // Kill-during-write simulation: chop the tail off the only segment.
  std::string segment;
  for (const auto& entry : fs::directory_iterator(dir_)) segment = entry.path().string();
  ASSERT_FALSE(segment.empty());
  fs::resize_file(segment, fs::file_size(segment) - 13);

  mc_cache::open(dir_);
  OffsetDistribution resumed;
  const auto counts =
      delta([&] { resumed = measure_offset_distribution(condition, mc_with(10)); });
  EXPECT_GT(counts.hits, 0u) << "recovered prefix must replay";
  EXPECT_GT(counts.misses, 0u) << "dropped tail must re-simulate";
  EXPECT_EQ(counts.hits + counts.misses, 10u);
  EXPECT_EQ(counts.stores, counts.misses);
  EXPECT_TRUE(bit_exact(cold.offsets, resumed.offsets));

  // The re-simulated records healed the store: next rerun is all hits.
  mc_cache::close();
  mc_cache::open(dir_);
  const auto healed = delta([&] { measure_offset_distribution(condition, mc_with(10)); });
  EXPECT_EQ(healed.hits, 10u);
}

TEST_F(McCacheTest, QuarantineVerdictsReplayWithTheirRecords) {
  namespace fp = util::faultpoint;
  const Condition condition = fresh_condition();
  McConfig mc = mc_with(12);
  mc.max_quarantine_fraction = 0.5;

  fp::configure("lu.singular_pivot=key3|7");
  mc_cache::open(dir_);
  const OffsetDistribution cold = measure_offset_distribution(condition, mc);
  ASSERT_EQ(cold.degradation.quarantined.size(), 2u);
  mc_cache::close();
  fp::clear();

  // Warm rerun with the same fault spec armed: the quarantine verdicts come
  // from the store (the injected fault never fires again), and the
  // degradation record reproduces exactly.
  fp::configure("lu.singular_pivot=key3|7");
  mc_cache::open(dir_);
  OffsetDistribution warm;
  const auto counts = delta([&] { warm = measure_offset_distribution(condition, mc); });
  EXPECT_EQ(counts.hits, 12u);
  EXPECT_EQ(counts.misses, 0u);
  ASSERT_EQ(warm.degradation.quarantined.size(), 2u);
  EXPECT_EQ(warm.degradation.quarantined[0].sample, 3u);
  EXPECT_EQ(warm.degradation.quarantined[1].sample, 7u);
  EXPECT_EQ(warm.degradation.quarantined[0].error, cold.degradation.quarantined[0].error);
  EXPECT_EQ(warm.degradation.quarantined[0].run_id, cold.degradation.quarantined[0].run_id);
  EXPECT_FALSE(warm.degradation.quarantined[0].run_id.empty());
  EXPECT_TRUE(std::isnan(warm.offsets[3]));
  EXPECT_TRUE(bit_exact(cold.offsets, warm.offsets));
  EXPECT_EQ(cold.summary.count, warm.summary.count);
}

TEST_F(McCacheTest, FaultSpecOwnsItsKeyspace) {
  namespace fp = util::faultpoint;
  const Condition condition = fresh_condition();
  McConfig mc = mc_with(6);
  mc.max_quarantine_fraction = 1.0;

  const std::string clean = mc_cache::condition_fingerprint(condition, mc);
  fp::configure("lu.singular_pivot=key1");
  const std::string faulted = mc_cache::condition_fingerprint(condition, mc);
  EXPECT_NE(clean, faulted);

  // A faulted run therefore never replays into a clean one: the clean rerun
  // misses and re-simulates instead of inheriting quarantined garbage.
  mc_cache::open(dir_);
  measure_offset_distribution(condition, mc);
  fp::clear();
  OffsetDistribution clean_dist;
  const auto counts =
      delta([&] { clean_dist = measure_offset_distribution(condition, mc); });
  EXPECT_EQ(counts.hits, 0u);
  EXPECT_EQ(counts.misses, 6u);
  EXPECT_TRUE(clean_dist.degradation.quarantined.empty());
}

}  // namespace
}  // namespace issa::analysis
