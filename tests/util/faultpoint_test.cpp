// Unit tests of the deterministic fault-injection framework: spec parsing
// (and its rejection diagnostics), trigger semantics (probability /
// key-list / always), the determinism contract (decisions are pure in
// (site, spec, key, attempt)), the would_fire oracle, and the report
// counters.  Sites here use the reserved "test." prefix so the tests never
// depend on the solver-stack registry.
#include "issa/util/faultpoint.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

namespace issa::util::faultpoint {
namespace {

class FaultpointTest : public ::testing::Test {
 protected:
  void TearDown() override { clear(); }
};

TEST_F(FaultpointTest, UnarmedByDefault) {
  clear();
  EXPECT_FALSE(armed());
  EXPECT_FALSE(should_fire("test.site"));
  EXPECT_TRUE(report().empty());
}

TEST_F(FaultpointTest, AlwaysTriggerFiresEveryEvaluation) {
  configure("test.site=always");
  EXPECT_TRUE(armed());
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(should_fire("test.site"));
  const auto reports = report();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].site, "test.site");
  EXPECT_EQ(reports[0].trigger, "always");
  EXPECT_EQ(reports[0].evaluations, 5u);
  EXPECT_EQ(reports[0].fires, 5u);
}

TEST_F(FaultpointTest, KeyListFiresOnlyForScopedKeys) {
  configure("test.site=key2|5");
  // No scope pushed: a key trigger cannot fire.
  EXPECT_FALSE(should_fire("test.site"));
  for (std::uint64_t k = 0; k < 8; ++k) {
    SampleScope scope(k);
    const bool expected = (k == 2 || k == 5);
    EXPECT_EQ(should_fire("test.site"), expected) << "key " << k;
  }
}

TEST_F(FaultpointTest, KeyListIgnoresRetryAttempt) {
  // A key-listed sample is pathological no matter how it is approached: the
  // retry must fail too, so the sample ends up quarantined.
  configure("test.site=key7");
  SampleScope scope(7);
  EXPECT_TRUE(should_fire("test.site"));
  RetryScope retry;
  EXPECT_TRUE(should_fire("test.site"));
  EXPECT_TRUE(would_fire("test.site", 7, 0));
  EXPECT_TRUE(would_fire("test.site", 7, 1));
  EXPECT_FALSE(would_fire("test.site", 6, 0));
}

TEST_F(FaultpointTest, ProbabilityIsDeterministicPerKey) {
  configure("test.site=p0.5@11");
  // The draw is pure in (site, seed, key, attempt): re-evaluating the same
  // key must reproduce the same decision, any number of times.
  for (std::uint64_t k = 0; k < 64; ++k) {
    SampleScope scope(k);
    const bool first = should_fire("test.site");
    for (int rep = 0; rep < 3; ++rep) {
      EXPECT_EQ(should_fire("test.site"), first) << "key " << k;
    }
    EXPECT_EQ(would_fire("test.site", k, 0), first) << "key " << k;
  }
}

TEST_F(FaultpointTest, ProbabilityRoughlyMatchesRate) {
  configure("test.site=p0.25@3");
  int fires = 0;
  const int n = 4000;
  for (int k = 0; k < n; ++k) {
    if (would_fire("test.site", static_cast<std::uint64_t>(k), 0)) ++fires;
  }
  // 0.25 +- 5 sigma of a binomial(4000, 0.25).
  EXPECT_GT(fires, 1000 - 5 * 27);
  EXPECT_LT(fires, 1000 + 5 * 27);
}

TEST_F(FaultpointTest, ProbabilityDrawsIndependentlyPerAttempt) {
  configure("test.site=p0.5@19");
  // Across many keys, the retry (attempt 1) decision must not equal the
  // first-attempt decision everywhere — that is what lets a retry recover.
  int differs = 0;
  for (std::uint64_t k = 0; k < 256; ++k) {
    if (would_fire("test.site", k, 0) != would_fire("test.site", k, 1)) ++differs;
  }
  EXPECT_GT(differs, 64);  // ~half of 256 expected
}

TEST_F(FaultpointTest, SeedChangesTheDrawSet) {
  configure("test.site=p0.5@1");
  std::set<std::uint64_t> fired_seed1;
  for (std::uint64_t k = 0; k < 128; ++k) {
    if (would_fire("test.site", k, 0)) fired_seed1.insert(k);
  }
  configure("test.site=p0.5@2");
  std::set<std::uint64_t> fired_seed2;
  for (std::uint64_t k = 0; k < 128; ++k) {
    if (would_fire("test.site", k, 0)) fired_seed2.insert(k);
  }
  EXPECT_NE(fired_seed1, fired_seed2);
}

TEST_F(FaultpointTest, ZeroAndOneProbabilityAreExact) {
  configure("test.a=p0;test.b=p1");
  for (std::uint64_t k = 0; k < 32; ++k) {
    EXPECT_FALSE(would_fire("test.a", k, 0));
    EXPECT_TRUE(would_fire("test.b", k, 0));
  }
}

TEST_F(FaultpointTest, SampleScopesNestInnermostWins) {
  configure("test.site=key9");
  SampleScope outer(1);
  EXPECT_FALSE(should_fire("test.site"));
  {
    SampleScope inner(9);
    EXPECT_TRUE(should_fire("test.site"));
  }
  EXPECT_FALSE(should_fire("test.site"));
}

TEST_F(FaultpointTest, SuspendScopeSilencesEverySiteUncounted) {
  configure("test.a=always;test.b=key4");
  SampleScope scope(4);
  {
    SuspendScope outer;
    SuspendScope inner;
    EXPECT_FALSE(should_fire("test.a"));
    EXPECT_FALSE(should_fire("test.b"));
  }
  EXPECT_TRUE(should_fire("test.a"));
  EXPECT_TRUE(should_fire("test.b"));
  for (const SiteReport& r : report()) EXPECT_EQ(r.evaluations, 1u) << r.site;
}

TEST_F(FaultpointTest, ScopedKeyIsPerThread) {
  configure("test.site=key3");
  SampleScope scope(3);
  EXPECT_TRUE(should_fire("test.site"));
  bool other_thread_fired = true;
  std::thread worker([&] {
    // This thread never pushed a key: the trigger must not fire here.
    other_thread_fired = should_fire("test.site");
  });
  worker.join();
  EXPECT_FALSE(other_thread_fired);
}

TEST_F(FaultpointTest, MaybeFailThrowsFaultInjectedNamingTheSite) {
  configure("test.site=always");
  try {
    maybe_fail("test.site");
    FAIL() << "maybe_fail did not throw";
  } catch (const FaultInjected& e) {
    EXPECT_STREQ(e.site(), "test.site");
    EXPECT_NE(std::string(e.what()).find("test.site"), std::string::npos);
  }
  // And it is a runtime_error, so it travels the solver fallback paths.
  EXPECT_THROW(maybe_fail("test.site"), std::runtime_error);
}

TEST_F(FaultpointTest, RegisteredSolverSitesAreAccepted) {
  configure(
      "lu.singular_pivot=p0.01;sim.newton_nonconvergence=key0;sim.gmin_stage_fail=always;"
      "sim.transient_step_collapse=key1;pool.task_throw=p0.5@7");
  EXPECT_EQ(report().size(), 5u);
}

TEST_F(FaultpointTest, SpecParsingRejectsMalformedEntries) {
  // Unknown site: a typo must not arm nothing silently.
  EXPECT_THROW(configure("lu.singular_pivo=always"), std::invalid_argument);
  // Missing '=' and missing site name.
  EXPECT_THROW(configure("test.site"), std::invalid_argument);
  EXPECT_THROW(configure("=always"), std::invalid_argument);
  // Bad triggers.
  EXPECT_THROW(configure("test.site=q0.5"), std::invalid_argument);
  EXPECT_THROW(configure("test.site=p1.5"), std::invalid_argument);
  EXPECT_THROW(configure("test.site=p-0.5"), std::invalid_argument);
  EXPECT_THROW(configure("test.site=pnan"), std::invalid_argument);
  EXPECT_THROW(configure("test.site=n1"), std::invalid_argument);
  EXPECT_THROW(configure("test.site=key"), std::invalid_argument);
  EXPECT_THROW(configure("test.site=key1|"), std::invalid_argument);
  EXPECT_THROW(configure("test.site=key1|x"), std::invalid_argument);
  // Integers beyond 64 bits are rejected, not wrapped: 2^64 + 3 once armed key 3.
  EXPECT_THROW(configure("test.site=key18446744073709551619"), std::invalid_argument);
  EXPECT_THROW(configure("test.site=key1|18446744073709551616"), std::invalid_argument);
  EXPECT_THROW(configure("test.site=p0.5@18446744073709551616"), std::invalid_argument);
  EXPECT_NO_THROW(configure("test.site=key18446744073709551615"));  // 2^64 - 1 fits
  EXPECT_TRUE(would_fire("test.site", 18446744073709551615ull, 0));
  EXPECT_FALSE(would_fire("test.site", 3, 0));
  // Duplicate site.
  EXPECT_THROW(configure("test.site=always;test.site=key1"), std::invalid_argument);
  // The offending entry is named in the diagnostic.
  try {
    configure("test.good=always;bogus.site=always");
    FAIL() << "configure did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bogus.site"), std::string::npos);
  }
}

TEST_F(FaultpointTest, SpecAllowsSeparatorsAndWhitespace) {
  configure(" test.a=always , test.b=key1 ; ");
  EXPECT_EQ(report().size(), 2u);
  EXPECT_TRUE(should_fire("test.a"));
}

TEST_F(FaultpointTest, EmptySpecDisarms) {
  configure("test.site=always");
  EXPECT_TRUE(armed());
  configure("");
  EXPECT_FALSE(armed());
  EXPECT_FALSE(should_fire("test.site"));
}

TEST_F(FaultpointTest, WouldFireIsPureAndCountsNothing) {
  configure("test.site=p0.5@5");
  for (std::uint64_t k = 0; k < 16; ++k) would_fire("test.site", k, 0);
  const auto reports = report();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].evaluations, 0u);
  EXPECT_EQ(reports[0].fires, 0u);
}

TEST_F(FaultpointTest, ConcurrentEvaluationsAreCountedExactly) {
  // Each thread scopes its own key; only thread 1's key fires.  Neither the
  // decisions nor the report counters may lose or invent an evaluation.
  configure("test.site=key1");
  std::atomic<int> fires{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&fires, t] {
      SampleScope scope(static_cast<std::uint64_t>(t));
      for (int i = 0; i < 100; ++i) {
        if (should_fire("test.site")) fires.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(fires.load(), 100);
  const auto reports = report();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].evaluations, 400u);
  EXPECT_EQ(reports[0].fires, 100u);
}

}  // namespace
}  // namespace issa::util::faultpoint
