// Tests for the metrics/observability layer: cross-thread counter
// aggregation, timer monotonicity, span-fed timers, registry
// snapshot/reset/delta, report serialization, and the runtime-disabled
// no-op path.
#include "issa/util/metrics.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "issa/core/run_context.hpp"
#include "issa/util/json.hpp"
#include "issa/util/trace.hpp"

namespace issa::util::metrics {
namespace {

// Every test runs with a clean, enabled registry and leaves metrics disabled
// (the process-wide default) so other suites see no residue.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry::instance().reset();
    set_enabled(true);
  }
  void TearDown() override {
    set_enabled(false);
    Registry::instance().reset();
  }
};

TEST_F(MetricsTest, CounterAggregatesAcrossThreads) {
  Counter& c = Registry::instance().counter("test.threads");
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAddsPerThread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
}

TEST_F(MetricsTest, CounterAddSupportsIncrements) {
  Counter& c = Registry::instance().counter("test.incr");
  c.add(5);
  c.add(7);
  EXPECT_EQ(c.value(), 12u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(MetricsTest, TimerAccumulatesMonotonically) {
  Timer& t = Registry::instance().timer("test.timer");
  std::uint64_t last_total = 0;
  std::uint64_t last_count = 0;
  for (int i = 1; i <= 10; ++i) {
    t.record_ns(static_cast<std::uint64_t>(i));
    EXPECT_GE(t.total_ns(), last_total);
    EXPECT_EQ(t.count(), last_count + 1);
    last_total = t.total_ns();
    last_count = t.count();
  }
  EXPECT_EQ(t.count(), 10u);
  EXPECT_EQ(t.total_ns(), 55u);
}

TEST_F(MetricsTest, TimerScopeMeasuresElapsedTime) {
  // A trace::Span is the timing scope: with tracing off it still feeds the
  // timer of its own name.
  {
    const trace::Span span("test.scope", "test");
    EXPECT_FALSE(span.traced());  // timed for metrics, no raw trace event
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const Timer& t = Registry::instance().timer("test.scope");
  EXPECT_EQ(t.count(), 1u);
  EXPECT_GE(t.total_ns(), 2'000'000u);  // slept >= 2 ms
  EXPECT_LT(t.total_ns(), 60'000'000'000u);
}

TEST_F(MetricsTest, MonotonicClockNeverGoesBackwards) {
  std::uint64_t last = monotonic_ns();
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t now = monotonic_ns();
    EXPECT_GE(now, last);
    last = now;
  }
}

TEST_F(MetricsTest, HistogramBucketsByLog2) {
  Histogram& h = Registry::instance().histogram("test.hist");
  h.record(0);    // bucket 0
  h.record(1);    // bucket 1
  h.record(2);    // bucket 2
  h.record(3);    // bucket 2
  h.record(900);  // bucket 10
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.total(), 906u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(10), 1u);
}

TEST_F(MetricsTest, SnapshotMergesStripesExactly) {
  // More threads than stripes forces every cache-line cell to carry several
  // threads' contributions; the snapshot must still be the exact sum.
  Counter& c = Registry::instance().counter("test.stripe_merge");
  Timer& t = Registry::instance().timer("test.stripe_merge_t");
  constexpr std::size_t kThreads = 2 * detail::kStripes + 3;
  constexpr std::uint64_t kAdds = 5000;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&c, &t, i] {
      for (std::uint64_t k = 0; k < kAdds; ++k) {
        c.add(i + 1);
        t.record_ns(i + 1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // Sum over i of kAdds * (i + 1).
  const std::uint64_t expected = kAdds * kThreads * (kThreads + 1) / 2;
  const Snapshot snap = Registry::instance().snapshot();
  EXPECT_EQ(snap.value("test.stripe_merge"), expected);
  const SnapshotEntry* timer_entry = snap.find("test.stripe_merge_t");
  ASSERT_NE(timer_entry, nullptr);
  EXPECT_EQ(timer_entry->count, kThreads * kAdds);
  EXPECT_EQ(timer_entry->total_ns, expected);
}

TEST_F(MetricsTest, RegistryReturnsSameMetricForSameName) {
  Counter& a = Registry::instance().counter("test.same");
  Counter& b = Registry::instance().counter("test.same");
  EXPECT_EQ(&a, &b);
}

TEST_F(MetricsTest, SnapshotContainsCanonicalSchema) {
  const Snapshot snap = Registry::instance().snapshot();
  for (const char* name :
       {names::kNewtonIterations, names::kLuFactorizations, names::kPoolTasksExecuted,
        names::kMcSamples, names::kPoolQueueLatency}) {
    EXPECT_NE(snap.find(name), nullptr) << name;
  }
  // Every span name has its timer before any span ran.
  for (const char* name : trace::spans::kAll) {
    const SnapshotEntry* entry = snap.find(name);
    ASSERT_NE(entry, nullptr) << name;
    EXPECT_EQ(entry->kind, Kind::kTimer) << name;
    EXPECT_EQ(entry->count, 0u) << name;
  }
}

TEST_F(MetricsTest, SnapshotReflectsAndResetClears) {
  Registry::instance().counter("test.snap").add(3);
  Registry::instance().timer("test.snap_t").record_ns(42);
  Snapshot snap = Registry::instance().snapshot();
  EXPECT_EQ(snap.value("test.snap"), 3u);
  const SnapshotEntry* timer_entry = snap.find("test.snap_t");
  ASSERT_NE(timer_entry, nullptr);
  EXPECT_EQ(timer_entry->count, 1u);
  EXPECT_EQ(timer_entry->total_ns, 42u);

  Registry::instance().reset();
  snap = Registry::instance().snapshot();
  EXPECT_EQ(snap.value("test.snap"), 0u);  // zeroed but still registered
  EXPECT_NE(snap.find("test.snap"), nullptr);
}

TEST_F(MetricsTest, DeltaSinceIsolatesScopedWork) {
  Counter& c = Registry::instance().counter("test.delta");
  c.add(10);
  const Snapshot before = Registry::instance().snapshot();
  c.add(7);
  const Snapshot delta = Registry::instance().snapshot().delta_since(before);
  EXPECT_EQ(delta.value("test.delta"), 7u);
}

TEST_F(MetricsTest, RuntimeDisabledIsNoOp) {
  Counter& c = Registry::instance().counter("test.disabled");
  Timer& t = Registry::instance().timer("test.disabled_t");
  set_enabled(false);
  c.add(100);
  t.record_ns(100);
  { const trace::Span span("test.disabled_t", "test"); }
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(t.count(), 0u);
  set_enabled(true);
  c.add(1);
  EXPECT_EQ(c.value(), 1u);
}

TEST_F(MetricsTest, JsonReportIsWellFormed) {
  Registry::instance().counter("test.json \"quoted\"").add(2);
  const Snapshot snap = Registry::instance().snapshot();
  // Nested at depth "  ": one metric per line, four spaces in, and the
  // closing brace two spaces in.
  const std::string json = to_json(snap, "  ");
  EXPECT_NE(json.find("\n    \"test.json \\\"quoted\\\"\": {\"kind\": \"counter\", \"count\": 2}"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.substr(json.size() - 4), "\n  }");
  const json::Value doc = json::Value::parse(json);
  EXPECT_EQ(doc.at("test.json \"quoted\"").at("count").as_number(), 2.0);
  EXPECT_EQ(doc.as_object().size(), snap.entries.size());
  EXPECT_TRUE(json::Value::parse(to_json(Snapshot{})).as_object().empty());
}

TEST_F(MetricsTest, ReportFilesRoundTrip) {
  // The run's metrics report holds the whole-run object with one metric per
  // line: scripts/check_cache_correctness.sh greps a counter out of this form.
  const std::string stem = ::testing::TempDir() + "metrics_test_report";
  const std::string arg = "--metrics=" + stem;
  const char* argv[] = {"metrics_test", arg.c_str()};
  ::testing::internal::CaptureStdout();
  {
    core::RunContext run(2, argv, "roundtrip");
    Registry::instance().counter("test.file").add(9);
  }
  ::testing::internal::GetCapturedStdout();

  std::ifstream json_in(stem + ".metrics.json");
  std::stringstream json_text;
  json_text << json_in.rdbuf();
  EXPECT_NE(json_text.str().find("\n    \"test.file\": {\"kind\": \"counter\", \"count\": 9}"),
            std::string::npos);
  const json::Value doc = json::Value::parse(json_text.str());
  EXPECT_EQ(doc.at("title").as_string(), "roundtrip");
  EXPECT_EQ(doc.at("metrics").at("test.file").at("count").as_number(), 9.0);

  std::remove((stem + ".metrics.json").c_str());
}

}  // namespace
}  // namespace issa::util::metrics
