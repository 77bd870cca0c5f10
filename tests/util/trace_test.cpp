// Tests for the hierarchical span tracer: ring collection, nesting depth
// under recursive parallel_for, forensic bundles with open-span context, the
// runtime-disabled no-op path, ring overflow accounting, agreement with the
// span-fed metrics timers, and a Chrome trace-event JSON round trip through
// the in-tree JSON parser.
#include "issa/util/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "issa/analysis/montecarlo.hpp"
#include "issa/circuit/simulator.hpp"
#include "issa/device/mos_params.hpp"
#include "issa/util/faultpoint.hpp"
#include "issa/util/json.hpp"
#include "issa/util/metrics.hpp"
#include "issa/util/thread_pool.hpp"

namespace issa::util::trace {
namespace {

// Every test starts from a clean, enabled tracer and leaves tracing disabled
// (the process-wide default) so other suites see no residue.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(false);
    clear();
    set_enabled(true);
  }
  void TearDown() override {
    set_enabled(false);
    clear();
  }
};

TEST_F(TraceTest, SpanRecordsNameCategoryAndDuration) {
  {
    Span span("test.outer", "test");
    span.attr_u64("answer", 42);
    span.attr_f64("pi", 3.25);
    span.attr_str("tag", "hello");
  }
  set_enabled(false);
  const TraceData data = collect();
  ASSERT_EQ(data.spans.size(), 1u);
  const SpanEvent& e = data.spans[0];
  EXPECT_STREQ(e.name, "test.outer");
  EXPECT_STREQ(e.category, "test");
  EXPECT_EQ(e.depth, 0u);
  ASSERT_EQ(e.attrs.size(), 3u);
  EXPECT_EQ(e.attrs[0].u, 42u);
  EXPECT_DOUBLE_EQ(e.attrs[1].d, 3.25);
  EXPECT_EQ(e.attrs[2].s, "hello");
}

TEST_F(TraceTest, NestedSpansCarryDepthAndContainment) {
  {
    Span outer("test.a", "test");
    {
      Span mid("test.b", "test");
      { Span inner("test.c", "test"); }
    }
  }
  set_enabled(false);
  const TraceData data = collect();
  ASSERT_EQ(data.spans.size(), 3u);
  std::map<std::string, const SpanEvent*> by_name;
  for (const auto& e : data.spans) by_name[e.name] = &e;
  EXPECT_EQ(by_name.at("test.a")->depth, 0u);
  EXPECT_EQ(by_name.at("test.b")->depth, 1u);
  EXPECT_EQ(by_name.at("test.c")->depth, 2u);
  // Children are contained in their parents' intervals.
  const auto contains = [](const SpanEvent* outer, const SpanEvent* inner) {
    return outer->start_ns <= inner->start_ns &&
           inner->start_ns + inner->dur_ns <= outer->start_ns + outer->dur_ns;
  };
  EXPECT_TRUE(contains(by_name.at("test.a"), by_name.at("test.b")));
  EXPECT_TRUE(contains(by_name.at("test.b"), by_name.at("test.c")));
}

TEST_F(TraceTest, NestingHoldsUnderRecursiveParallelFor) {
  // Recursive parallel_for is the hardest nesting case: the caller-helps
  // drain means one thread can execute a nested task in the middle of its
  // own outer task.  The per-thread stack must still pair up: within each
  // tid, spans at depth d+1 open while exactly one depth-d span is open.
  {
    ThreadPool pool(4);
    pool.parallel_for(0, 8, [&pool](std::size_t) {
      Span outer("test.outer", "test");
      pool.parallel_for(0, 4, [](std::size_t) { Span inner("test.inner", "test"); });
    });
    // parallel_for returns when every body() has run, but the finishing
    // worker may still be closing its pool.task span; destroy the pool
    // (joining the workers) to quiesce before draining the rings, or that
    // span can be missing from the collected stream.
  }
  set_enabled(false);
  const TraceData data = collect();

  std::size_t outer_count = 0;
  std::size_t inner_count = 0;
  std::map<std::uint32_t, std::vector<const SpanEvent*>> by_tid;
  for (const auto& e : data.spans) {
    by_tid[e.tid].push_back(&e);
    if (std::string_view(e.name) == "test.outer") ++outer_count;
    if (std::string_view(e.name) == "test.inner") ++inner_count;
  }
  EXPECT_EQ(outer_count, 8u);
  EXPECT_EQ(inner_count, 32u);

  // Stack discipline per thread: replaying the events in time order, a
  // span's recorded depth must equal the number of still-open spans that
  // strictly contain it on the same thread.
  for (const auto& [tid, events] : by_tid) {
    for (const SpanEvent* e : events) {
      std::size_t open = 0;
      for (const SpanEvent* other : events) {
        if (other == e) continue;
        if (other->start_ns <= e->start_ns &&
            e->start_ns + e->dur_ns <= other->start_ns + other->dur_ns) {
          ++open;
        }
      }
      EXPECT_EQ(e->depth, open) << e->name << " on tid " << tid;
    }
  }
}

TEST_F(TraceTest, RuntimeDisabledCollectsNothing) {
  set_enabled(false);
  {
    Span span("test.off", "test");
    EXPECT_FALSE(span.traced());
    span.attr_u64("ignored", 1);
  }
  record_forensic(ForensicEvent{});
  const TraceData data = collect();
  EXPECT_TRUE(data.spans.empty());
  EXPECT_TRUE(data.forensics.empty());
  EXPECT_EQ(data.dropped, 0u);
}

TEST_F(TraceTest, RingOverflowKeepsNewestAndCountsDropped) {
  for (std::size_t i = 0; i < kRingCapacity + 12; ++i) {
    Span span("test.wrap", "test");
    span.attr_u64("i", i);
  }
  set_enabled(false);
  const TraceData data = collect();
  ASSERT_EQ(data.spans.size(), kRingCapacity);
  EXPECT_EQ(data.dropped, 12u);
  // The survivors are the newest events, oldest-first.
  for (std::size_t k = 0; k < data.spans.size(); ++k) {
    ASSERT_EQ(data.spans[k].attrs.size(), 1u);
    ASSERT_EQ(data.spans[k].attrs[0].u, 12u + k);
  }
}

TEST_F(TraceTest, ForensicCapturesSpanPathAndThreadContext) {
  {
    Span outer("test.phase", "test");
    outer.attr_u64("sample", 3);
    outer.attr_str("kind", "NSSA");
    Span inner("test.solve", "test");
    inner.attr_u64("sample", 7);  // the inner span's value wins
    ForensicEvent event;
    event.kind = "newton_nonconvergence";
    event.attrs.push_back(Attr::str("reason", "unit"));
    event.residual_history = {1.0, 0.5, 0.25};
    record_forensic(std::move(event));
  }
  set_enabled(false);
  const TraceData data = collect();
  ASSERT_EQ(data.forensics.size(), 1u);
  const ForensicEvent& f = data.forensics[0];
  EXPECT_EQ(f.kind, "newton_nonconvergence");
  ASSERT_EQ(f.span_path.size(), 2u);
  EXPECT_EQ(f.span_path[0], "test.phase");
  EXPECT_EQ(f.span_path[1], "test.solve");
  // Open-span attrs first, outermost span first, caller extras after; each
  // key once.
  ASSERT_EQ(f.attrs.size(), 3u);
  EXPECT_STREQ(f.attrs[0].key, "sample");
  EXPECT_EQ(f.attrs[0].u, 7u);
  EXPECT_STREQ(f.attrs[1].key, "kind");
  EXPECT_STREQ(f.attrs[2].key, "reason");
  ASSERT_EQ(f.residual_history.size(), 3u);
  EXPECT_DOUBLE_EQ(f.residual_history.back(), 0.25);
}

TEST_F(TraceTest, ForensicListIsBounded) {
  for (std::size_t i = 0; i < kMaxForensicEvents + 3; ++i) {
    ForensicEvent event;
    event.kind = std::to_string(i);
    record_forensic(std::move(event));
  }
  set_enabled(false);
  const TraceData data = collect();
  EXPECT_EQ(data.forensics.size(), kMaxForensicEvents);
  EXPECT_EQ(data.forensics_dropped, 3u);
}

TEST_F(TraceTest, TerminalDcFailureRecordsForensicBundle) {
  // End-to-end forensics through the real solver: an injected
  // non-convergence on every Newton solve defeats plain Newton, the gmin
  // homotopy, and source stepping alike, so solve_dc must throw and leave
  // exactly one terminal bundle carrying the caller's span context.
  circuit::Netlist net;
  const circuit::NodeId vdd = net.node("vdd");
  const circuit::NodeId in = net.node("in");
  const circuit::NodeId out = net.node("out");
  net.add_vsource("Vdd", vdd, circuit::kGround, circuit::SourceWave::dc(1.0));
  net.add_vsource("Vin", in, circuit::kGround, circuit::SourceWave::dc(0.5));
  device::MosInstance mn;
  mn.card = device::ptm45_nmos();
  mn.type = device::MosType::kNmos;
  mn.w_over_l = 2.5;
  device::MosInstance mp;
  mp.card = device::ptm45_pmos();
  mp.type = device::MosType::kPmos;
  mp.w_over_l = 5.0;
  net.add_mosfet("MN", mn, in, out, circuit::kGround, circuit::kGround);
  net.add_mosfet("MP", mp, in, out, vdd, vdd);

  circuit::Simulator sim(net, 298.15);
  faultpoint::configure("sim.newton_nonconvergence=always");

  {
    Span sample("test.sample", "test");
    sample.attr_u64("sample", 13);
    sample.attr_str("kind", "unit");
    EXPECT_THROW(sim.solve_dc(), circuit::ConvergenceError);
  }
  faultpoint::clear();

  set_enabled(false);
  const TraceData data = collect();
  ASSERT_EQ(data.forensics.size(), 1u);
  const ForensicEvent& f = data.forensics[0];
  EXPECT_EQ(f.kind, "newton_nonconvergence");
  // Open-span context first, then the solver's own attrs.
  ASSERT_GE(f.attrs.size(), 3u);
  EXPECT_STREQ(f.attrs[0].key, "sample");
  EXPECT_EQ(f.attrs[0].u, 13u);
  bool reason_ok = false;
  for (const Attr& a : f.attrs) {
    if (std::string_view(a.key) == "reason") reason_ok = (a.s == "dc_all_fallbacks_failed");
  }
  EXPECT_TRUE(reason_ok);
  // The history workspace holds the last failed solve (its initial residual
  // is recorded before the fault fires); node voltages cover every node
  // including ground.
  EXPECT_FALSE(f.residual_history.empty());
  EXPECT_EQ(f.node_voltages.size(), 4u);
  // Recorded while the DC span was still open.
  ASSERT_FALSE(f.span_path.empty());
  EXPECT_EQ(f.span_path.back(), spans::kDcSolve);
}

TEST_F(TraceTest, TraceAndMetricsAgree) {
  // With both layers on, every closed span is one raw event AND one count in
  // the metrics timer of its name, and a small Monte-Carlo sweep fits the
  // default rings without dropping anything.
  metrics::Registry& registry = metrics::Registry::instance();
  registry.reset();
  metrics::set_enabled(true);
  {
    ThreadPool pool(2);
    analysis::Condition condition;
    condition.kind = sa::SenseAmpKind::kNssa;
    condition.config = sa::nominal_config();
    analysis::McConfig mc;
    mc.iterations = 4;
    mc.pool = &pool;
    analysis::measure_offset_distribution(condition, mc);
  }  // joins the workers, so every pool.task span has closed
  set_enabled(false);
  const TraceData data = collect();
  const metrics::Snapshot snapshot = registry.snapshot();
  metrics::set_enabled(false);
  registry.reset();

  EXPECT_EQ(data.dropped, 0u);
  std::map<std::string, std::uint64_t> events;
  for (const SpanEvent& e : data.spans) ++events[e.name];
  for (const char* name : spans::kAll) events.try_emplace(name, 0);
  for (const auto& [name, count] : events) {
    const metrics::SnapshotEntry* timer = snapshot.find(name);
    ASSERT_NE(timer, nullptr) << name;
    EXPECT_EQ(timer->kind, metrics::Kind::kTimer) << name;
    EXPECT_EQ(timer->count, count) << name;
  }
  EXPECT_EQ(events[spans::kMcSample], 4u);
  EXPECT_EQ(events[spans::kMcSample], snapshot.value(metrics::names::kMcSamples));
  EXPECT_GT(events[spans::kDcSolve], 0u);
  EXPECT_EQ(events[spans::kDcSolve], snapshot.value(metrics::names::kDcSolves));
}

TEST_F(TraceTest, ClearDropsBufferedEvents) {
  { Span span("test.cleared", "test"); }
  clear();
  set_enabled(false);
  const TraceData data = collect();
  EXPECT_TRUE(data.spans.empty());
}

// Serialization is compiled in both modes; these round-trip what the writers
// produce through the in-tree JSON parser.

TEST_F(TraceTest, ChromeJsonRoundTripsThroughParser) {
  {
    Span outer("test.rt_outer", "test");
    outer.attr_u64("n", 3);
    { Span inner("test.rt_inner", "test"); }
  }
  ForensicEvent event;
  event.kind = "unit_kind";
  event.residual_history = {2.0, 1.0};
  {
    Span s("test.rt_fail", "test");
    record_forensic(std::move(event));
  }
  set_enabled(false);
  const TraceData data = collect();
  const std::string text = to_chrome_json(data, "run-123");

  const json::Value doc = json::Value::parse(text);
  const json::Value& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  std::size_t complete = 0;
  std::size_t instants = 0;
  for (const json::Value& e : events.as_array()) {
    ASSERT_TRUE(e.is_object());
    ASSERT_TRUE(e.at("name").is_string());
    const std::string& ph = e.at("ph").as_string();
    if (ph == "X") {
      ++complete;
      EXPECT_GE(e.at("dur").as_number(), 0.0);
      EXPECT_TRUE(e.at("args").is_object());
      EXPECT_NE(e.at("args").find("depth"), nullptr);
    } else if (ph == "i") {
      ++instants;
      EXPECT_EQ(e.at("s").as_string(), "t");
    } else {
      EXPECT_EQ(ph, "M");
    }
  }
  EXPECT_EQ(doc.at("metadata").at("run_id").as_string(), "run-123");
  EXPECT_EQ(complete, 3u);
  EXPECT_EQ(instants, 1u);
  // The instant event names the forensic kind and carries the span path.
  bool found = false;
  for (const json::Value& e : events.as_array()) {
    if (e.at("name").as_string() == "forensic.unit_kind") {
      found = true;
      EXPECT_EQ(e.at("args").at("span_path").as_string(), "test.rt_fail");
      EXPECT_EQ(e.at("args").at("residual_history").as_array().size(), 2u);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(TraceTest, ForensicsJsonParsesWithFullHistories) {
  ForensicEvent event;
  event.kind = "transient_step_collapse";
  event.residual_history = {4.0, 2.0, 1.0};
  event.alpha_history = {1.0, 0.5};
  event.node_voltages = {0.0, 1.0, 0.5};
  record_forensic(std::move(event));
  set_enabled(false);
  const json::Value doc = json::Value::parse(to_chrome_json(collect(), "run-xyz"));
  EXPECT_EQ(doc.at("metadata").at("run_id").as_string(), "run-xyz");
  std::vector<const json::Value*> instants;
  for (const json::Value& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() == "i") instants.push_back(&e);
  }
  ASSERT_EQ(instants.size(), 1u);
  EXPECT_EQ(instants[0]->at("name").as_string(), "forensic.transient_step_collapse");
  const json::Value& args = instants[0]->at("args");
  EXPECT_EQ(args.at("residual_history").as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(args.at("alpha_history").as_array()[1].as_number(), 0.5);
  EXPECT_EQ(args.at("node_voltages").as_array().size(), 3u);
}

TEST_F(TraceTest, QuarantineForensicNamesItsSampleOnce) {
  // A sample quarantined on a pool worker: the bundle takes its context from
  // the mc.sample span open on that thread, and carries each key once.
  faultpoint::configure("sim.newton_nonconvergence=key1");
  {
    ThreadPool pool(2);
    analysis::Condition condition;
    condition.kind = sa::SenseAmpKind::kNssa;
    condition.config = sa::nominal_config();
    analysis::McConfig mc;
    mc.iterations = 4;
    mc.pool = &pool;
    mc.max_quarantine_fraction = 1.0;
    const analysis::OffsetDistribution dist = analysis::measure_offset_distribution(condition, mc);
    ASSERT_EQ(dist.degradation.quarantined.size(), 1u);
  }
  faultpoint::clear();
  set_enabled(false);
  const json::Value doc = json::Value::parse(to_chrome_json(collect()));

  std::size_t quarantined = 0;
  for (const json::Value& e : doc.at("traceEvents").as_array()) {
    if (e.at("name").as_string() != "forensic.mc_sample_quarantined") continue;
    ++quarantined;
    const json::Value& args = e.at("args");
    std::map<std::string, int> seen;
    for (const auto& member : args.as_object()) ++seen[member.first];
    for (const auto& [key, count] : seen) EXPECT_EQ(count, 1) << key;
    for (const char* key :
         {"sample", "seed", "kind", "vdd", "temperature_c", "stress_time_s", "condition",
          "run_id", "error", "residual_history", "alpha_history", "node_voltages"}) {
      EXPECT_NE(args.find(key), nullptr) << key;
    }
    EXPECT_EQ(args.at("sample").as_number(), 1.0);
    EXPECT_EQ(args.at("seed").as_number(), 42.0);
    EXPECT_EQ(args.at("kind").as_string(), "NSSA");
    EXPECT_EQ(args.at("vdd").as_number(), sa::nominal_config().vdd);
    EXPECT_NE(args.at("span_path").as_string().find(spans::kMcSample), std::string::npos);
  }
  EXPECT_EQ(quarantined, 1u);
}

}  // namespace
}  // namespace issa::util::trace
