// The metrics report must be strict JSON whatever its strings hold: every
// report core::RunContext writes for the Monte-Carlo passes of its run is
// parsed back with util::json and its strings compared with what went in.
// The run title and a registered metric's name carry the hostile characters
// (a cell's label is analysis::condition_label's, with no room for them):
// quotes and backslashes survive exactly; control characters are written as
// spaces.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "issa/core/run_context.hpp"
#include "issa/util/faultpoint.hpp"
#include "issa/util/json.hpp"
#include "issa/util/metrics.hpp"

namespace issa::core {
namespace {

// Labels that break naive string concatenation: quotes, backslashes, and
// control characters (which JSON requires escaped).
const std::string kNastyTitle = "Table \"II\" \\ run\n\ttab\x01\x1f end";
const std::string kNastyMetric = "sim.\"quoted\"\\name";

// What a string reads as after the round trip.
std::string as_written(std::string s) {
  for (char& c : s) {
    if (static_cast<unsigned char>(c) < 0x20) c = ' ';
  }
  return s;
}

// Every run fails the Newton solves of sample 3, twice, so each pass that
// reaches it quarantines it.
const std::string kFaults = "--faults=sim.newton_nonconvergence=key3";

analysis::Condition aged_cell() {
  return analysis::make_condition(sa::SenseAmpKind::kNssa, workload::workload_from_name("80r0"),
                                  1e8);
}

analysis::Condition fresh_cell() {
  return analysis::make_condition(sa::SenseAmpKind::kNssa, workload::Workload{}, 0.0);
}

struct Report {
  std::string run_id;  // the RunContext's
  util::json::Value doc;
};

// Runs a RunContext named `title` with --metrics, the faults and a tolerated
// quarantine, runs `work` on its McConfig, and parses the report finish()
// writes.
Report write_and_parse(const std::string& name, const std::string& title,
                       const std::function<void(const analysis::McConfig&)>& work) {
  const std::string stem = ::testing::TempDir() + "/issa_run_report_" + name;
  const std::string arg = "--metrics=" + stem;
  const char* argv[] = {"run_report_json_test", arg.c_str(), kFaults.c_str(),
                        "--quarantine-max=1", "--mc=4"};
  Report report;
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  {
    RunContext run(5, argv, title);
    report.run_id = run.run_id();
    work(run.mc());
    EXPECT_TRUE(run.finish());
  }
  util::faultpoint::clear();
  ::testing::internal::GetCapturedStderr();
  ::testing::internal::GetCapturedStdout();
  std::ifstream in(stem + ".metrics.json");
  std::ostringstream text;
  text << in.rdbuf();
  report.doc = util::json::Value::parse(text.str());
  return report;
}

// A delay pass over `condition` on the first `iterations` samples: four
// reach the faulted sample 3, two do not.
void delay_pass(const analysis::Condition& condition, analysis::McConfig mc,
                std::size_t iterations) {
  mc.iterations = iterations;
  analysis::measure_delay_distribution(condition, mc);
}

TEST(RunReportJson, NastyLabelsRoundTrip) {
  const util::json::Value doc =
      write_and_parse("nasty", kNastyTitle, [](const analysis::McConfig& mc) {
        util::metrics::Registry::instance().counter(kNastyMetric).add(7);
        delay_pass(aged_cell(), mc, 4);
        delay_pass(fresh_cell(), mc, 2);
      }).doc;

  EXPECT_EQ(doc.at("title").as_string(), as_written(kNastyTitle));
  EXPECT_EQ(doc.at("metrics").at(kNastyMetric).at("count").as_number(), 7.0);
  const auto& conditions = doc.at("conditions").as_array();
  ASSERT_EQ(conditions.size(), 2u);
  EXPECT_EQ(conditions[0].at("condition").as_string(), analysis::condition_label(aged_cell()));
  EXPECT_EQ(conditions[1].at("condition").as_string(), analysis::condition_label(fresh_cell()));
  for (const util::json::Value& cell : conditions) {
    // Registered before the passes, so each pass's delta lists it at 0.
    EXPECT_EQ(cell.at("metrics").at(kNastyMetric).at("count").as_number(), 0.0);
  }
  // Only the quarantined pass is listed as degraded, under its exact label.
  const auto& degraded = doc.at("degraded_conditions").as_array();
  ASSERT_EQ(degraded.size(), 1u);
  EXPECT_EQ(degraded[0].at("condition").as_string(), analysis::condition_label(aged_cell()));
  EXPECT_EQ(degraded[0].at("quarantined").as_number(), 1.0);
  EXPECT_EQ(doc.at("quarantined_samples").as_number(), 1.0);
}

TEST(RunReportJson, RunIdIsNeverEmpty) {
  const Report report = write_and_parse(
      "run_id", "t", [](const analysis::McConfig& mc) { delay_pass(fresh_cell(), mc, 2); });
  EXPECT_FALSE(report.run_id.empty());
  EXPECT_EQ(report.doc.at("run_id").as_string(), report.run_id);
}

TEST(RunReportJson, SuppliedRunIdAndProvenanceRoundTrip) {
  // The report carries the run's id, wall clock, CPU time and peak RSS, and the
  // whole-run metrics object precedes the per-condition entries.  The
  // cell's offset and its delay each quarantine sample 3.
  const Report report =
      write_and_parse("provenance", kNastyTitle, [](const analysis::McConfig& mc) {
        analysis::measure_cell(aged_cell(), mc);
      });
  const util::json::Value& doc = report.doc;
  EXPECT_EQ(doc.at("run_id").as_string(), report.run_id);
  EXPECT_GE(doc.at("wall_clock_s").as_number(), 0.0);
  // The run's own CPU time and preemptions, counted from the RunContext's
  // start: the cell's transients take CPU time, and CPU over wall is their
  // ratio.
  const double cpu_s = doc.at("cpu_s").as_number();
  EXPECT_GT(cpu_s, 0.0);
  EXPECT_NEAR(doc.at("cpu_over_wall").as_number(), cpu_s / doc.at("wall_clock_s").as_number(),
              1e-3 * doc.at("cpu_over_wall").as_number());
  EXPECT_GE(doc.at("involuntary_context_switches").as_number(), 0.0);
  EXPECT_GT(doc.at("rss_peak_kb").as_number(), 0.0);
  EXPECT_EQ(doc.at("quarantined_samples").as_number(), 2.0);
  ASSERT_TRUE(doc.at("metrics").is_object());
  EXPECT_NE(doc.at("metrics").find("sim.newton_iterations"), nullptr);
  std::vector<std::string> keys;
  for (const auto& member : doc.as_object()) keys.push_back(member.first);
  EXPECT_LT(std::find(keys.begin(), keys.end(), "metrics"),
            std::find(keys.begin(), keys.end(), "conditions"));
}

TEST(RunReportJson, NoRowsIsStillAValidDocument) {
  // A run with no Monte-Carlo pass lists no condition.
  const util::json::Value doc =
      write_and_parse("no_rows", kNastyTitle, [](const analysis::McConfig&) {}).doc;
  EXPECT_TRUE(doc.at("conditions").as_array().empty());
  EXPECT_TRUE(doc.at("degraded_conditions").as_array().empty());
  EXPECT_FALSE(doc.at("run_id").as_string().empty());
}

}  // namespace
}  // namespace issa::core
