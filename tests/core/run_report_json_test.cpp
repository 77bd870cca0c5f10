// The metrics report must be strict JSON whatever the labels hold: every
// report core::RunContext writes for attached rows is parsed back with
// util::json and its strings compared with what went in.  Quotes and
// backslashes survive exactly; control characters are written as spaces.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "issa/core/run_context.hpp"
#include "issa/util/json.hpp"

namespace issa::core {
namespace {

// Labels that break naive string concatenation: quotes, backslashes, and
// control characters (which JSON requires escaped).
const std::string kNastyTitle = "Table \"II\" \\ run\n\ttab\x01\x1f end";

// What a string reads as after the round trip.
std::string as_written(std::string s) {
  for (char& c : s) {
    if (static_cast<unsigned char>(c) < 0x20) c = ' ';
  }
  return s;
}

ExperimentRow nasty_row(std::size_t quarantined) {
  ExperimentRow row;
  row.scheme = "NS\"SA\\";
  row.workload_label = "80\"r0\\r1\b\f\r\n\t\x02";
  row.stress_time_s = 1e8;
  row.quarantined = quarantined;
  row.metrics.entries.push_back({"sim.\"quoted\"\\name", util::metrics::Kind::kCounter, 7, 0, {}});
  return row;
}

struct Report {
  std::string run_id;  // the RunContext's
  util::json::Value doc;
};

// Runs a RunContext named `title` with --metrics, attaches `rows`, and parses
// the report finish() writes.
Report write_and_parse(const std::string& name, const std::string& title,
                       std::vector<ExperimentRow> rows) {
  const std::string stem = ::testing::TempDir() + "/issa_run_report_" + name;
  const std::string arg = "--metrics=" + stem;
  const char* argv[] = {"run_report_json_test", arg.c_str()};
  Report report;
  ::testing::internal::CaptureStdout();
  {
    RunContext run(2, argv, title);
    report.run_id = run.run_id();
    run.attach_rows(std::move(rows));
    EXPECT_TRUE(run.finish());
  }
  ::testing::internal::GetCapturedStdout();
  std::ifstream in(stem + ".metrics.json");
  std::ostringstream text;
  text << in.rdbuf();
  report.doc = util::json::Value::parse(text.str());
  return report;
}

TEST(RunReportJson, NastyLabelsRoundTrip) {
  const std::vector<ExperimentRow> rows = {nasty_row(1), nasty_row(0)};
  const util::json::Value doc = write_and_parse("nasty", kNastyTitle, rows).doc;

  EXPECT_EQ(doc.at("title").as_string(), as_written(kNastyTitle));
  const auto& conditions = doc.at("conditions").as_array();
  ASSERT_EQ(conditions.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(conditions[i].at("condition").as_string(), as_written(rows[i].condition_label()));
    const auto& metric = conditions[i].at("metrics").at("sim.\"quoted\"\\name");
    EXPECT_EQ(metric.at("count").as_number(), 7.0);
  }
  // Only the quarantined row is listed as degraded, under its exact label.
  const auto& degraded = doc.at("degraded_conditions").as_array();
  ASSERT_EQ(degraded.size(), 1u);
  EXPECT_EQ(degraded[0].at("condition").as_string(), as_written(rows[0].condition_label()));
  EXPECT_EQ(doc.at("quarantined_samples").as_number(), 1.0);
}

TEST(RunReportJson, RunIdIsNeverEmpty) {
  const Report report = write_and_parse("run_id", "t", {nasty_row(0)});
  EXPECT_FALSE(report.run_id.empty());
  EXPECT_EQ(report.doc.at("run_id").as_string(), report.run_id);
}

TEST(RunReportJson, SuppliedRunIdAndProvenanceRoundTrip) {
  // The report carries the run's id, wall clock and peak RSS, and the
  // whole-run metrics object precedes the per-condition entries.
  const Report report = write_and_parse("provenance", kNastyTitle, {nasty_row(2)});
  const util::json::Value& doc = report.doc;
  EXPECT_EQ(doc.at("run_id").as_string(), report.run_id);
  EXPECT_GE(doc.at("wall_clock_s").as_number(), 0.0);
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
  const util::json::Value doc = write_and_parse("no_rows", kNastyTitle, {}).doc;
  EXPECT_TRUE(doc.at("conditions").as_array().empty());
  EXPECT_TRUE(doc.at("degraded_conditions").as_array().empty());
  EXPECT_FALSE(doc.at("run_id").as_string().empty());
}

}  // namespace
}  // namespace issa::core
