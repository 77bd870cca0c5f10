// Tests for core::RunContext: run flags into the McConfig, strict option
// handling, sidecars joined by one run id, the cache summary line, and the
// emit-exactly-once contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "issa/analysis/mc_cache.hpp"
#include "issa/core/run_context.hpp"
#include "issa/sa/config.hpp"
#include "issa/util/faultpoint.hpp"
#include "issa/util/json.hpp"
#include "issa/util/trace.hpp"

namespace {

using namespace issa;
namespace fs = std::filesystem;

// argv for a RunContext: a program name followed by `args`.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : strings_(std::move(args)) {
    strings_.insert(strings_.begin(), "run_context_test");
    for (const auto& s : strings_) pointers_.push_back(s.c_str());
  }
  int argc() const { return static_cast<int>(pointers_.size()); }
  const char* const* argv() const { return pointers_.data(); }

 private:
  std::vector<std::string> strings_;
  std::vector<const char*> pointers_;
};

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("issa_run_context_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

util::json::Value read_json(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return util::json::Value::parse(text.str());
}

std::size_t count_of(const std::string& haystack, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(RunContextTest, RunFlagsBuildTheMcConfig) {
  const Argv args({"--mc=7", "--seed=9", "--quarantine-max=0.25"});
  core::RunContext run(args.argc(), args.argv(), "t");
  EXPECT_EQ(run.mc().iterations, 7u);
  EXPECT_EQ(run.mc().seed, 9u);
  EXPECT_DOUBLE_EQ(run.mc().max_quarantine_fraction, 0.25);
  EXPECT_FALSE(run.run_id().empty());
  EXPECT_EQ(run.mc().run_id, run.run_id());
}

TEST(RunContextTest, SeedTakesTheWholeUint64Range) {
  const Argv args({"--seed=18446744073709551615"});
  core::RunContext run(args.argc(), args.argv(), "t");
  EXPECT_EQ(run.mc().seed, UINT64_MAX);
}

TEST(RunContextDeathTest, BadSeedExitsTwo) {
  // A seed is the decimal digits of a uint64_t: "-1" once ran seed 2^64 - 1,
  // and a bare --seed the default 42.
  for (const char* bad : {"--seed=-1", "--seed=+1", "--seed=18446744073709551616",
                          "--seed=4x", "--seed=", "--seed"}) {
    const Argv args({bad});
    EXPECT_EXIT(core::RunContext(args.argc(), args.argv(), "t"), ::testing::ExitedWithCode(2),
                "--seed.*\nusage: run_context_test")
        << bad;
  }
}

TEST(RunContextDeathTest, BadMcCountExitsTwo) {
  // Zero, negative, malformed and missing counts stop before any run; none
  // of them may fall back to the default 400-sample sweep.  Nor may a run
  // of fewer than the two samples a standard deviation needs.
  for (const char* bad : {"--mc=0", "--mc=-5", "--mc=abc", "--mc=3x", "--mc=1", "--mc"}) {
    const Argv args({bad});
    EXPECT_EXIT(core::RunContext(args.argc(), args.argv(), "t"), ::testing::ExitedWithCode(2),
                "--mc.*\nusage: run_context_test")
        << bad;
  }
}

TEST(RunContextDeathTest, BadQuarantineMaxExitsTwo) {
  // NaN would disable the degradation gate (every comparison is false) and a
  // negative fraction would fail every cell with nothing quarantined.
  for (const std::string bad : {"=nan", "=-0.1", "=0.5x", "=1.5", ""}) {
    const Argv args({"--quarantine-max" + bad});
    EXPECT_EXIT(core::RunContext(args.argc(), args.argv(), "t"), ::testing::ExitedWithCode(2),
                "--quarantine-max.*\nusage: run_context_test")
        << bad;
  }
}

TEST(RunContextDeathTest, UnknownOptionExitsTwoBeforeAnyWork) {
  for (const char* bad : {"--mcc=2", "--fats", "--shard=0/2"}) {
    const Argv args({bad});
    EXPECT_EXIT(core::RunContext(args.argc(), args.argv(), "t", {"csv=path"}),
                ::testing::ExitedWithCode(2), std::string("unknown option ") + bad)
        << bad;
  }
}

TEST(RunContextDeathTest, BadFaultSpecExitsTwo) {
  const Argv args({"--faults=no.such_site=always"});
  EXPECT_EXIT(core::RunContext(args.argc(), args.argv(), "t"), ::testing::ExitedWithCode(2),
              "bad --faults spec: --faults entry 'no.such_site=always'");
}

TEST(RunContextTest, SidecarsShareOneRunId) {
  const std::string stem = fresh_dir("sidecars") + "/run";
  const Argv args({"--metrics=" + stem, "--trace=" + stem});
  std::string run_id;
  {
    core::RunContext run(args.argc(), args.argv(), "t");
    run_id = run.run_id();
    { util::trace::Span span("test.span", "test"); }
    core::ExperimentRow row;
    row.scheme = "NSSA";
    row.workload_label = "-";
    run.attach_rows({row});
  }
  ASSERT_FALSE(run_id.empty());
  const util::json::Value metrics = read_json(stem + ".metrics.json");
  EXPECT_EQ(metrics.at("run_id").as_string(), run_id);
  EXPECT_EQ(metrics.at("conditions").as_array().size(), 1u);
  EXPECT_EQ(read_json(stem + ".trace.json").at("metadata").at("run_id").as_string(), run_id);
  // Each flag writes exactly one file.
  std::set<std::string> written;
  for (const auto& entry : fs::directory_iterator(fs::path(stem).parent_path())) {
    written.insert(entry.path().filename().string());
  }
  EXPECT_EQ(written, (std::set<std::string>{"run.metrics.json", "run.trace.json"}));
}

TEST(RunContextTest, IgnoresTheEnvironment) {
  // Each run setting has exactly one spelling, the flag: variables that once
  // doubled as flags must not steer a run.
  const std::string dir = fresh_dir("environment");
  const std::string cache_dir = dir + "/cache";
  setenv("ISSA_FAST", "1", 1);
  setenv("ISSA_METRICS", "1", 1);
  setenv("ISSA_TRACE", "1", 1);
  setenv("ISSA_CACHE", cache_dir.c_str(), 1);
  setenv("ISSA_FAULTS", "test.x=always", 1);
  const fs::path cwd = fs::current_path();
  fs::current_path(dir);
  {
    const Argv args({});
    core::RunContext run(args.argc(), args.argv(), "t");
    EXPECT_EQ(run.mc().iterations, 400u);
    EXPECT_EQ(run.mc().seed, 42u);
    EXPECT_FALSE(analysis::mc_cache::enabled());
    EXPECT_FALSE(util::faultpoint::armed());
    EXPECT_TRUE(run.finish());
  }
  fs::current_path(cwd);
  for (const char* name : {"ISSA_FAST", "ISSA_METRICS", "ISSA_TRACE", "ISSA_CACHE",
                           "ISSA_FAULTS"}) {
    unsetenv(name);
  }
  EXPECT_TRUE(fs::is_empty(dir)) << "finish() wrote into " << dir;
}

TEST(RunContextTest, CacheSummaryLineKeepsItsFormat) {
  const std::string dir = fresh_dir("cache");
  const Argv args({"--cache=" + dir, "--mc=2"});
  const analysis::mc_cache::CacheCounts before = analysis::mc_cache::counts();
  ::testing::internal::CaptureStdout();
  {
    core::RunContext run(args.argc(), args.argv(), "t");
    EXPECT_TRUE(analysis::mc_cache::enabled());
    analysis::Condition condition;
    condition.kind = sa::SenseAmpKind::kNssa;
    condition.config = sa::nominal_config();
    analysis::measure_offset_distribution(condition, run.mc());
  }
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_FALSE(analysis::mc_cache::enabled());
  const analysis::mc_cache::CacheCounts after = analysis::mc_cache::counts();
  EXPECT_EQ(after.misses - before.misses, 2u);
  EXPECT_EQ(after.stores - before.stores, 2u);
  EXPECT_NE(out.find("cache: loaded 0 record(s) from 0 segment(s) in " + dir + "\n"),
            std::string::npos)
      << out;
  const std::string summary = "cache: hits=" + std::to_string(after.hits) +
                              " misses=" + std::to_string(after.misses) +
                              " stores=" + std::to_string(after.stores) + " dir=" + dir + "\n";
  EXPECT_NE(out.find(summary), std::string::npos) << out;
}

TEST(RunContextTest, FinishEmitsExactlyOnce) {
  const std::string stem = fresh_dir("once") + "/run";
  const Argv args({"--metrics=" + stem});
  ::testing::internal::CaptureStdout();
  {
    core::RunContext run(args.argc(), args.argv(), "t");
    EXPECT_TRUE(run.finish());
    fs::remove(stem + ".metrics.json");
    EXPECT_TRUE(run.finish());  // no second write...
  }                             // ...and none from the destructor either
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_FALSE(fs::exists(stem + ".metrics.json"));
  EXPECT_EQ(count_of(out, "wrote " + stem + ".metrics.json"), 1u) << out;
}

// A main that bails out before reaching its explicit finish().
int main_with_early_return(const Argv& args, bool bail) {
  core::RunContext run(args.argc(), args.argv(), "t");
  if (bail) return 3;
  return run.finish() ? 0 : 1;
}

TEST(RunContextTest, EarlyReturnStillEmitsOnce) {
  const std::string stem = fresh_dir("early") + "/run";
  const Argv args({"--metrics=" + stem, "--trace=" + stem});
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(main_with_early_return(args, true), 3);
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_TRUE(fs::exists(stem + ".metrics.json"));
  EXPECT_TRUE(fs::exists(stem + ".trace.json"));
  EXPECT_EQ(count_of(out, "wrote " + stem + ".metrics.json"), 1u) << out;
  EXPECT_EQ(count_of(out, "wrote " + stem + ".trace.json"), 1u) << out;
}

TEST(RunContextTest, UnwritableSidecarMakesFinishFail) {
  const Argv args({"--metrics=/nonexistent-dir/x/run", "--trace=/nonexistent-dir/x/run"});
  core::RunContext run(args.argc(), args.argv(), "t");
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(run.finish());
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("metrics report failed: cannot open /nonexistent-dir/x/run.metrics.json"),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("trace report failed: cannot open /nonexistent-dir/x/run.trace.json"),
            std::string::npos)
      << err;
}

}  // namespace
