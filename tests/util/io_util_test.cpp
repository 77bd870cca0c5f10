// Tests for AsciiTable, CsvWriter, Options (CLI), and the unit helpers.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "issa/core/run_context.hpp"
#include "issa/util/cli.hpp"
#include "issa/util/csv.hpp"
#include "issa/util/table.hpp"
#include "issa/util/units.hpp"

namespace issa::util {
namespace {

TEST(AsciiTable, RendersHeaderRuleAndRows) {
  AsciiTable t({"name", "value"});
  t.add_row({"alpha", "1.00"});
  t.add_row({"b", "22.50"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22.50"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(AsciiTable, ColumnsAlign) {
  AsciiTable t({"k", "v"});
  t.add_row({"aa", "1"});
  t.add_row({"b", "22"});
  std::istringstream lines(t.to_string());
  std::string first;
  std::getline(lines, first);
  std::string line;
  while (std::getline(lines, line)) EXPECT_EQ(line.size(), first.size());
}

TEST(AsciiTable, RejectsBadRows) {
  AsciiTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(AsciiTable({}), std::invalid_argument);
}

TEST(AsciiTable, NumFormatsPrecision) {
  EXPECT_EQ(AsciiTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(AsciiTable::num(-0.5, 1), "-0.5");
}

TEST(CsvWriter, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "/issa_csv_test.csv";
  {
    CsvWriter csv(path, {"t", "v"});
    csv.add_row(std::vector<double>{1.0, 2.0});
    csv.add_row(std::vector<std::string>{"x", "y"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "t,v");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::remove(path.c_str());
}

TEST(CsvWriter, RejectsWidthMismatch) {
  const std::string path = ::testing::TempDir() + "/issa_csv_test2.csv";
  CsvWriter csv(path, {"a", "b"});
  EXPECT_THROW(csv.add_row(std::vector<double>{1.0}), std::invalid_argument);
  csv.close();
  std::remove(path.c_str());
}

TEST(Options, ParsesFlagsAndValues) {
  const char* argv[] = {"prog", "--fast", "--mc=250", "--name=hello", "--x=-1.5"};
  const Options opt(5, argv, {"fast", "slow", "mc=N", "name=s", "x=F"});
  EXPECT_TRUE(opt.has_flag("fast"));
  EXPECT_FALSE(opt.has_flag("slow"));
  EXPECT_EQ(opt.get_long_or("mc", 0), 250);
  EXPECT_EQ(*opt.get_string("name"), "hello");
  EXPECT_DOUBLE_EQ(*opt.get_double("x"), -1.5);
}

TEST(Options, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  const Options opt(1, argv, {"x=F", "n=N", "missing=s"});
  EXPECT_DOUBLE_EQ(opt.get_double_or("x", 2.5), 2.5);
  EXPECT_EQ(opt.get_long_or("n", 7), 7);
  EXPECT_FALSE(opt.get_string("missing").has_value());
}

TEST(Options, FlagValueZeroMeansOff) {
  const char* argv[] = {"prog", "--fast=0"};
  const Options opt(2, argv, {"fast"});
  EXPECT_FALSE(opt.has_flag("fast"));
}

TEST(OptionsDeathTest, BadNumberExitsTwo) {
  const char* argv[] = {"prog", "--mc=abc"};
  const Options opt(2, argv, {"mc=N"});
  EXPECT_EXIT(opt.get_long("mc"), ::testing::ExitedWithCode(2),
              "bad integer value for --mc: abc\nusage: prog");
}

// Regression: get_long used to round-trip through stod, silently truncating
// "3.7" to 3.  Non-integer values must be rejected with a clear error.
TEST(Options, GetLongRejectsNonInteger) {
  const char* argv[] = {"prog", "--iterations=3.7"};
  const Options opt(2, argv, {"iterations=N"});
  EXPECT_EXIT(opt.get_long("iterations"), ::testing::ExitedWithCode(2),
              "bad integer value for --iterations: 3\\.7\nusage: prog");
}

// Regression: the stod round-trip also lost precision above 2^53.
// 2^53 + 1 is the first integer a double cannot represent.
TEST(Options, GetLongIsExactAboveDoublePrecision) {
  const char* argv[] = {"prog", "--n=9007199254740993", "--m=-9007199254740993"};
  const Options opt(3, argv, {"n=N", "m=N"});
  EXPECT_EQ(*opt.get_long("n"), 9007199254740993L);
  EXPECT_EQ(*opt.get_long("m"), -9007199254740993L);
}

TEST(Options, GetLongStillAcceptsPlainIntegers) {
  const char* argv[] = {"prog", "--a=0", "--b=-17", "--c=+4"};
  const Options opt(4, argv, {"a=N", "b=N", "c=N", "absent=N"});
  EXPECT_EQ(*opt.get_long("a"), 0);
  EXPECT_EQ(*opt.get_long("b"), -17);
  EXPECT_EQ(*opt.get_long("c"), 4);
  EXPECT_FALSE(opt.get_long("absent").has_value());
}

TEST(Options, BenchIterationsDefaultMatchesPaper) {
  const char* argv[] = {"prog"};
  EXPECT_EQ(core::RunContext(1, argv, "t").mc().iterations, 400u);
  const char* argv2[] = {"prog", "--mc=33"};
  EXPECT_EQ(core::RunContext(2, argv2, "t").mc().iterations, 33u);
}

TEST(Options, StrictAcceptsDeclaredFlagsInEveryForm) {
  const char* argv[] = {"prog", "--csv=out.csv", "--fast", "--metrics", "--metrics=stem",
                        "--benchmark_filter=BM_X"};
  const Options opt(6, argv, {"csv=path", "fast", "metrics[=stem]", "benchmark_*"});
  EXPECT_EQ(*opt.get_string("csv"), "out.csv");
  EXPECT_TRUE(opt.has_flag("fast"));
  EXPECT_EQ(*opt.get_string("benchmark_filter"), "BM_X");
}

TEST(OptionsDeathTest, HelpPrintsUsageAndExitsZero) {
  const char* argv[] = {"/some/dir/prog", "--mc=3", "--help"};
  // The usage line goes to stdout; route it to stderr, which EXPECT_EXIT reads.
  EXPECT_EXIT(
      {
        dup2(STDERR_FILENO, STDOUT_FILENO);
        Options(3, argv, {"mc=N", "csv=path", "fast"});
      },
      ::testing::ExitedWithCode(0), "usage: prog \\[--mc=N\\] \\[--csv=path\\] \\[--fast\\]\n");
}

TEST(OptionsDeathTest, UnknownFlagPrintsUsageAndExitsTwo) {
  const char* argv[] = {"prog", "--mc=2", "--fats"};
  EXPECT_EXIT(Options(3, argv, {"mc=N", "fast"}), ::testing::ExitedWithCode(2),
              "unknown option --fats\nusage: prog \\[--mc=N\\] \\[--fast\\]\n");
}

TEST(OptionsDeathTest, PositionalArgumentIsRejected) {
  const char* argv[] = {"prog", "stray"};
  EXPECT_EXIT(Options(2, argv, {"mc=N"}), ::testing::ExitedWithCode(2), "unknown option stray");
}

TEST(OptionsDeathTest, NamesMustMatchExactly) {
  // Neither a prefix nor an extension of a declared name is that option.
  for (const char* arg : {"--m=3", "--mcc=3", "--mc-extra", "-mc=3", "--"}) {
    const char* argv[] = {"prog", arg};
    EXPECT_EXIT(Options(2, argv, {"mc=N"}), ::testing::ExitedWithCode(2), "unknown option")
        << arg;
  }
}

TEST(OptionsDeathTest, FailPrintsMessageAndUsage) {
  const char* argv[] = {"prog"};
  const Options opt(1, argv, {"bits=N"});
  EXPECT_EXIT(opt.fail("bad --bits value"), ::testing::ExitedWithCode(2),
              "bad --bits value\nusage: prog \\[--bits=N\\]\n");
}

TEST(OptionsDeathTest, StrictMalformedNumberPrintsUsageAndExitsTwo) {
  const char* argv[] = {"prog", "--mc=abc", "--vin=x"};
  const Options opt(3, argv, {"mc=N", "vin=mV"});
  EXPECT_EXIT(opt.get_long_or("mc", 80), ::testing::ExitedWithCode(2),
              "bad integer value for --mc: abc\nusage: prog \\[--mc=N\\] \\[--vin=mV\\]\n");
  EXPECT_EXIT(opt.get_double_or("vin", 50.0), ::testing::ExitedWithCode(2),
              "bad numeric value for --vin: x\nusage: prog");
  EXPECT_EXIT(opt.get_count_or("mc", 80), ::testing::ExitedWithCode(2),
              "bad integer value for --mc: abc\nusage: prog");
  // A double must parse whole and be finite: "5x" is not 5, and "nan" would
  // silently disable every comparison it feeds.
  const char* argv2[] = {"prog", "--vin=5x", "--q=nan", "--r=inf"};
  const Options opt2(4, argv2, {"vin=mV", "q=F", "r=F"});
  EXPECT_EXIT(opt2.get_double("vin"), ::testing::ExitedWithCode(2),
              "bad numeric value for --vin: 5x\nusage: prog");
  EXPECT_EXIT(opt2.get_double_or("q", 0.01), ::testing::ExitedWithCode(2),
              "bad numeric value for --q: nan\nusage: prog");
  EXPECT_EXIT(opt2.get_double_or("r", 0.01), ::testing::ExitedWithCode(2),
              "bad numeric value for --r: inf\nusage: prog");
}

TEST(OptionsDeathTest, StrictNonPositiveCountExitsTwo) {
  for (const char* arg : {"--mc=0", "--mc=-5"}) {
    const char* argv[] = {"prog", arg};
    const Options opt(2, argv, {"mc=N"});
    EXPECT_EXIT(opt.get_count_or("mc", 80), ::testing::ExitedWithCode(2),
                "--mc must be a positive integer: -?[05]\nusage: prog \\[--mc=N\\]\n")
        << arg;
  }
}

TEST(Units, Conversions) {
  using namespace literals;
  EXPECT_DOUBLE_EQ(5_mV, 0.005);
  EXPECT_DOUBLE_EQ(2.5_ps, 2.5e-12);
  EXPECT_DOUBLE_EQ(1_fF, 1e-15);
  EXPECT_DOUBLE_EQ(to_mV(0.0148), 14.8);
  EXPECT_DOUBLE_EQ(to_ps(13.6e-12), 13.6);
  EXPECT_DOUBLE_EQ(celsius_to_kelvin(25.0), 298.15);
  EXPECT_NEAR(thermal_voltage(300.0), 0.02585, 1e-4);
}

}  // namespace
}  // namespace issa::util
