#include "issa/circuit/waveform.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace issa::circuit {
namespace {

TEST(SourceWave, DcIsConstant) {
  const SourceWave w = SourceWave::dc(1.5);
  EXPECT_DOUBLE_EQ(w.value(-1.0), 1.5);
  EXPECT_DOUBLE_EQ(w.value(0.0), 1.5);
  EXPECT_DOUBLE_EQ(w.value(1e9), 1.5);
}

TEST(SourceWave, PwlInterpolates) {
  const SourceWave w = SourceWave::pwl({{0.0, 0.0}, {1.0, 2.0}, {3.0, 2.0}});
  EXPECT_DOUBLE_EQ(w.value(0.5), 1.0);
  EXPECT_DOUBLE_EQ(w.value(1.0), 2.0);
  EXPECT_DOUBLE_EQ(w.value(2.0), 2.0);
}

TEST(SourceWave, PwlClampsOutsideRange) {
  const SourceWave w = SourceWave::pwl({{1.0, 5.0}, {2.0, 7.0}});
  EXPECT_DOUBLE_EQ(w.value(0.0), 5.0);
  EXPECT_DOUBLE_EQ(w.value(10.0), 7.0);
}

TEST(SourceWave, PwlRejectsNonIncreasingTimes) {
  EXPECT_THROW(SourceWave::pwl({{1.0, 0.0}, {1.0, 1.0}}), std::invalid_argument);
  EXPECT_THROW(SourceWave::pwl({{2.0, 0.0}, {1.0, 1.0}}), std::invalid_argument);
  EXPECT_THROW(SourceWave::pwl({}), std::invalid_argument);
}

TEST(SourceWave, StepShape) {
  const SourceWave w = SourceWave::step(0.0, 1.0, 10e-12, 2e-12);
  EXPECT_DOUBLE_EQ(w.value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(w.value(10e-12), 0.0);
  EXPECT_NEAR(w.value(11e-12), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(w.value(12e-12), 1.0);
  EXPECT_DOUBLE_EQ(w.value(1.0), 1.0);
}

TEST(SourceWave, StepRejectsZeroRise) {
  EXPECT_THROW(SourceWave::step(0.0, 1.0, 0.0, 0.0), std::invalid_argument);
}

TEST(SourceWave, OffsetBy) {
  SourceWave w = SourceWave::pwl({{0.0, 1.0}, {1.0, 2.0}});
  w.offset_by(0.5);
  EXPECT_DOUBLE_EQ(w.value(0.0), 1.5);
  EXPECT_DOUBLE_EQ(w.value(1.0), 2.5);
}

TEST(WriteWaveformsCsv, RoundTrip) {
  const std::string path = ::testing::TempDir() + "/issa_waves.csv";
  const std::vector<double> time = {0.0, 1e-12};
  const std::vector<double> v1 = {0.0, 1.0};
  const std::vector<double> v2 = {1.0, 0.5};
  write_waveforms_csv(path, time, {{"a", &v1}, {"b", &v2}});
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "time_s,a,b");
  std::string row;
  std::getline(in, row);
  EXPECT_EQ(row, "0,0,1");
  std::remove(path.c_str());
}

TEST(WriteWaveformsCsv, RejectsLengthMismatch) {
  const std::vector<double> time = {0.0, 1.0};
  const std::vector<double> bad = {0.0};
  EXPECT_THROW(write_waveforms_csv("/tmp/never_written.csv", time, {{"a", &bad}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace issa::circuit
