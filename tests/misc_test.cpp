// Cross-cutting tests: logging levels, table CSV emission to disk,
// assertion guards (death tests), and umbrella-header hygiene.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "ripples/ripples.hpp"

namespace ripples {
namespace {

TEST(Log, LevelGatingIsMonotone) {
  LogLevel original = log_level();
  set_log_level(LogLevel::Warn);
  EXPECT_EQ(log_level(), LogLevel::Warn);
  set_log_level(LogLevel::Debug);
  EXPECT_EQ(log_level(), LogLevel::Debug);
  set_log_level(original);
}

TEST(Log, EmittingBelowThresholdDoesNotCrash) {
  LogLevel original = log_level();
  set_log_level(LogLevel::Error);
  RIPPLES_LOG_DEBUG("suppressed %d", 42);
  RIPPLES_LOG_INFO("suppressed %s", "too");
  set_log_level(original);
}

TEST(Table, EmitWritesCsvFile) {
  auto path = std::filesystem::temp_directory_path() /
              ("ripples_table_" + std::to_string(::getpid()) + ".csv");
  Table table("t", {"x", "y"});
  table.new_row().add(1).add(2);
  table.emit(path.string());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header, row;
  std::getline(in, header);
  std::getline(in, row);
  EXPECT_EQ(header, "x,y");
  EXPECT_EQ(row, "1,2");
  std::filesystem::remove(path);
}

using MiscDeathTest = ::testing::Test;

TEST(MiscDeathTest, AssertAbortsWithMessage) {
  EXPECT_DEATH(RIPPLES_ASSERT_MSG(1 == 2, "must hold"), "must hold");
}

TEST(MiscDeathTest, ThetaScheduleRejectsBadEpsilon) {
  EXPECT_DEATH((void)ThetaSchedule(100, 5, 0.0), "epsilon");
  EXPECT_DEATH((void)ThetaSchedule(100, 5, 1.5), "epsilon");
}

TEST(MiscDeathTest, ThetaScheduleRejectsBadK) {
  EXPECT_DEATH((void)ThetaSchedule(100, 0, 0.5), "seed count");
  EXPECT_DEATH((void)ThetaSchedule(100, 101, 0.5), "seed count");
}

TEST(MiscDeathTest, LeapfrogRejectsOutOfRangeStream) {
  Lcg64 base(1);
  EXPECT_DEATH((void)base.leapfrog(4, 4), "stream < num_streams");
}

TEST(UmbrellaHeader, ExposesTheWholePublicSurface) {
  // Compile-time check by construction; spot-check a few symbols from every
  // module resolve through ripples.hpp alone (this TU includes nothing
  // else).
  EXPECT_STREQ(to_string(Phase::Sample), "Sample");
  EXPECT_STREQ(to_string(DiffusionModel::LinearThreshold), "LT");
  EXPECT_EQ(dataset_registry().size(), 8u);
  EXPECT_GT(log_binomial(10, 5), 0.0);
  Lcg64 lcg(1);
  Xoshiro256 xo(1);
  Philox4x32 ph(1);
  SplitMix64 sm(1);
  EXPECT_NE(lcg(), 0u);
  EXPECT_NE(xo(), sm());
  (void)ph();
}

} // namespace
} // namespace ripples
