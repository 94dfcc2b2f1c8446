// Strict flag-value parsing shared by the command-line tools
// (tools/args.h): whole tokens only, range-checked, exit 2 on a bad
// value instead of reading a prefix or a silent 0.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "args.h"
#include "util/date.h"

namespace diurnal {
namespace {

TEST(ToolArgs, DurationsParseWholeTokens) {
  EXPECT_EQ(tools::parse_duration("6h"), 6 * 3600);
  EXPECT_EQ(tools::parse_duration("1d"), util::kSecondsPerDay);
  EXPECT_EQ(tools::parse_duration("90m"), 90 * 60);
  EXPECT_EQ(tools::parse_duration("660s"), 660);
  EXPECT_EQ(tools::parse_duration("660"), 660);
  for (const char* bad : {"6hx", "6hh", "h", "", "abc", "12x", "-3", "0",
                          "+6h", "99999999999999999999s",
                          "106751991167301d"}) {
    EXPECT_EQ(tools::parse_duration(bad), std::nullopt) << bad;
  }
}

TEST(ToolArgs, IntegersParseWholeTokensInRange) {
  EXPECT_EQ(tools::parse_int<int>("12"), 12);
  EXPECT_EQ(tools::parse_int<int>("-3"), -3);
  EXPECT_EQ(tools::parse_int<std::uint64_t>("18446744073709551615"),
            UINT64_MAX);
  for (const char* bad : {"abc", "12x", "", " 12", "1.5", "+1"}) {
    EXPECT_EQ(tools::parse_int<int>(bad), std::nullopt) << bad;
  }
  EXPECT_EQ(tools::parse_int<int>("-3", 0), std::nullopt);
  EXPECT_EQ(tools::parse_int<std::uint64_t>("-3"), std::nullopt);
  EXPECT_EQ(tools::parse_int<int>("2147483648"), std::nullopt);
  EXPECT_EQ(tools::parse_int<std::uint64_t>("18446744073709551616"),
            std::nullopt);
  EXPECT_EQ(tools::parse_int<int>("5", 1, 4), std::nullopt);
}

TEST(ToolArgs, BadFlagValuesExitWithStatusTwo) {
  EXPECT_EQ(tools::int_flag("--blocks", "300", 1), 300);
  EXPECT_EQ(tools::duration_flag("--epoch", "6h"), 6 * 3600);
  EXPECT_EXIT(tools::int_flag("--blocks", "abc", 1),
              testing::ExitedWithCode(2), "--blocks: bad value 'abc'");
  EXPECT_EXIT(tools::int_flag<std::uint64_t>("--seed", "12x"),
              testing::ExitedWithCode(2), "--seed: bad value '12x'");
  EXPECT_EXIT(tools::int_flag("--readers", "-3", 0),
              testing::ExitedWithCode(2), "want an integer in \\[0, ");
  EXPECT_EXIT(tools::duration_flag("--epoch", "6hx"),
              testing::ExitedWithCode(2), "--epoch: bad duration '6hx'");
}

}  // namespace
}  // namespace diurnal
