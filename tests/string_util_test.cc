#include "common/string_util.h"

#include <gtest/gtest.h>

namespace gbda {
namespace {

TEST(SplitTest, BasicAndEmptyTokens) {
  EXPECT_EQ(Split("a b c", ' '), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a  b", ' '), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(Split("a  b", ' ', /*keep_empty=*/true),
            (std::vector<std::string>{"a", "", "b"}));
  EXPECT_TRUE(Split("", ' ').empty());
  EXPECT_EQ(Split(",", ',', true), (std::vector<std::string>{"", ""}));
}

TEST(JoinTest, Joins) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(TrimTest, RemovesEdgesOnly) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim("\t\nabc\r "), "abc");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_TRUE(StartsWith("hello", ""));
  EXPECT_FALSE(StartsWith("he", "hello"));
}

TEST(ParseIntTest, ValidAndInvalid) {
  EXPECT_EQ(*ParseInt("42"), 42);
  EXPECT_EQ(*ParseInt("-7"), -7);
  EXPECT_EQ(*ParseInt("  13  "), 13);
  EXPECT_FALSE(ParseInt("").ok());
  EXPECT_FALSE(ParseInt("12x").ok());
  EXPECT_FALSE(ParseInt("4.5").ok());
  EXPECT_FALSE(ParseInt("999999999999999999999999").ok());
}

TEST(ParseUintTest, WholeValueWithinRange) {
  EXPECT_EQ(*ParseUint("0"), 0u);
  EXPECT_EQ(*ParseUint(" 42 "), 42u);
  EXPECT_EQ(*ParseUint("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(*ParseUint("4294967295", UINT32_MAX), UINT32_MAX);
  EXPECT_EQ(ParseUint("4294967296", UINT32_MAX).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(ParseUint("18446744073709551616").status().code(),
            StatusCode::kOutOfRange);
  EXPECT_FALSE(ParseUint("").ok());
  EXPECT_FALSE(ParseUint("-1").ok());
  EXPECT_FALSE(ParseUint("+1").ok());
  EXPECT_FALSE(ParseUint("12x").ok());
  EXPECT_FALSE(ParseUint("0x10").ok());
  EXPECT_FALSE(ParseUint("4.5").ok());
}

TEST(ParseDoubleTest, ValidAndInvalid) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("-2e3"), -2000.0);
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("1.5garbage").ok());
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
  EXPECT_EQ(StrFormat("no args"), "no args");
}

TEST(HumanBytesTest, PicksUnits) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.00 KB");
  EXPECT_EQ(HumanBytes(3u * 1024 * 1024), "3.00 MB");
  EXPECT_EQ(HumanBytes(uint64_t{5} * 1024 * 1024 * 1024), "5.00 GB");
}

TEST(HumanSecondsTest, PicksUnits) {
  EXPECT_EQ(HumanSeconds(5e-5), "50.0 us");
  EXPECT_EQ(HumanSeconds(0.25), "250.0 ms");
  EXPECT_EQ(HumanSeconds(12.0), "12.00 s");
  EXPECT_EQ(HumanSeconds(600.0), "10.0 min");
  EXPECT_EQ(HumanSeconds(7200.0), "2.00 h");
}

}  // namespace
}  // namespace gbda
