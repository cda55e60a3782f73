#include "util/parse_number.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>

namespace atis::util {
namespace {

TEST(ParseNumberTest, ParsesWholeIntegers) {
  EXPECT_EQ(ParseNumber<int>("0"), 0);
  EXPECT_EQ(ParseNumber<int>("42"), 42);
  EXPECT_EQ(ParseNumber<int>("-7"), -7);
  EXPECT_EQ(ParseNumber<int32_t>("2147483647"), 2147483647);
  EXPECT_EQ(ParseNumber<uint64_t>("18446744073709551615"),
            std::numeric_limits<uint64_t>::max());
}

TEST(ParseNumberTest, RejectsEmptyAndNonNumericText) {
  EXPECT_FALSE(ParseNumber<int>(""));
  EXPECT_FALSE(ParseNumber<int>("abc"));
  EXPECT_FALSE(ParseNumber<int>("-"));
  EXPECT_FALSE(ParseNumber<double>("."));
  EXPECT_FALSE(ParseNumber<double>("x1.5"));
}

TEST(ParseNumberTest, RejectsTrailingJunk) {
  EXPECT_FALSE(ParseNumber<int>("12x"));
  EXPECT_FALSE(ParseNumber<int>("12 "));
  EXPECT_FALSE(ParseNumber<int>("1.5"));  // an int does not stop at '.'
  EXPECT_FALSE(ParseNumber<double>("1.5x"));
  EXPECT_FALSE(ParseNumber<double>("3,5"));
}

TEST(ParseNumberTest, RejectsLeadingSpaceAndPlusSign) {
  EXPECT_FALSE(ParseNumber<int>(" 12"));
  EXPECT_FALSE(ParseNumber<int>("+12"));
  EXPECT_FALSE(ParseNumber<double>("+1.5"));
}

TEST(ParseNumberTest, RejectsOverflowInsteadOfWrapping) {
  // 4294967299 = 2^32 + 3: a wrapping parser reads node 3.
  EXPECT_FALSE(ParseNumber<int32_t>("4294967299"));
  EXPECT_FALSE(ParseNumber<uint32_t>("4294967299"));
  EXPECT_FALSE(ParseNumber<int32_t>("2147483648"));
  EXPECT_FALSE(ParseNumber<int32_t>("-2147483649"));
  EXPECT_FALSE(ParseNumber<uint64_t>("18446744073709551616"));
  EXPECT_FALSE(ParseNumber<double>("1e999"));
}

TEST(ParseNumberTest, RejectsNegativeValuesForUnsignedTypes) {
  EXPECT_FALSE(ParseNumber<uint32_t>("-1"));
  EXPECT_FALSE(ParseNumber<size_t>("-0"));
  EXPECT_EQ(ParseNumber<uint32_t>("0"), 0u);
}

TEST(ParseNumberTest, RangeBoundsAreInclusive) {
  EXPECT_EQ(ParseNumber<int>("4", 4, 60), 4);
  EXPECT_EQ(ParseNumber<int>("60", 4, 60), 60);
  EXPECT_FALSE(ParseNumber<int>("3", 4, 60));
  EXPECT_FALSE(ParseNumber<int>("61", 4, 60));
  // A lower bound alone: the upper bound stays the type's maximum.
  EXPECT_EQ(ParseNumber<int>("2147483647", 0), 2147483647);
  EXPECT_FALSE(ParseNumber<int>("-1", 0));
}

TEST(ParseNumberTest, ParsesDecimalAndExponentForms) {
  EXPECT_EQ(ParseNumber<double>("1.5"), 1.5);
  EXPECT_EQ(ParseNumber<double>("-0.25"), -0.25);
  EXPECT_EQ(ParseNumber<double>("1e3"), 1000.0);
  EXPECT_EQ(ParseNumber<double>("7"), 7.0);
}

TEST(ParseNumberTest, RejectsNanAndInfinity) {
  // from_chars accepts these spellings; the range test turns them away.
  EXPECT_FALSE(ParseNumber<double>("nan"));
  EXPECT_FALSE(ParseNumber<double>("inf"));
  EXPECT_FALSE(ParseNumber<double>("-inf"));
  EXPECT_FALSE(ParseNumber<double>("infinity"));
}

TEST(ParseNumberTest, DoubleRangeExcludesZeroWhenAskedForPositive) {
  // The CLI's "--slow-query-ms" form: lo = the smallest positive double.
  const double tiny = std::numeric_limits<double>::min();
  EXPECT_FALSE(ParseNumber<double>("0", tiny));
  EXPECT_FALSE(ParseNumber<double>("-1", tiny));
  EXPECT_EQ(ParseNumber<double>("0.5", tiny), 0.5);
  EXPECT_FALSE(ParseNumber<double>("1.0000001", 0.0, 1.0));
  EXPECT_EQ(ParseNumber<double>("1", 0.0, 1.0), 1.0);
}

}  // namespace
}  // namespace atis::util
