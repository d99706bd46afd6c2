// Tests for AsciiTable, string utilities, and the PRNG.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "support/ascii_table.hpp"
#include "support/panic.hpp"
#include "support/prng.hpp"
#include "support/string_utils.hpp"

using namespace paragraph;

TEST(AsciiTable, CommasOnIntegers)
{
    EXPECT_EQ(AsciiTable::withCommas(uint64_t{0}), "0");
    EXPECT_EQ(AsciiTable::withCommas(uint64_t{999}), "999");
    EXPECT_EQ(AsciiTable::withCommas(uint64_t{1000}), "1,000");
    EXPECT_EQ(AsciiTable::withCommas(uint64_t{23302}), "23,302");
    EXPECT_EQ(AsciiTable::withCommas(uint64_t{28696843509}), "28,696,843,509");
}

TEST(AsciiTable, CommasOnDoubles)
{
    EXPECT_EQ(AsciiTable::withCommas(23302.60, 2), "23,302.60");
    EXPECT_EQ(AsciiTable::withCommas(13.28, 2), "13.28");
    EXPECT_EQ(AsciiTable::withCommas(0.32, 2), "0.32");
    EXPECT_EQ(AsciiTable::withCommas(-1234.5, 1), "-1,234.5");
}

TEST(AsciiTable, RendersAlignedColumns)
{
    AsciiTable t;
    t.addColumn("Name", AsciiTable::Align::Left);
    t.addColumn("Value");
    t.beginRow();
    t.cell("alpha");
    t.cell(uint64_t{7});
    t.beginRow();
    t.cell("b");
    t.cell(uint64_t{123456});
    std::string out = t.toString();
    EXPECT_NE(out.find("Name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("123,456"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
    // Every line has the same width.
    std::istringstream iss(out);
    std::string line;
    size_t width = 0;
    while (std::getline(iss, line)) {
        if (width == 0)
            width = line.size();
        EXPECT_LE(line.size(), width + 1);
    }
}

TEST(AsciiTable, SignedCellsCoverTheFullInt64Range)
{
    AsciiTable t;
    t.addColumn("Value");
    t.beginRow();
    t.cell(int64_t{-1234});
    t.beginRow();
    t.cell(std::numeric_limits<int64_t>::min());
    t.beginRow();
    t.cell(std::numeric_limits<int64_t>::max());
    std::string out = t.toString();
    EXPECT_NE(out.find("-1,234"), std::string::npos);
    EXPECT_NE(out.find("-9,223,372,036,854,775,808"), std::string::npos);
    EXPECT_NE(out.find("9,223,372,036,854,775,807"), std::string::npos);
}

TEST(StringUtils, Trim)
{
    EXPECT_EQ(trim("  hello  "), "hello");
    EXPECT_EQ(trim("\t\n x \r"), "x");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim("nospaces"), "nospaces");
}

TEST(StringUtils, SplitAndTrim)
{
    auto parts = splitAndTrim("a, b ,c", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "b");
    EXPECT_EQ(parts[2], "c");

    auto empties = splitAndTrim("x,,y", ',');
    ASSERT_EQ(empties.size(), 3u);
    EXPECT_EQ(empties[1], "");

    auto single = splitAndTrim("only", ',');
    ASSERT_EQ(single.size(), 1u);
    EXPECT_EQ(single[0], "only");
}

TEST(StringUtils, ParseInt)
{
    int64_t v = 0;
    EXPECT_TRUE(parseInt("42", v));
    EXPECT_EQ(v, 42);
    EXPECT_TRUE(parseInt("-17", v));
    EXPECT_EQ(v, -17);
    EXPECT_TRUE(parseInt("0x10", v));
    EXPECT_EQ(v, 16);
    EXPECT_TRUE(parseInt("  5  ", v));
    EXPECT_EQ(v, 5);
    EXPECT_FALSE(parseInt("", v));
    EXPECT_FALSE(parseInt("abc", v));
    EXPECT_FALSE(parseInt("12x", v));
    EXPECT_FALSE(parseInt("1.5", v));
}

TEST(StringUtils, ParseDouble)
{
    double v = 0;
    EXPECT_TRUE(parseDouble("3.14", v));
    EXPECT_DOUBLE_EQ(v, 3.14);
    EXPECT_TRUE(parseDouble("-2e3", v));
    EXPECT_DOUBLE_EQ(v, -2000.0);
    EXPECT_TRUE(parseDouble("7", v));
    EXPECT_DOUBLE_EQ(v, 7.0);
    EXPECT_FALSE(parseDouble("", v));
    EXPECT_FALSE(parseDouble("x", v));
    EXPECT_FALSE(parseDouble("1.0y", v));
}

TEST(StringUtils, StrFormat)
{
    EXPECT_EQ(strFormat("%d-%s", 5, "x"), "5-x");
    EXPECT_EQ(strFormat("%.2f", 1.239), "1.24");
    std::string longish = strFormat("%0200d", 7);
    EXPECT_EQ(longish.size(), 200u);
}

TEST(Panic, FatalThrowsFatalError)
{
    EXPECT_THROW(PARA_FATAL("boom %d", 3), FatalError);
    try {
        PARA_FATAL("value=%d", 42);
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "value=42");
    }
}

TEST(Prng, Deterministic)
{
    Prng a(1), b(1), c(2);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Prng, NextBelowInRange)
{
    Prng prng(3);
    for (int i = 0; i < 10000; ++i) {
        EXPECT_LT(prng.nextBelow(17), 17u);
        EXPECT_LT(prng.nextBelow(1), 1u);
    }
}

TEST(Prng, NextInRangeInclusive)
{
    Prng prng(4);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        int64_t v = prng.nextInRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Prng, NextDoubleInUnitInterval)
{
    Prng prng(5);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double v = prng.nextDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}
