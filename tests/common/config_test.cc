/** @file Unit tests for the key=value option store and size parsing. */

#include <gtest/gtest.h>

#include "common/config.hh"

namespace stms
{
namespace
{

TEST(Options, ParseTokenSplitsOnEquals)
{
    Options options;
    EXPECT_TRUE(options.parseToken("alpha=1"));
    EXPECT_TRUE(options.parseToken("name=hello=world"));
    EXPECT_EQ(options.get("alpha", ""), "1");
    EXPECT_EQ(options.get("name", ""), "hello=world");
}

TEST(Options, ParseTokenRejectsBadSyntax)
{
    Options options;
    EXPECT_FALSE(options.parseToken("novalue"));
    EXPECT_FALSE(options.parseToken("=leading"));
}

TEST(Options, TypedAccessorsWithFallbacks)
{
    Options options;
    options.set("d", "0.125");
    options.set("b", "true");
    options.set("u", "64M");
    EXPECT_DOUBLE_EQ(options.getDouble("d", 0), 0.125);
    EXPECT_TRUE(options.getBool("b", false));
    EXPECT_FALSE(options.getBool("missing", false));
    EXPECT_EQ(options.getUint("u", 0), 64ULL << 20);
}

TEST(Options, BoolSpellings)
{
    Options options;
    for (const char *spelling : {"1", "true", "yes", "on"}) {
        options.set("k", spelling);
        EXPECT_TRUE(options.getBool("k", false)) << spelling;
    }
    for (const char *spelling : {"0", "false", "no", "off"}) {
        options.set("k", spelling);
        EXPECT_FALSE(options.getBool("k", true)) << spelling;
    }
}

TEST(Options, KeysSorted)
{
    Options options;
    options.set("zeta", "1");
    options.set("alpha", "2");
    const auto keys = options.keys();
    ASSERT_EQ(keys.size(), 2u);
    EXPECT_EQ(keys[0], "alpha");
    EXPECT_EQ(keys[1], "zeta");
}

TEST(ParseSize, Suffixes)
{
    EXPECT_EQ(parseSize("0"), 0u);
    EXPECT_EQ(parseSize("512"), 512u);
    EXPECT_EQ(parseSize("8K"), 8ULL << 10);
    EXPECT_EQ(parseSize("8k"), 8ULL << 10);
    EXPECT_EQ(parseSize("64M"), 64ULL << 20);
    EXPECT_EQ(parseSize("2G"), 2ULL << 30);
    EXPECT_EQ(parseSize("1.5K"), 1536u);
    EXPECT_EQ(parseSize(""), 0u);
}

TEST(ParseSizeDeathTest, NegativeNonFiniteAndHugeSizesAreFatal)
{
    // Each would otherwise cast out of range: "-1" used to become
    // 2^64 - 1 records, "1e30" zero and "nan" 2^63.
    for (const char *text :
         {"-1", "-0.5K", "1e30", "nan", "inf", "-inf",
          "18446744073709551616", "16777216T"}) {
        EXPECT_DEATH(parseSize(text), "must be in") << text;
    }
    // The largest sizes below 2^64 still parse.
    EXPECT_EQ(parseSize("16777215T"), 16777215ULL << 40);
    EXPECT_EQ(parseSize("18446744073709549568"),
              18446744073709549568ULL);
}

TEST(ParseBounded, DigitsOnlyWithinBounds)
{
    struct Case
    {
        const char *text;
        std::uint64_t min;
        std::uint64_t max;
        bool ok;
        std::uint64_t value;
    };
    const Case cases[] = {
        {"0", 0, 10, true, 0},
        {"10", 0, 10, true, 10},
        {"010", 0, 10, true, 10},  // Decimal, not octal.
        {"0", 1, 10, false, 0},
        {"11", 0, 10, false, 0},
        {"4096", 0, 4096, true, 4096},
        {"4097", 0, 4096, false, 0},
        {"18446744073709551615", 0, UINT64_MAX, true, UINT64_MAX},
        {"18446744073709551616", 0, UINT64_MAX, false, 0},
        {"9", 0, 4, false, 0},
        {"", 0, 10, false, 0},
        {"+5", 0, 10, false, 0},
        {"-1", 0, 10, false, 0},
        {"0x10", 0, 100, false, 0},
        {" 5", 0, 10, false, 0},
        {"5 ", 0, 10, false, 0},
        {"1e3", 0, 10000, false, 0},
        {"64k", 0, 1ULL << 20, false, 0},
    };
    for (const Case &c : cases) {
        std::uint64_t value = 12345;
        EXPECT_EQ(parseBounded(c.text, c.min, c.max, value), c.ok)
            << "'" << c.text << "'";
        EXPECT_EQ(value, c.ok ? c.value : 12345u) << "'" << c.text << "'";
    }
}

TEST(FormatSize, HumanReadable)
{
    EXPECT_EQ(formatSize(0), "0.0B");
    EXPECT_EQ(formatSize(1024), "1.0KB");
    EXPECT_EQ(formatSize(64ULL << 20), "64.0MB");
    EXPECT_EQ(formatSize(1536), "1.5KB");
}

} // namespace
} // namespace stms
