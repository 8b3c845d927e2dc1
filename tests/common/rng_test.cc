/** @file Unit and statistical tests for the deterministic RNG. */

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hh"

namespace stms
{
namespace
{

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, ReseedRestoresSequence)
{
    Rng rng(7);
    std::vector<std::uint64_t> first;
    for (int i = 0; i < 100; ++i)
        first.push_back(rng.next());
    rng.reseed(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.next(), first[static_cast<std::size_t>(i)]);
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next()) ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(3);
    for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
        for (int i = 0; i < 1000; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, BelowIsRoughlyUniform)
{
    Rng rng(11);
    constexpr std::uint64_t buckets = 16;
    std::array<int, buckets> counts{};
    constexpr int samples = 64000;
    for (int i = 0; i < samples; ++i)
        ++counts[rng.below(buckets)];
    for (int count : counts) {
        EXPECT_GT(count, samples / buckets * 0.85);
        EXPECT_LT(count, samples / buckets * 1.15);
    }
}

TEST(Rng, RangeInclusive)
{
    Rng rng(5);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t value = rng.range(3, 10);
        EXPECT_GE(value, 3u);
        EXPECT_LE(value, 10u);
        saw_lo |= value == 3;
        saw_hi |= value == 10;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(9);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceEdgeCases)
{
    Rng rng(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(17);
    int hits = 0;
    constexpr int samples = 80000;
    for (int i = 0; i < samples; ++i)
        hits += rng.chance(0.125) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / samples, 0.125, 0.01);
}

TEST(Rng, GeometricMean)
{
    Rng rng(19);
    double sum = 0.0;
    constexpr int samples = 20000;
    for (int i = 0; i < samples; ++i)
        sum += static_cast<double>(rng.geometric(0.25));
    // Mean failures before success = (1-p)/p = 3.
    EXPECT_NEAR(sum / samples, 3.0, 0.15);
}

TEST(SplitMix, Deterministic)
{
    std::uint64_t s1 = 99, s2 = 99;
    EXPECT_EQ(splitMix64(s1), splitMix64(s2));
    EXPECT_EQ(s1, s2);
}

} // namespace
} // namespace stms
