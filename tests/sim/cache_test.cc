/** @file Unit tests for the set-associative cache model. */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "sim/cache.hh"

namespace stms
{
namespace
{

CacheConfig
smallCache(std::uint32_t ways = 2)
{
    // 4KB, 64B blocks -> 64 lines.
    return CacheConfig{"test", 4 * 1024, ways};
}

TEST(Cache, MissThenFillThenHit)
{
    Cache cache(smallCache());
    EXPECT_FALSE(cache.access(0x1000, false));
    cache.fill(0x1000);
    EXPECT_TRUE(cache.access(0x1000, false));
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, SubBlockAddressesShareALine)
{
    Cache cache(smallCache());
    cache.fill(0x1000);
    EXPECT_TRUE(cache.access(0x1004, false));
    EXPECT_TRUE(cache.access(0x103F, true));
    EXPECT_TRUE(cache.contains(0x1010));
}

TEST(Cache, EvictionReportsVictim)
{
    Cache cache(smallCache(/*ways=*/2));
    // Same set: stride = sets * blockSize = 32 * 64.
    const Addr stride = cache.numSets() * kBlockBytes;
    cache.fill(0x0);
    cache.fill(stride);
    Eviction evicted = cache.fill(2 * stride);
    EXPECT_TRUE(evicted.valid);
    EXPECT_EQ(evicted.blockAddr, 0u);  // LRU victim.
    EXPECT_FALSE(evicted.dirty);
}

TEST(Cache, DirtyEvictionFlagged)
{
    Cache cache(smallCache(2));
    const Addr stride = cache.numSets() * kBlockBytes;
    cache.fill(0x0, /*dirty=*/true);
    cache.fill(stride);
    Eviction evicted = cache.fill(2 * stride);
    EXPECT_TRUE(evicted.valid);
    EXPECT_TRUE(evicted.dirty);
    EXPECT_EQ(cache.stats().dirtyEvictions, 1u);
}

TEST(Cache, WriteHitMarksDirty)
{
    Cache cache(smallCache(2));
    const Addr stride = cache.numSets() * kBlockBytes;
    cache.fill(0x0);
    EXPECT_TRUE(cache.access(0x0, true));  // Write hit.
    cache.fill(stride);
    Eviction evicted = cache.fill(2 * stride);
    EXPECT_TRUE(evicted.dirty);
}

TEST(Cache, LruPreservedByHits)
{
    Cache cache(smallCache(2));
    const Addr stride = cache.numSets() * kBlockBytes;
    cache.fill(0x0);
    cache.fill(stride);
    EXPECT_TRUE(cache.access(0x0, false));  // Refresh 0x0.
    Eviction evicted = cache.fill(2 * stride);
    EXPECT_EQ(evicted.blockAddr, stride);
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache cache(smallCache());
    cache.fill(0x2000);
    EXPECT_TRUE(cache.invalidate(0x2000));
    EXPECT_FALSE(cache.contains(0x2000));
    EXPECT_FALSE(cache.invalidate(0x2000));
    EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(Cache, RefillOfPresentBlockKeepsOccupancy)
{
    Cache cache(smallCache());
    cache.fill(0x40);
    cache.fill(0x40, true);
    EXPECT_EQ(cache.occupancy(), 1u);
    // The refill's dirtiness sticks.
    const Addr stride = cache.numSets() * kBlockBytes;
    cache.fill(0x40 + stride);
    Eviction evicted = cache.fill(0x40 + 2 * stride);
    EXPECT_TRUE(evicted.dirty);
}

TEST(Cache, MarkDirtyOnPresentLine)
{
    Cache cache(smallCache(2));
    const Addr stride = cache.numSets() * kBlockBytes;
    cache.fill(0x0);
    cache.markDirty(0x0);
    cache.fill(stride);
    EXPECT_TRUE(cache.fill(2 * stride).dirty);
}

TEST(Cache, OccupancyTracksFills)
{
    Cache cache(smallCache());
    EXPECT_EQ(cache.occupancy(), 0u);
    for (Addr block = 0; block < 10; ++block)
        cache.fill(blockAddress(block * 3));
    EXPECT_EQ(cache.occupancy(), 10u);
}

TEST(Cache, GeometryAccessors)
{
    Cache cache(smallCache(2));
    EXPECT_EQ(cache.sizeBytes(), 4096u);
    EXPECT_EQ(cache.numWays(), 2u);
    EXPECT_EQ(cache.numSets() * cache.numWays() * kBlockBytes,
              cache.sizeBytes());
}

TEST(Cache, FullSetNeverExceedsWays)
{
    Cache cache(smallCache(4));
    // Hammer one set with many distinct blocks.
    const Addr stride = cache.numSets() * kBlockBytes;
    for (Addr i = 0; i < 64; ++i)
        cache.fill(i * stride);
    EXPECT_LE(cache.occupancy(), 4u);
}

TEST(Cache, WorkingSetWithinCapacityAllHits)
{
    Cache cache(smallCache(4));
    for (Addr block = 0; block < 32; ++block)
        cache.fill(blockAddress(block));
    cache.resetStats();
    for (int round = 0; round < 4; ++round)
        for (Addr block = 0; block < 32; ++block)
            EXPECT_TRUE(cache.access(blockAddress(block), false));
    EXPECT_EQ(cache.stats().misses, 0u);
}

// LRU replacement, observed through the blocks each fill evicts.

TEST(Lru, VictimIsLeastRecentlyTouched)
{
    Cache cache(smallCache(4));
    const Addr stride = cache.numSets() * kBlockBytes;
    for (Addr i = 0; i < 4; ++i)
        cache.fill(i * stride);
    // Touch block 0 by a hit and block 1 by a re-fill: block 2 is
    // now the least recently touched, then block 3.
    EXPECT_TRUE(cache.access(0, false));
    cache.fill(stride);
    EXPECT_EQ(cache.fill(4 * stride).blockAddr, 2 * stride);
    EXPECT_EQ(cache.fill(5 * stride).blockAddr, 3 * stride);
    EXPECT_EQ(cache.fill(6 * stride).blockAddr, 0u);
    EXPECT_EQ(cache.fill(7 * stride).blockAddr, stride);
}

TEST(Lru, SingleWayAlwaysEvictsItsBlock)
{
    Cache cache(smallCache(1));
    const Addr stride = cache.numSets() * kBlockBytes;
    cache.fill(0);
    for (Addr i = 1; i < 8; ++i) {
        const Eviction evicted = cache.fill(i * stride);
        EXPECT_TRUE(evicted.valid);
        EXPECT_EQ(evicted.blockAddr, (i - 1) * stride);
    }
    EXPECT_EQ(cache.occupancy(), 1u);
}

TEST(Lru, InvalidWayFilledBeforeEviction)
{
    Cache cache(smallCache(4));
    const Addr stride = cache.numSets() * kBlockBytes;
    for (Addr i = 0; i < 4; ++i)
        cache.fill(i * stride);
    // Block 2 is the most recently touched; invalidating it frees its
    // way, which the next fill takes instead of evicting LRU block 0.
    EXPECT_TRUE(cache.access(2 * stride, false));
    EXPECT_TRUE(cache.invalidate(2 * stride));
    const Eviction evicted = cache.fill(4 * stride);
    EXPECT_FALSE(evicted.valid);
    EXPECT_EQ(cache.stats().evictions, 0u);
    EXPECT_TRUE(cache.contains(0));
    // With the set full again, LRU block 0 is the next victim.
    EXPECT_EQ(cache.fill(5 * stride).blockAddr, 0u);
}

/**
 * Reference model: the min-stamp LRU tag array the order-word layout
 * replaced. Each line carries valid/dirty flags and a last-touch stamp
 * from one per-cache clock; a fill takes the lowest invalid way, else
 * the way with the smallest stamp.
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheConfig &config)
        : ways_(config.ways),
          sets_(config.sizeBytes / (kBlockBytes * config.ways)),
          lines_(sets_ * ways_)
    {}

    bool
    access(Addr addr, bool is_write)
    {
        Line *line = find(blockAlign(addr));
        if (!line) {
            ++stats.misses;
            return false;
        }
        ++stats.hits;
        line->dirty |= is_write;
        line->stamp = ++clock_;
        return true;
    }

    Eviction
    fill(Addr addr, bool dirty)
    {
        addr = blockAlign(addr);
        Eviction evicted;
        if (Line *line = find(addr)) {
            line->dirty |= dirty;
            line->stamp = ++clock_;
            return evicted;
        }
        Line *base = set(addr);
        Line *victim = nullptr;
        for (std::uint32_t w = 0; w < ways_ && !victim; ++w)
            if (!base[w].valid)
                victim = &base[w];
        if (!victim) {
            victim = &base[0];
            for (std::uint32_t w = 1; w < ways_; ++w)
                if (base[w].stamp < victim->stamp)
                    victim = &base[w];
            evicted = Eviction{true, victim->dirty, victim->tag};
            ++stats.evictions;
            stats.dirtyEvictions += victim->dirty ? 1 : 0;
        }
        *victim = Line{addr, true, dirty, ++clock_};
        ++stats.fills;
        return evicted;
    }

    bool
    invalidate(Addr addr)
    {
        Line *line = find(blockAlign(addr));
        if (!line)
            return false;
        line->valid = false;
        line->dirty = false;
        ++stats.invalidations;
        return true;
    }

    void
    markDirty(Addr addr)
    {
        if (Line *line = find(blockAlign(addr)))
            line->dirty = true;
    }

    bool contains(Addr addr) { return find(blockAlign(addr)) != nullptr; }

    std::uint64_t
    occupancy() const
    {
        std::uint64_t count = 0;
        for (const Line &line : lines_)
            count += line.valid ? 1 : 0;
        return count;
    }

    CacheStats stats;

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t stamp = 0;
    };

    Line *
    set(Addr block_addr)
    {
        return &lines_[(blockNumber(block_addr) & (sets_ - 1)) * ways_];
    }

    Line *
    find(Addr block_addr)
    {
        Line *base = set(block_addr);
        for (std::uint32_t w = 0; w < ways_; ++w)
            if (base[w].valid && base[w].tag == block_addr)
                return &base[w];
        return nullptr;
    }

    std::uint32_t ways_;
    std::uint64_t sets_;
    std::vector<Line> lines_;
    std::uint64_t clock_ = 0;
};

void
expectSameStats(const CacheStats &got, const CacheStats &want)
{
    EXPECT_EQ(got.hits, want.hits);
    EXPECT_EQ(got.misses, want.misses);
    EXPECT_EQ(got.fills, want.fills);
    EXPECT_EQ(got.evictions, want.evictions);
    EXPECT_EQ(got.dirtyEvictions, want.dirtyEvictions);
    EXPECT_EQ(got.invalidations, want.invalidations);
}

class CacheDifferential : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(CacheDifferential, MatchesMinStampLruReference)
{
    const std::uint32_t ways = GetParam();
    // 16 sets at every way count, so sets fill and churn quickly.
    const CacheConfig config{"diff", 16 * ways * kBlockBytes, ways};
    Cache cache(config);
    ReferenceCache reference(config);
    Rng rng(0x5eed + ways);
    // Three blocks per way per set: hits, refills and evictions mix.
    const std::uint64_t blocks = 16 * ways * 3;
    for (int op = 0; op < 200'000; ++op) {
        const Addr addr =
            blockAddress(rng.below(blocks)) + rng.below(kBlockBytes);
        const std::uint64_t kind = rng.below(16);
        if (kind < 7) {
            const bool write = rng.chance(0.3);
            ASSERT_EQ(cache.access(addr, write),
                      reference.access(addr, write))
                << "op " << op;
        } else if (kind < 13) {
            const bool dirty = rng.chance(0.3);
            const Eviction got = cache.fill(addr, dirty);
            const Eviction want = reference.fill(addr, dirty);
            ASSERT_EQ(got.valid, want.valid) << "op " << op;
            ASSERT_EQ(got.dirty, want.dirty) << "op " << op;
            ASSERT_EQ(got.blockAddr, want.blockAddr) << "op " << op;
        } else if (kind < 14) {
            ASSERT_EQ(cache.invalidate(addr), reference.invalidate(addr))
                << "op " << op;
        } else if (kind < 15) {
            cache.markDirty(addr);
            reference.markDirty(addr);
        } else {
            ASSERT_EQ(cache.contains(addr), reference.contains(addr))
                << "op " << op;
        }
        if (op % 4096 == 0) {
            ASSERT_EQ(cache.occupancy(), reference.occupancy());
        }
    }
    EXPECT_EQ(cache.occupancy(), reference.occupancy());
    expectSameStats(cache.stats(), reference.stats);
    EXPECT_GT(cache.stats().evictions, 0u);
    EXPECT_GT(cache.stats().dirtyEvictions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Ways, CacheDifferential,
                         ::testing::Values(1u, 2u, 16u));

TEST(CacheDeathTest, MoreWaysThanTheOrderWordRanksPanics)
{
    EXPECT_DEATH(
        { Cache wide(CacheConfig{"wide", 32 * 64 * kBlockBytes, 32}); },
        "exceed");
}

} // namespace
} // namespace stms
