/** @file Unit tests for the set-associative cache model. */

#include <gtest/gtest.h>

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

} // namespace
} // namespace stms
