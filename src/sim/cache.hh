/**
 * @file
 * Functional set-associative cache model.
 *
 * The cache is functional: it tracks presence/dirtiness and hit/miss
 * statistics; latency composition is done by the MemorySystem that owns
 * it. This mirrors the split in trace-driven simulators where the tag
 * array is exact and timing is layered on top.
 */

#ifndef STMS_SIM_CACHE_HH
#define STMS_SIM_CACHE_HH

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace stms
{

/** Geometry of one cache level (replacement is always LRU). */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 64 * 1024;
    std::uint32_t ways = 2;
};

/** Result of a cache eviction: what got displaced, if anything. */
struct Eviction
{
    bool valid = false;   ///< A valid block was displaced.
    bool dirty = false;   ///< Displaced block needs writeback.
    Addr blockAddr = kInvalidAddr;
};

/** Aggregate hit/miss statistics for a cache. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t fills = 0;
    std::uint64_t evictions = 0;
    std::uint64_t dirtyEvictions = 0;
    std::uint64_t invalidations = 0;

    double
    missRate() const
    {
        const std::uint64_t total = hits + misses;
        return total == 0 ? 0.0 : static_cast<double>(misses) /
                                  static_cast<double>(total);
    }
};

/**
 * Set-associative, write-back, write-allocate cache tag array.
 *
 * Storage is one Addr tag per way (kInvalidAddr = empty way; a
 * block-aligned address never equals it) plus one 16-byte SetState per
 * set holding the dirty bitmask and an exact LRU order word: one
 * nibble per way, MRU in the low nibble, so a full set's LRU victim is
 * nibble ways-1. A touch moves the way's nibble to the front. Victims
 * are the lowest invalid way, else the least recently touched way.
 */
class Cache
{
  public:
    /** Ways one order word can rank (one nibble each). */
    static constexpr std::uint32_t kMaxWays = 16;

    explicit Cache(const CacheConfig &config);

    /**
     * Access a block. On a hit, recency is updated and dirtiness is
     * accumulated for writes. Returns true on hit. Does not allocate;
     * callers fill separately once the block arrives. Inline: this is
     * the per-record probe fast path (every L1 access runs it).
     */
    bool
    access(Addr block_addr, bool is_write)
    {
        block_addr = blockAlign(block_addr);
        const std::uint64_t set = setIndex(block_addr);
        const std::uint32_t way = findWay(set, block_addr);
        if (way != ways_) {
            ++stats_.hits;
            SetState &state = state_[set];
            state.dirty |= std::uint32_t{is_write} << way;
            // Repeat hits to the MRU way (most L1 hits) keep the order.
            if ((state.order & 0xF) != way)
                state.order = promote(state.order, way);
            return true;
        }
        ++stats_.misses;
        return false;
    }

    /** Probe without disturbing replacement state or stats. */
    bool
    contains(Addr block_addr) const
    {
        block_addr = blockAlign(block_addr);
        return findWay(setIndex(block_addr), block_addr) != ways_;
    }

    /**
     * Install a block, evicting a victim if the set is full.
     * @return description of the displaced block, if any.
     */
    Eviction fill(Addr block_addr, bool dirty = false);

    /** Remove a block if present; returns true if it was present. */
    bool invalidate(Addr block_addr);

    /** Mark an existing block dirty (e.g., write hits from merges). */
    void markDirty(Addr block_addr);

    const CacheStats &stats() const { return stats_; }
    void resetStats() { stats_ = CacheStats{}; }

    std::uint64_t numSets() const { return sets_; }
    std::uint32_t numWays() const { return ways_; }
    std::uint64_t sizeBytes() const { return sets_ * ways_ * kBlockBytes; }
    const std::string &name() const { return name_; }

    /** Count of currently valid blocks (O(size); for tests). */
    std::uint64_t occupancy() const;

  private:
    /** Per-set replacement and dirty state. */
    struct SetState
    {
        /** Way numbers, one nibble each, most recently touched in
         *  bits 3:0. Ways never touched trail in way order. */
        std::uint64_t order = 0;
        /** Bit w set = way w holds a dirty block. */
        std::uint32_t dirty = 0;
    };
    static_assert(sizeof(SetState) == 16);

    static constexpr std::uint64_t kNibbleOnes = 0x1111111111111111ULL;
    static constexpr std::uint64_t kNibbleHighs = 0x8888888888888888ULL;

    /** @p order with @p way's nibble moved to the front (MRU). */
    static std::uint64_t
    promote(std::uint64_t order, std::uint32_t way)
    {
        // Lowest nibble equal to way: the lowest zero nibble of the
        // xor is found exactly (borrows only run upward from it).
        const std::uint64_t diff = order ^ (kNibbleOnes * way);
        const std::uint64_t zeros = (diff - kNibbleOnes) & ~diff &
                                    kNibbleHighs;
        const unsigned shift =
            static_cast<unsigned>(std::countr_zero(zeros)) & ~3U;
        const std::uint64_t below = order & ((1ULL << shift) - 1);
        const std::uint64_t above = order & ((~0ULL << shift) << 4);
        return above | (below << 4) | way;
    }

    std::uint64_t
    setIndex(Addr block_addr) const
    {
        return blockNumber(block_addr) & (sets_ - 1);
    }

    /** Way of @p set holding @p block_addr, or ways_ on a miss. */
    std::uint32_t
    findWay(std::uint64_t set, Addr block_addr) const
    {
        const Addr *tags = &tags_[set * ways_];
        for (std::uint32_t w = 0; w < ways_; ++w)
            if (tags[w] == block_addr)
                return w;
        return ways_;
    }

    std::string name_;
    std::uint64_t sets_;
    std::uint32_t ways_;
    /** sets_ x ways_ tags, set-major; kInvalidAddr marks an empty way. */
    std::vector<Addr> tags_;
    std::vector<SetState> state_;
    CacheStats stats_;
};

} // namespace stms

#endif // STMS_SIM_CACHE_HH
