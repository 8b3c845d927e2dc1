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

/** Set-associative, write-back, write-allocate cache tag array. */
class Cache
{
  public:
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
        std::uint32_t way = 0;
        Line *line = findLine(block_addr, &way);
        if (line) {
            ++stats_.hits;
            line->dirty |= is_write;
            touch(setIndex(block_addr), way);
            return true;
        }
        ++stats_.misses;
        return false;
    }

    /** Probe without disturbing replacement state or stats. */
    bool
    contains(Addr block_addr) const
    {
        return findLine(blockAlign(block_addr)) != nullptr;
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
    struct Line
    {
        Addr tag = kInvalidAddr;
        bool valid = false;
        bool dirty = false;
    };

    std::uint64_t
    setIndex(Addr block_addr) const
    {
        return blockNumber(block_addr) & (sets_ - 1);
    }

    /** Make @p way the most recently used way of @p set. */
    void
    touch(std::uint64_t set, std::uint32_t way)
    {
        age_[set * ways_ + way] = ++clock_;
    }

    /** LRU way of a full @p set: the one with the oldest touch. */
    std::uint32_t lruWay(std::uint64_t set) const;

    Line *
    findLine(Addr block_addr, std::uint32_t *way_out = nullptr)
    {
        const std::uint64_t set = setIndex(block_addr);
        Line *base = &lines_[set * ways_];
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (base[w].valid && base[w].tag == block_addr) {
                if (way_out)
                    *way_out = w;
                return &base[w];
            }
        }
        return nullptr;
    }

    const Line *
    findLine(Addr block_addr) const
    {
        const std::uint64_t set = setIndex(block_addr);
        const Line *base = &lines_[set * ways_];
        for (std::uint32_t w = 0; w < ways_; ++w)
            if (base[w].valid && base[w].tag == block_addr)
                return &base[w];
        return nullptr;
    }

    std::string name_;
    std::uint64_t sets_;
    std::uint32_t ways_;
    std::vector<Line> lines_;
    /** Last-touch stamp per line (same layout as lines_); the LRU
     *  victim of a set is its way with the smallest stamp. */
    std::vector<std::uint64_t> age_;
    std::uint64_t clock_ = 0;
    CacheStats stats_;
};

} // namespace stms

#endif // STMS_SIM_CACHE_HH
