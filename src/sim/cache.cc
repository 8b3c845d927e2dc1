#include "sim/cache.hh"

#include "common/log.hh"

namespace stms
{

Cache::Cache(const CacheConfig &config)
    : name_(config.name), ways_(config.ways)
{
    stms_assert(ways_ > 0, "%s: cache needs at least one way",
                name_.c_str());
    stms_assert(ways_ <= kMaxWays,
                "%s: %u ways exceed the %u an LRU order word ranks",
                name_.c_str(), ways_, kMaxWays);
    stms_assert(config.sizeBytes % (kBlockBytes * config.ways) == 0,
                "%s: size %llu not divisible by ways*blockSize",
                name_.c_str(),
                static_cast<unsigned long long>(config.sizeBytes));
    sets_ = config.sizeBytes / (kBlockBytes * config.ways);
    stms_assert(isPowerOfTwo(sets_), "%s: set count %llu not a power of 2",
                name_.c_str(), static_cast<unsigned long long>(sets_));
    tags_.assign(sets_ * ways_, kInvalidAddr);
    SetState initial;
    for (std::uint32_t w = 0; w < ways_; ++w)
        initial.order |= std::uint64_t{w} << (4 * w);
    state_.assign(sets_, initial);
}

Eviction
Cache::fill(Addr block_addr, bool dirty)
{
    block_addr = blockAlign(block_addr);
    Eviction evicted;
    const std::uint64_t set = setIndex(block_addr);
    Addr *tags = &tags_[set * ways_];
    SetState &state = state_[set];
    const std::uint32_t dirty_bit = std::uint32_t{dirty};

    // One pass: a refill of a present block just updates its state;
    // otherwise remember the lowest invalid way.
    std::uint32_t way = ways_;
    for (std::uint32_t w = ways_; w-- > 0;) {
        if (tags[w] == block_addr) {
            state.dirty |= dirty_bit << w;
            state.order = promote(state.order, w);
            return evicted;
        }
        if (tags[w] == kInvalidAddr)
            way = w;
    }

    if (way == ways_) {
        // Full set: the LRU way trails the order word.
        way = static_cast<std::uint32_t>(
            (state.order >> (4 * (ways_ - 1))) & 0xF);
        evicted.valid = true;
        evicted.dirty = (state.dirty >> way) & 1;
        evicted.blockAddr = tags[way];
        ++stats_.evictions;
        if (evicted.dirty)
            ++stats_.dirtyEvictions;
    }

    tags[way] = block_addr;
    state.dirty = (state.dirty & ~(1U << way)) | (dirty_bit << way);
    state.order = promote(state.order, way);
    ++stats_.fills;
    return evicted;
}

bool
Cache::invalidate(Addr block_addr)
{
    block_addr = blockAlign(block_addr);
    const std::uint64_t set = setIndex(block_addr);
    const std::uint32_t way = findWay(set, block_addr);
    if (way == ways_)
        return false;
    tags_[set * ways_ + way] = kInvalidAddr;
    state_[set].dirty &= ~(1U << way);
    ++stats_.invalidations;
    return true;
}

void
Cache::markDirty(Addr block_addr)
{
    block_addr = blockAlign(block_addr);
    const std::uint64_t set = setIndex(block_addr);
    const std::uint32_t way = findWay(set, block_addr);
    if (way != ways_)
        state_[set].dirty |= 1U << way;
}

std::uint64_t
Cache::occupancy() const
{
    std::uint64_t count = 0;
    for (const Addr tag : tags_)
        count += tag != kInvalidAddr ? 1 : 0;
    return count;
}

} // namespace stms
