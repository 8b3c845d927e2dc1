#include "sim/cache.hh"

#include "common/log.hh"

namespace stms
{

Cache::Cache(const CacheConfig &config)
    : name_(config.name), ways_(config.ways)
{
    stms_assert(ways_ > 0, "%s: cache needs at least one way",
                name_.c_str());
    stms_assert(config.sizeBytes % (kBlockBytes * config.ways) == 0,
                "%s: size %llu not divisible by ways*blockSize",
                name_.c_str(),
                static_cast<unsigned long long>(config.sizeBytes));
    sets_ = config.sizeBytes / (kBlockBytes * config.ways);
    stms_assert(isPowerOfTwo(sets_), "%s: set count %llu not a power of 2",
                name_.c_str(), static_cast<unsigned long long>(sets_));
    lines_.resize(sets_ * ways_);
    age_.assign(sets_ * ways_, 0);
}

std::uint32_t
Cache::lruWay(std::uint64_t set) const
{
    const std::uint64_t *age = &age_[set * ways_];
    std::uint32_t victim_way = 0;
    for (std::uint32_t w = 1; w < ways_; ++w)
        if (age[w] < age[victim_way])
            victim_way = w;
    return victim_way;
}

Eviction
Cache::fill(Addr block_addr, bool dirty)
{
    block_addr = blockAlign(block_addr);
    Eviction evicted;
    const std::uint64_t set = setIndex(block_addr);
    Line *base = &lines_[set * ways_];

    // Refill of a block that is already present just updates state.
    std::uint32_t way = 0;
    if (Line *line = findLine(block_addr, &way)) {
        line->dirty |= dirty;
        touch(set, way);
        return evicted;
    }

    // Prefer an invalid way.
    std::uint32_t victim_way = ways_;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (!base[w].valid) {
            victim_way = w;
            break;
        }
    }
    if (victim_way == ways_) {
        victim_way = lruWay(set);
        Line &victim = base[victim_way];
        evicted.valid = true;
        evicted.dirty = victim.dirty;
        evicted.blockAddr = victim.tag;
        ++stats_.evictions;
        if (victim.dirty)
            ++stats_.dirtyEvictions;
    }

    base[victim_way] = Line{block_addr, true, dirty};
    touch(set, victim_way);
    ++stats_.fills;
    return evicted;
}

bool
Cache::invalidate(Addr block_addr)
{
    if (Line *line = findLine(blockAlign(block_addr))) {
        line->valid = false;
        line->dirty = false;
        line->tag = kInvalidAddr;
        ++stats_.invalidations;
        return true;
    }
    return false;
}

void
Cache::markDirty(Addr block_addr)
{
    if (Line *line = findLine(blockAlign(block_addr)))
        line->dirty = true;
}

std::uint64_t
Cache::occupancy() const
{
    std::uint64_t count = 0;
    for (const Line &line : lines_)
        count += line.valid ? 1 : 0;
    return count;
}

} // namespace stms
