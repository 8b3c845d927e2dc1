/** @file IndexTable::prefetchBatch must be architecturally inert: the
 *  software prefetch is a host-cache hint only, so warming buckets
 *  never changes results, stats, occupancy, or LRU order. */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/hash.hh"
#include "core/index_table.hh"

namespace stms
{
namespace
{

/** Deterministic probe/update mix over a keyed address space; the
 *  sub-block offsets exercise key normalization. */
struct Workload
{
    std::vector<Addr> updateBlocks;
    std::vector<HistoryPointer> updatePointers;
    std::vector<Addr> lookupBlocks;
};

Workload
makeWorkload(std::uint64_t ops, std::uint64_t key_space)
{
    Workload load;
    for (std::uint64_t i = 0; i < ops; ++i) {
        const Addr block =
            blockAddress(mixHash64(i) % key_space) + (i % 64);
        load.updateBlocks.push_back(block);
        load.updatePointers.push_back(
            HistoryPointer{static_cast<CoreId>(i % 4), i});
        // Lookups revisit earlier keys (some hit) and probe fresh
        // ones (some miss).
        load.lookupBlocks.push_back(
            blockAddress(mixHash64(i / 2) % key_space) + (i % 32));
    }
    return load;
}

/** Drive @p table element-wise through update() then lookup(). */
std::vector<std::optional<HistoryPointer>>
runScalar(IndexTable &table, const Workload &load)
{
    for (std::size_t i = 0; i < load.updateBlocks.size(); ++i)
        table.update(load.updateBlocks[i], load.updatePointers[i]);
    std::vector<std::optional<HistoryPointer>> results;
    results.reserve(load.lookupBlocks.size());
    for (const Addr block : load.lookupBlocks)
        results.push_back(table.lookup(block));
    return results;
}

TEST(BatchedProbe, PrefetchBatchIsArchitecturallyInert)
{
    const Workload load = makeWorkload(5000, 1 << 10);
    IndexTable plain(1 << 16, 12);
    runScalar(plain, load);
    const IndexTableStats plain_before = plain.stats();
    const std::uint64_t plain_pairs = plain.occupancy();

    plain.prefetchBatch(load.lookupBlocks);

    EXPECT_TRUE(plain.stats() == plain_before);
    EXPECT_EQ(plain.occupancy(), plain_pairs);
    // LRU order untouched: the same probes still hit identically.
    IndexTable replay(1 << 16, 12);
    runScalar(replay, load);
    for (const Addr block : load.lookupBlocks) {
        EXPECT_EQ(plain.lookup(block).has_value(),
                  replay.lookup(block).has_value());
    }
}

TEST(BatchedProbe, EmptyAndTinyBatchesAreSafe)
{
    IndexTable table(1 << 14, 12);
    IndexTable unbounded(0);
    const std::vector<Addr> none;
    table.prefetchBatch(none);
    unbounded.prefetchBatch(none);

    const std::vector<Addr> few = {blockAddress(1), blockAddress(2)};
    table.prefetchBatch(few);
    unbounded.prefetchBatch(few);
    EXPECT_TRUE(table.stats() == IndexTableStats{});
    EXPECT_TRUE(unbounded.stats() == IndexTableStats{});
    EXPECT_EQ(table.occupancy(), 0u);
    EXPECT_EQ(unbounded.occupancy(), 0u);
}

} // namespace
} // namespace stms
