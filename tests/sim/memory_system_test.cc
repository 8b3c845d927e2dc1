/** @file Unit tests for the CMP memory hierarchy. */

#include <gtest/gtest.h>

#include <functional>

#include "sim/memory_system.hh"

namespace stms
{
namespace
{

/** Minimal observable prefetcher for driving the hierarchy. */
class ProbePf : public Prefetcher
{
  public:
    const std::string &name() const override { return name_; }
    void onOffchipRead(CoreId, Addr block) override
    {
        misses.push_back(block);
    }
    void onPrefetchUsed(CoreId, Addr block, bool partial) override
    {
        (partial ? partials : useds).push_back(block);
        if (partial && onPartial)
            onPartial();
    }
    void onPrefetchUnused(CoreId, Addr block) override
    {
        unused.push_back(block);
    }
    void onForeignCovered(CoreId, Addr block) override
    {
        foreign.push_back(block);
    }

    std::vector<Addr> misses, useds, partials, unused, foreign;
    /** Runs inside onPrefetchUsed for a partial hit (reentrancy). */
    std::function<void()> onPartial;

  private:
    std::string name_ = "probe";
};

struct Fixture
{
    Fixture()
    {
        config.numCores = 2;
        config.l1.sizeBytes = 4 * 1024;
        config.l2.sizeBytes = 64 * 1024;
        memory = std::make_unique<MemorySystem>(events, config);
        memory->addPrefetcher(&pf);
    }

    EventQueue events;
    MemorySystemConfig config;
    std::unique_ptr<MemorySystem> memory;
    ProbePf pf;
};

TEST(MemorySystem, ColdReadGoesOffchipAndFillsCaches)
{
    Fixture f;
    AccessOutcome outcome{};
    Cycle done = 0;
    f.events.schedule(0, [&]() {
        f.memory->demandAccess(0, 0x10000, false,
                               [&](Cycle tick, AccessOutcome o) {
                                   done = tick;
                                   outcome = o;
                               });
    });
    f.events.run();
    EXPECT_EQ(outcome, AccessOutcome::Mem);
    EXPECT_EQ(done, 189u);
    EXPECT_EQ(f.memory->stats().offchipReads, 1u);
    ASSERT_EQ(f.pf.misses.size(), 1u);
    EXPECT_EQ(f.pf.misses[0], 0x10000u);
    // Subsequent access is an L1 hit via the fast path.
    EXPECT_TRUE(f.memory->tryL1(0, 0x10000, false));
}

TEST(MemorySystem, L2HitAfterOtherCoreFetched)
{
    Fixture f;
    f.events.schedule(0, [&]() {
        f.memory->demandAccess(0, 0x20000, false, nullptr);
    });
    f.events.run();
    AccessOutcome outcome{};
    f.events.schedule(0, [&]() {
        f.memory->demandAccess(1, 0x20000, false,
                               [&](Cycle, AccessOutcome o) {
                                   outcome = o;
                               });
    });
    f.events.run();
    EXPECT_EQ(outcome, AccessOutcome::L2Hit);
    EXPECT_EQ(f.memory->stats().l2Hits, 1u);
}

TEST(MemorySystem, PrefetchThenDemandIsFullyCovered)
{
    Fixture f;
    f.events.schedule(0, [&]() {
        EXPECT_EQ(f.memory->issuePrefetch(f.pf, 0, 0x30000),
                  IssueResult::Issued);
    });
    f.events.run();  // Prefetch completes into the buffer.
    AccessOutcome outcome{};
    f.events.schedule(1000, [&]() {
        f.memory->demandAccess(0, 0x30000, false,
                               [&](Cycle, AccessOutcome o) {
                                   outcome = o;
                               });
    });
    f.events.run();
    EXPECT_EQ(outcome, AccessOutcome::PrefetchHit);
    EXPECT_EQ(f.memory->stats().prefetchHits, 1u);
    EXPECT_EQ(f.memory->prefetcherStats(0).useful, 1u);
    ASSERT_EQ(f.pf.useds.size(), 1u);
    // The block was installed into L1/L2 on use.
    EXPECT_TRUE(f.memory->l2().contains(0x30000));
}

TEST(MemorySystem, DemandMergingWithInflightPrefetchIsPartial)
{
    Fixture f;
    AccessOutcome outcome{};
    f.events.schedule(0, [&]() {
        f.memory->issuePrefetch(f.pf, 0, 0x40000);
    });
    f.events.schedule(50, [&]() {
        f.memory->demandAccess(0, 0x40000, false,
                               [&](Cycle, AccessOutcome o) {
                                   outcome = o;
                               });
    });
    f.events.run();
    EXPECT_EQ(outcome, AccessOutcome::MemPartial);
    EXPECT_EQ(f.memory->stats().partialMisses, 1u);
    EXPECT_EQ(f.memory->prefetcherStats(0).partial, 1u);
    ASSERT_EQ(f.pf.partials.size(), 1u);
}

TEST(MemorySystem, DemandMergeSurvivesMshrGrowth)
{
    // The owner's partial-use hook issues enough prefetches to grow
    // the MSHR table past its first 16 slots, which moves every
    // entry. The merging demand must still land on the live MSHR.
    Fixture f;
    f.pf.onPartial = [&f]() {
        for (CoreId core = 0; core < 2; ++core) {
            for (Addr i = 0; i < 12; ++i) {
                EXPECT_EQ(f.memory->issuePrefetch(
                              f.pf, core,
                              0x800000 + (core * 64 + i) * kBlockBytes),
                          IssueResult::Issued);
            }
        }
    };
    int fired = 0;
    AccessOutcome outcome{};
    f.events.schedule(0, [&]() {
        f.memory->issuePrefetch(f.pf, 0, 0x40000);
    });
    f.events.schedule(50, [&]() {
        f.memory->demandAccess(0, 0x40000, false,
                               [&](Cycle, AccessOutcome o) {
                                   ++fired;
                                   outcome = o;
                               });
        EXPECT_GT(f.memory->mshrOccupancy(), 16u);
    });
    f.events.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(outcome, AccessOutcome::MemPartial);
    ASSERT_EQ(f.pf.partials.size(), 1u);
    EXPECT_EQ(f.memory->mshrOccupancy(), 0u);
}

TEST(MemorySystem, RedundantPrefetchDropped)
{
    Fixture f;
    f.events.schedule(0, [&]() {
        f.memory->demandAccess(0, 0x50000, false, nullptr);
    });
    f.events.run();
    f.events.schedule(0, [&]() {
        EXPECT_EQ(f.memory->issuePrefetch(f.pf, 0, 0x50000),
                  IssueResult::AlreadyPresent);
    });
    f.events.run();
    EXPECT_EQ(f.memory->prefetcherStats(0).redundant, 1u);
}

TEST(MemorySystem, PrefetchInflightCapRejects)
{
    Fixture f;
    f.events.schedule(0, [&]() {
        for (std::uint32_t i = 0; i < f.config.maxPrefetchInflight; ++i) {
            EXPECT_EQ(f.memory->issuePrefetch(
                          f.pf, 0, 0x100000 + i * kBlockBytes),
                      IssueResult::Issued);
        }
        EXPECT_EQ(f.memory->issuePrefetch(f.pf, 0, 0x900000),
                  IssueResult::NoResources);
        EXPECT_EQ(f.memory->prefetchRoom(f.pf, 0), 0u);
    });
    f.events.run();
    EXPECT_EQ(f.memory->prefetcherStats(0).rejected, 1u);
}

TEST(MemorySystem, UnusedPrefetchEvictionNotifies)
{
    Fixture f;
    // Fill the 32-entry buffer, then one more to force an eviction.
    for (std::uint32_t i = 0; i <= f.config.prefetchBufferBlocks; ++i) {
        f.events.schedule(f.events.now(), [&f, i]() {
            f.memory->issuePrefetch(f.pf, 0,
                                    0x200000 + i * kBlockBytes);
        });
        f.events.run();
    }
    EXPECT_EQ(f.pf.unused.size(), 1u);
    EXPECT_EQ(f.memory->prefetcherStats(0).erroneous, 1u);
}

TEST(MemorySystem, MlpMeterTracksOverlap)
{
    MlpMeter meter;
    meter.start(0);
    meter.start(0);
    meter.finish(100);
    meter.finish(100);
    EXPECT_DOUBLE_EQ(meter.mlp(), 2.0);

    MlpMeter serial;
    serial.start(0);
    serial.finish(100);
    serial.start(100);
    serial.finish(200);
    EXPECT_DOUBLE_EQ(serial.mlp(), 1.0);
}

TEST(MemorySystem, MlpMeterResetWhileReadsOutstanding)
{
    // The warmup-boundary reset must discard accumulated area but
    // keep the in-flight count: reads issued before the boundary
    // still contribute overlap to the measured region.
    MlpMeter meter;
    meter.start(0);
    meter.start(10);
    meter.reset(20);
    EXPECT_EQ(meter.outstanding(), 2u);
    EXPECT_DOUBLE_EQ(meter.mlp(), 0.0);  // Area zeroed at boundary.
    meter.finish(30);
    meter.finish(30);
    EXPECT_EQ(meter.outstanding(), 0u);
    // Only the 10 post-reset cycles count, with both reads in flight.
    EXPECT_DOUBLE_EQ(meter.mlp(), 2.0);

    // Reset while idle must not invent busy time before the next
    // start, even when the last activity predates the reset point.
    MlpMeter idle;
    idle.start(0);
    idle.finish(50);
    idle.reset(100);
    idle.start(200);
    idle.finish(300);
    EXPECT_DOUBLE_EQ(idle.mlp(), 1.0);
}

TEST(MemorySystem, WriteMissAllocatesWithoutCallback)
{
    Fixture f;
    f.events.schedule(0, [&]() {
        f.memory->demandAccess(0, 0x60000, true, nullptr);
    });
    f.events.run();
    EXPECT_EQ(f.memory->stats().offchipWrites, 1u);
    EXPECT_TRUE(f.memory->l2().contains(0x60000));
    // Writes do not trigger streaming.
    EXPECT_TRUE(f.pf.misses.empty());
}

TEST(MemorySystem, ForeignCoverageNotifiesOtherPrefetchers)
{
    Fixture f;
    ProbePf second;
    f.memory->addPrefetcher(&second);
    f.events.schedule(0, [&]() {
        f.memory->issuePrefetch(f.pf, 0, 0x70000);
    });
    f.events.run();
    f.events.schedule(1000, [&]() {
        f.memory->demandAccess(0, 0x70000, false, nullptr);
    });
    f.events.run();
    ASSERT_EQ(f.pf.useds.size(), 1u);
    ASSERT_EQ(second.foreign.size(), 1u);
    EXPECT_EQ(second.foreign[0], 0x70000u);
}

TEST(MemorySystem, ResetStatsZeroesEverything)
{
    Fixture f;
    f.events.schedule(0, [&]() {
        f.memory->demandAccess(0, 0x80000, false, nullptr);
    });
    f.events.run();
    f.memory->resetStats();
    EXPECT_EQ(f.memory->stats().offchipReads, 0u);
    EXPECT_EQ(f.memory->stats().accesses, 0u);
    EXPECT_EQ(f.memory->memStats().totalBytes(), 0u);
}

} // namespace
} // namespace stms
