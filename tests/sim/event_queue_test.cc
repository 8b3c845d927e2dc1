/** @file Unit tests for the discrete-event kernel. */

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

namespace stms
{
namespace
{

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue queue;
    std::vector<int> order;
    queue.scheduleAt(30, [&]() { order.push_back(3); });
    queue.scheduleAt(10, [&]() { order.push_back(1); });
    queue.scheduleAt(20, [&]() { order.push_back(2); });
    queue.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakInInsertionOrder)
{
    EventQueue queue;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        queue.scheduleAt(5, [&order, i]() { order.push_back(i); });
    queue.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NowAdvancesWithExecution)
{
    EventQueue queue;
    Cycle seen = 0;
    queue.scheduleAt(42, [&]() { seen = queue.now(); });
    queue.run();
    EXPECT_EQ(seen, 42u);
    EXPECT_EQ(queue.now(), 42u);
}

TEST(EventQueue, ScheduleRelativeDelay)
{
    EventQueue queue;
    Cycle seen = 0;
    queue.scheduleAt(10, [&]() {
        queue.schedule(5, [&]() { seen = queue.now(); });
    });
    queue.run();
    EXPECT_EQ(seen, 15u);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue queue;
    int depth = 0;
    std::function<void()> chain = [&]() {
        if (++depth < 100)
            queue.schedule(1, chain);
    };
    queue.schedule(0, chain);
    queue.run();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(queue.executed(), 100u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue queue;
    int ran = 0;
    queue.scheduleAt(10, [&]() { ++ran; });
    queue.scheduleAt(100, [&]() { ++ran; });
    queue.runUntil(50);
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(queue.pending(), 1u);
    queue.run();
    EXPECT_EQ(ran, 2);
}

/** Counts its own destruction; a moved-from guard counts nothing. */
struct DestroyGuard
{
    explicit DestroyGuard(int *counter) : destroyed(counter) {}
    DestroyGuard(DestroyGuard &&other) noexcept
        : destroyed(std::exchange(other.destroyed, nullptr))
    {}
    DestroyGuard(const DestroyGuard &) = delete;
    ~DestroyGuard()
    {
        if (destroyed)
            ++*destroyed;
    }
    int *destroyed;
};

TEST(EventQueue, CallbackGrowingTheSlabKeepsItsCapture)
{
    // The running callback sits in the slab. Scheduling more events
    // than one chunk holds grows the slab under it; chunks never
    // move, so its captures stay readable afterwards (ASan catches a
    // slab that reallocates).
    EventQueue queue;
    const std::array<std::uint32_t, 8> payload{3, 1, 4, 1, 5, 9, 2, 6};
    std::array<std::uint32_t, 8> seen{};
    const std::size_t fanout = 3 * EventQueue::kChunkSlots + 7;
    int children = 0;
    queue.scheduleAt(1, [&queue, &seen, &children, fanout, payload]() {
        for (std::size_t i = 0; i < fanout; ++i)
            queue.schedule(1 + i % 5, [&children]() { ++children; });
        seen = payload;
    });
    queue.run();
    EXPECT_EQ(seen, payload);
    EXPECT_EQ(children, static_cast<int>(fanout));
    EXPECT_EQ(queue.executed(), fanout + 1);
}

TEST(EventQueue, SameTickFifoSurvivesSlotReuse)
{
    // Freed slots come back last-freed first, so events scheduled
    // after a partial run hold lower slots than earlier events at the
    // same tick. Order must still follow scheduling order.
    EventQueue queue;
    std::vector<int> order;
    auto record = [&order](int id) {
        return [&order, id]() { order.push_back(id); };
    };
    queue.scheduleAt(100, record(0));
    for (int i = 0; i < 8; ++i)
        queue.scheduleAt(static_cast<Cycle>(1 + i), record(-1));
    queue.runUntil(8);
    ASSERT_EQ(order.size(), 8u);
    order.clear();

    for (int i = 1; i <= 8; ++i)
        queue.scheduleAt(100, record(i));
    queue.runUntil(50);
    EXPECT_TRUE(order.empty());
    queue.scheduleAt(60, [&queue, &order]() {
        order.push_back(9);
        // This callback's own slot is not reused until it returns;
        // same-tick events still queue behind older ones.
        queue.scheduleAt(100, [&order]() { order.push_back(10); });
    });
    queue.scheduleAt(100, record(11));
    queue.run();
    EXPECT_EQ(order,
              (std::vector<int>{9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 11, 10}));
    EXPECT_EQ(queue.pending(), 0u);
}

TEST(EventQueue, PendingCallbacksDestroyedExactlyOnce)
{
    int destroyed = 0;
    int ran = 0;
    {
        EventQueue queue;
        for (int i = 0; i < 10; ++i) {
            queue.scheduleAt(
                static_cast<Cycle>(i),
                [guard = DestroyGuard(&destroyed), &ran, &destroyed]() {
                    // A callback is destroyed only after it returns.
                    EXPECT_EQ(destroyed, ran);
                    ++ran;
                });
        }
        EXPECT_EQ(destroyed, 0);
        queue.runUntil(4);
        EXPECT_EQ(ran, 5);
        EXPECT_EQ(destroyed, 5);
        EXPECT_EQ(queue.pending(), 5u);
    }
    // The queue's destructor disposes of the five that never ran.
    EXPECT_EQ(ran, 5);
    EXPECT_EQ(destroyed, 10);

    destroyed = 0;
    ran = 0;
    {
        EventQueue queue;
        for (int i = 0; i < 10; ++i) {
            queue.scheduleAt(static_cast<Cycle>(i),
                             [guard = DestroyGuard(&destroyed),
                              &ran]() { ++ran; });
        }
        queue.run();
        EXPECT_EQ(destroyed, 10);
    }
    EXPECT_EQ(ran, 10);
    EXPECT_EQ(destroyed, 10);
}

TEST(EventQueue, PackOrderKeepsSequenceAboveSlot)
{
    const std::uint64_t low_seq_high_slot =
        EventQueue::packOrder(7, EventQueue::kMaxSlots - 1);
    const std::uint64_t next_seq_low_slot = EventQueue::packOrder(8, 0);
    EXPECT_LT(low_seq_high_slot, next_seq_low_slot);
    EXPECT_EQ(EventQueue::packOrder(EventQueue::kMaxSeq - 1,
                                    EventQueue::kMaxSlots - 1),
              ~std::uint64_t{0});
    EXPECT_EQ(next_seq_low_slot & (EventQueue::kMaxSlots - 1), 0u);
    EXPECT_EQ(low_seq_high_slot & (EventQueue::kMaxSlots - 1),
              EventQueue::kMaxSlots - 1);
}

TEST(EventQueueDeath, PastSchedulingPanics)
{
    EventQueue queue;
    queue.scheduleAt(100, []() {});
    queue.run();
    EXPECT_DEATH(queue.scheduleAt(50, []() {}), "past");
}

TEST(EventQueueDeath, SequenceBudgetOverflowPanics)
{
    EXPECT_DEATH(EventQueue::packOrder(EventQueue::kMaxSeq, 0),
                 "sequence budget");
}

TEST(EventQueueDeath, SlotBudgetOverflowPanics)
{
    EXPECT_DEATH(EventQueue::packOrder(0, EventQueue::kMaxSlots),
                 "slab exhausted");
}

} // namespace
} // namespace stms
