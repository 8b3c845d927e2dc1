#include "sim/event_queue.hh"

#include <algorithm>
#include <limits>

namespace stms
{

namespace
{

/** Heap order: the earliest tick on top, then the lowest sequence. */
struct Later
{
    bool
    operator()(const EventQueue::Key &a, const EventQueue::Key &b) const
    {
        using Wide = unsigned __int128;
        return (Wide{a.tick} << 64 | a.order) >
               (Wide{b.tick} << 64 | b.order);
    }
};

} // namespace

std::uint64_t
EventQueue::takeSlot()
{
    if (!freeSlots_.empty()) {
        const std::uint64_t index = freeSlots_.back();
        freeSlots_.pop_back();
        return index;
    }
    if (slotsUsed_ % kChunkSlots == 0) {
        chunks_.push_back(
            std::make_unique_for_overwrite<Callback[]>(kChunkSlots));
    }
    return slotsUsed_++;
}

void
EventQueue::scheduleAt(Cycle when, Callback fn)
{
    stms_assert(when >= now_,
                "event scheduled in the past (%llu < %llu)",
                static_cast<unsigned long long>(when),
                static_cast<unsigned long long>(now_));
    const std::uint64_t index = takeSlot();
    heap_.push_back(Key{when, packOrder(nextSeq_++, index)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    slot(index) = std::move(fn);
}

Cycle
EventQueue::run()
{
    return runUntil(std::numeric_limits<Cycle>::max());
}

Cycle
EventQueue::runUntil(Cycle limit)
{
    while (!heap_.empty() && heap_.front().tick <= limit) {
        const Key key = heap_.front();
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        heap_.pop_back();
        now_ = key.tick;
        ++executed_;
        // Run the callback where it sits: chunks never move, so it
        // stays valid while it schedules events that grow the slab,
        // and its slot is freed only once it has returned.
        const std::uint64_t index = key.order & (kMaxSlots - 1);
        Callback &fn = slot(index);
        fn();
        fn = nullptr;
        freeSlots_.push_back(static_cast<std::uint32_t>(index));
    }
    return now_;
}

} // namespace stms
