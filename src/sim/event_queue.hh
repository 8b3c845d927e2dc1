/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single global time-ordered queue of callbacks, in the gem5
 * tradition. Ties are broken by insertion order so that runs are
 * exactly deterministic.
 *
 * Scheduled callbacks live in a slab of fixed-size chunks that never
 * move; the binary heap orders only 16-byte keys that name a slab
 * slot. A callback is therefore moved exactly once (into its slot),
 * sifting the heap copies two words per step, and runUntil() invokes
 * the callback where it sits. Because chunks never move, a running
 * callback stays valid while it schedules events that grow the slab.
 */

#ifndef STMS_SIM_EVENT_QUEUE_HH
#define STMS_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/inplace_function.hh"
#include "common/log.hh"
#include "common/types.hh"

namespace stms
{

/** Time-ordered queue of scheduled callbacks. */
class EventQueue
{
  public:
    /**
     * Inline-storage callback: scheduling an event never allocates.
     * 64 bytes covers every simulator capture (the largest is a
     * memory-controller completion callback plus its data-ready
     * tick); larger captures fail to compile rather than silently
     * regressing to per-event mallocs.
     */
    using Callback = InplaceFunction<void(), 64>;

    /**
     * Heap key: the tick, then insertion sequence and slab slot
     * packed as `seq << kSlotBits | slot`. Sequence numbers are
     * unique, so comparing the packed word orders by sequence and the
     * slot bits never decide an order.
     */
    struct Key
    {
        Cycle tick;
        std::uint64_t order;
    };

    /** Slot bits of Key::order: at most 2^20 callbacks pending. */
    static constexpr unsigned kSlotBits = 20;
    static constexpr std::uint64_t kMaxSlots = std::uint64_t{1}
                                               << kSlotBits;
    /** Sequence budget: 2^44 events scheduled over a queue's life. */
    static constexpr std::uint64_t kMaxSeq = std::uint64_t{1}
                                             << (64 - kSlotBits);

    /** Callbacks per slab chunk (80 bytes each: ~20KB a chunk). */
    static constexpr std::size_t kChunkSlots = 256;

    /** Initial heap and free-list capacity (16KB of keys): steady-
     *  state simulation never regrows either vector. */
    static constexpr std::size_t kInitialCapacity = 1024;

    /**
     * Pack @p seq and @p slot into a Key::order word. Exceeding
     * either bit budget panics: an overflow must never silently
     * reorder events.
     */
    static std::uint64_t
    packOrder(std::uint64_t seq, std::uint64_t slot)
    {
        stms_assert(seq < kMaxSeq,
                    "event sequence budget exhausted (%llu events)",
                    static_cast<unsigned long long>(seq));
        stms_assert(slot < kMaxSlots,
                    "event slab exhausted (%llu callbacks pending)",
                    static_cast<unsigned long long>(slot));
        return seq << kSlotBits | slot;
    }

    EventQueue()
    {
        heap_.reserve(kInitialCapacity);
        freeSlots_.reserve(kInitialCapacity);
    }

    /** Current simulated time in cycles. */
    Cycle now() const { return now_; }

    /** Schedule @p fn at absolute tick @p when (>= now). */
    void scheduleAt(Cycle when, Callback fn);

    /** Schedule @p fn @p delay cycles in the future. */
    void
    schedule(Cycle delay, Callback fn)
    {
        scheduleAt(now_ + delay, std::move(fn));
    }

    /** Run until the queue is empty. Returns the final tick. */
    Cycle run();

    /** Run until the queue is empty or @p limit is reached. */
    Cycle runUntil(Cycle limit);

    bool empty() const { return heap_.empty(); }
    std::size_t pending() const { return heap_.size(); }
    std::uint64_t executed() const { return executed_; }

  private:
    Callback &
    slot(std::uint64_t index)
    {
        return chunks_[index / kChunkSlots][index % kChunkSlots];
    }

    /** A free slot: the most recently freed one, else a fresh one
     *  (allocating a chunk when the slab is full). */
    std::uint64_t takeSlot();

    /** Min-heap over keys (std::push_heap/pop_heap with Later). */
    std::vector<Key> heap_;
    /** The slab: chunk storage never moves once allocated. */
    std::vector<std::unique_ptr<Callback[]>> chunks_;
    std::vector<std::uint32_t> freeSlots_;
    /** Slots handed out so far; chunks cover [0, slotsUsed_). */
    std::uint64_t slotsUsed_ = 0;
    Cycle now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace stms

#endif // STMS_SIM_EVENT_QUEUE_HH
