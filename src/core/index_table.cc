#include "core/index_table.hh"

#include "common/log.hh"

namespace stms
{

IndexTable::IndexTable(std::uint64_t total_bytes,
                       std::uint32_t entries_per_bucket)
    : entriesPerBucket_(entries_per_bucket)
{
    stms_assert(entries_per_bucket > 0, "bucket needs entries");
    if (total_bytes == 0) {
        buckets_ = 0;
        for (Segment &segment : segments_) {
            segment.bits = kFirstSlotBits;
            segment.slots.resize(std::size_t{1} << kFirstSlotBits);
        }
        return;
    }
    buckets_ = total_bytes / kBlockBytes;
    stms_assert(buckets_ > 0, "index table smaller than one bucket");
    store_.reset(buckets_, entriesPerBucket_);
}

std::optional<HistoryPointer>
IndexTable::lookup(Addr block)
{
    ++stats_.lookups;
    // Key by block number so bounded and unbounded mode alias
    // sub-block addresses identically (the bounded hash always used
    // the block number; the tag must match it).
    const Addr key = blockNumber(block);
    if (unbounded()) {
        const std::uint64_t hash = slotHash(key);
        const Slot *slot = probe(segmentOf(hash), hash, key);
        if (slot->key == kInvalidAddr)
            return std::nullopt;
        ++stats_.lookupHits;
        return HistoryPointer::unpack(slot->value);
    }

    const auto pointer = store_.lookup(bucketOf(block), key);
    if (!pointer)
        return std::nullopt;
    ++stats_.lookupHits;
    return HistoryPointer::unpack(*pointer);
}

void
IndexTable::update(Addr block, HistoryPointer pointer)
{
    ++stats_.updates;
    const Addr key = blockNumber(block);
    if (unbounded()) {
        const std::uint64_t hash = slotHash(key);
        Segment &segment = segmentOf(hash);
        Slot *slot = probe(segment, hash, key);
        if (slot->key == kInvalidAddr) {
            // Keep load <= 7/8 so every probe run ends at an empty slot.
            if (8 * (segment.used + 1) > 7 * segment.slots.size()) {
                grow(segment);
                slot = probe(segment, hash, key);
            }
            slot->key = key;
            ++segment.used;
            ++stats_.inserts;
            ++pairs_;
        }
        slot->value = pointer.packed();
        return;
    }

    switch (store_.update(bucketOf(block), key, pointer.packed())) {
    case detail::BucketUpdate::Refreshed:
        break;
    case detail::BucketUpdate::Inserted:
        ++stats_.inserts;
        ++pairs_;
        break;
    case detail::BucketUpdate::Replaced:
        ++stats_.replacements;
        break;
    }
}

IndexTable::Slot *
IndexTable::probe(Segment &segment, std::uint64_t hash, Addr key)
{
    // Slot index from the hash bits below the segment selector.
    const std::uint64_t mask = segment.slots.size() - 1;
    std::uint64_t index = (hash << kSegmentBits) >> (64 - segment.bits);
    for (;;) {
        Slot &slot = segment.slots[index];
        if (slot.key == key || slot.key == kInvalidAddr)
            return &slot;
        index = (index + 1) & mask;
    }
}

void
IndexTable::grow(Segment &segment)
{
    const std::vector<Slot> old = std::move(segment.slots);
    segment.slots.assign(std::size_t{2} << segment.bits, Slot{});
    ++segment.bits;
    for (const Slot &slot : old) {
        if (slot.key != kInvalidAddr)
            *probe(segment, slotHash(slot.key), slot.key) = slot;
    }
}

void
IndexTable::prefetchBatch(std::span<const Addr> blocks) const
{
    if (unbounded())
        return;  // Only the bounded buckets are warmed.
    for (const Addr block : blocks)
        store_.prefetchBucket(bucketOf(block));
}

std::uint64_t
IndexTable::footprintBytes() const
{
    if (unbounded()) {
        // 5.33 bytes/pair at the paper's packing density.
        return divCeil(pairs_, entriesPerBucket_) * kBlockBytes;
    }
    return buckets_ * kBlockBytes;
}

std::uint64_t
IndexTable::occupancyScan() const
{
    if (!unbounded())
        return store_.occupancyScan();
    std::uint64_t count = 0;
    for (const Segment &segment : segments_)
        for (const Slot &slot : segment.slots)
            count += slot.key != kInvalidAddr ? 1 : 0;
    return count;
}

} // namespace stms
