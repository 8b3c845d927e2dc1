/**
 * @file
 * Capacity-bounded, refcounted cache of generated workload traces.
 *
 * Trace synthesis is the most expensive part of a sweep after the
 * simulation itself, and most experiments reuse the same (workload,
 * records) traces across many configuration points. The cache
 * generates each distinct trace once — concurrent requests for the
 * same key block on the generating thread; distinct keys generate
 * concurrently — and hands out pinned Handles.
 *
 * Unlike the original generate-once-keep-forever design, residency is
 * bounded: when the configured capacity is exceeded, least-recently
 * used *unpinned* traces are dropped, so a sweep's peak RSS no longer
 * scales with the number of distinct traces it visits. A dropped
 * trace that is requested again is simply regenerated — generation is
 * deterministic (seeded per workload spec), so a regenerated trace is
 * bit-identical to the evicted one and model results cannot change.
 *
 * Capacity semantics:
 *  - kUnbounded (default): never evict — the legacy behavior.
 *  - 0: no caching at all — every acquire() generates a private
 *    trace owned solely by its Handle.
 *  - otherwise: a soft bound in bytes. Pinned traces are never
 *    evicted, so the bound can be exceeded while the pinned working
 *    set alone exceeds it.
 *
 * Only synthetic traces live here. Ingested on-disk traces (RunSpecs
 * with an IngestSpec) stream through trace_io per run in bounded
 * chunks and never enter the cache.
 */

#ifndef STMS_DRIVER_TRACE_CACHE_HH
#define STMS_DRIVER_TRACE_CACHE_HH

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "workload/trace.hh"

namespace stms::driver
{

/** Thread-safe, generate-once, capacity-bounded trace store. */
class TraceCache
{
  public:
    /** Capacity value meaning "never evict" (the default). */
    static constexpr std::uint64_t kUnbounded =
        ~static_cast<std::uint64_t>(0);

    explicit TraceCache(std::uint64_t capacity_bytes = kUnbounded)
        : capacity_(capacity_bytes)
    {}

    /**
     * RAII pin on a cached trace. While any Handle to an entry lives,
     * the entry cannot be evicted and the Trace reference stays
     * valid. Movable, not copyable.
     */
    class Handle
    {
      public:
        Handle() = default;
        Handle(Handle &&other) noexcept
            : cache_(std::exchange(other.cache_, nullptr)),
              entry_(std::move(other.entry_))
        {}
        Handle &
        operator=(Handle &&other) noexcept
        {
            if (this != &other) {
                release();
                cache_ = std::exchange(other.cache_, nullptr);
                entry_ = std::move(other.entry_);
            }
            return *this;
        }
        Handle(const Handle &) = delete;
        Handle &operator=(const Handle &) = delete;
        ~Handle() { release(); }

        explicit operator bool() const { return entry_ != nullptr; }
        const Trace &trace() const { return entry_->trace; }
        const Trace &operator*() const { return entry_->trace; }
        const Trace *operator->() const { return &entry_->trace; }

      private:
        friend class TraceCache;
        struct Entry;
        Handle(TraceCache *cache, std::shared_ptr<Entry> entry)
            : cache_(cache), entry_(std::move(entry))
        {}
        void release();

        TraceCache *cache_ = nullptr;
        std::shared_ptr<Entry> entry_;
    };

    /**
     * Pin the trace for (@p workload, @p records_per_core),
     * generating it on first request (or after eviction). Blocks
     * while another thread generates the same key; distinct keys
     * generate concurrently.
     */
    Handle acquire(const std::string &workload,
                   std::uint64_t records_per_core);

    /**
     * Legacy convenience: acquire and pin for the cache's lifetime.
     * The returned reference stays valid until the cache dies, even
     * under a capacity bound (the permanent pin blocks eviction).
     */
    const Trace &get(const std::string &workload,
                     std::uint64_t records_per_core);

    /**
     * Change the capacity; evicts LRU unpinned entries immediately if
     * the new bound is exceeded. Entries pinned by live Handles are
     * kept (and, under capacity 0, entries already resident remain
     * until released — new acquires bypass the cache entirely).
     */
    void setCapacity(std::uint64_t capacity_bytes);

    std::uint64_t capacityBytes() const;

    /** Number of resident traces. */
    std::size_t size() const;

    /** Estimated bytes of resident traces. */
    std::uint64_t residentBytes() const;

    /** Trace generations performed over the cache's lifetime —
     *  size() plus regenerations after eviction (test hook). */
    std::uint64_t generations() const;

  private:
    using Key = std::pair<std::string, std::uint64_t>;

    struct Handle::Entry
    {
        Key key;
        Trace trace;
        std::uint64_t bytes = 0;
        std::uint32_t pins = 0;
        std::uint64_t lastUse = 0;
        bool ready = false;
        bool cached = false;  ///< Still in entries_ (evictable set).
    };
    using Entry = Handle::Entry;

    /** Estimated resident footprint of a generated trace. */
    static std::uint64_t traceBytes(const Trace &trace);

    /** Generate outside the lock; publish under it. */
    std::shared_ptr<Entry> generateEntry(const Key &key);

    /** Drop LRU unpinned entries until within capacity. Caller holds
     *  the lock. */
    void evictToCapacity();

    mutable std::mutex mutex_;
    std::condition_variable ready_;
    std::uint64_t capacity_;
    std::map<Key, std::shared_ptr<Entry>> entries_;
    /** Lifetime pins taken by get(), deduped by key so repeated
     *  get() calls return one instance (and, under capacity 0,
     *  do not accumulate private copies); these never evict. */
    std::map<Key, std::shared_ptr<Entry>> permanent_;
    std::uint64_t residentBytes_ = 0;
    std::uint64_t useClock_ = 0;
    std::uint64_t generations_ = 0;
};

/** The shared cache used by the driver CLI. */
TraceCache &globalTraceCache();

} // namespace stms::driver

#endif // STMS_DRIVER_TRACE_CACHE_HH
