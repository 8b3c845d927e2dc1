/**
 * @file
 * google-benchmark micro-benchmarks of the data-plane structures:
 * index-table lookup/update, history-buffer append, prefetch-buffer
 * operations, cache accesses, and the event-queue kernel. These bound
 * the simulator's own throughput, not the modeled hardware.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "common/addr_map.hh"
#include "common/arena.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "core/history_buffer.hh"
#include "core/index_table.hh"
#include "prefetch/prefetch_buffer.hh"
#include "sim/cache.hh"
#include "sim/event_queue.hh"
#include "sim/run.hh"
#include "workload/generators.hh"
#include "workload/workloads.hh"

using namespace stms;

namespace
{

/**
 * Index-table probes. Arg(0) is the table's byte budget: 16 MiB is
 * the paper's bucketized off-chip table, 0 the unbounded idealized
 * map of the ideal-TMS runs. Arg(1) is the log2 of the block range
 * keys are drawn from; the unbounded map keeps every key it sees, so
 * its range is smaller (at most 1M pairs, ~32 MiB of host memory).
 */
void
BM_IndexTableUpdate(benchmark::State &state)
{
    IndexTable table(static_cast<std::uint64_t>(state.range(0)));
    const std::uint64_t keys = 1ULL << state.range(1);
    Rng rng(1);
    std::uint64_t seq = 0;
    for (auto _ : state) {
        const Addr block = blockAddress(rng.below(keys));
        table.update(block, HistoryPointer{0, seq++});
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IndexTableUpdate)
    ->Args({16 << 20, 24})
    ->Args({0, 20})
    ->ArgNames({"bytes", "key_bits"});

void
BM_IndexTableLookup(benchmark::State &state)
{
    IndexTable table(static_cast<std::uint64_t>(state.range(0)));
    const std::uint64_t keys = 1ULL << state.range(1);
    Rng rng(2);
    for (std::uint64_t i = 0; i < 1'000'000; ++i)
        table.update(blockAddress(rng.below(keys)), HistoryPointer{0, i});
    Rng probe(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            table.lookup(blockAddress(probe.below(keys))));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IndexTableLookup)
    ->Args({16 << 20, 24})
    ->Args({0, 20})
    ->ArgNames({"bytes", "key_bits"});

void
BM_HistoryBufferAppend(benchmark::State &state)
{
    HistoryBuffer buffer(1ULL << 20);
    Rng rng(4);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            buffer.append(blockAddress(rng.below(1ULL << 24))));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistoryBufferAppend);

void
BM_PrefetchBuffer(benchmark::State &state)
{
    PrefetchBuffer buffer(32);
    Rng rng(5);
    for (auto _ : state) {
        const Addr block = blockAddress(rng.below(1024));
        if (!buffer.consume(block))
            buffer.insert(block);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrefetchBuffer);

/**
 * The L2 as a demand miss sees it: each probe picks a uniformly random
 * set of the whole 8 MiB, 16-way cache, so every set's tags and order
 * word are in play (host state far beyond one core's L1d), and one of
 * 2 x ways tags for that set, so about half the probes miss and fill
 * over an LRU victim.
 */
void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache(CacheConfig{"bench-l2", 8 * 1024 * 1024, 16});
    const std::uint64_t sets = cache.numSets();
    const std::uint64_t tags = 2 * cache.numWays();
    Rng rng(6);
    for (auto _ : state) {
        const Addr block =
            blockAddress(rng.below(tags) * sets + rng.below(sets));
        if (!cache.access(block, false))
            cache.fill(block);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

/**
 * The cache-probe fast path: repeated hits on a hot set, i.e. the
 * per-record L1 probe every simulated access pays (inlined
 * access()/findLine()/LRU touch). A regression here is a regression
 * on every record of every sweep, visible without running one.
 */
void
BM_CacheProbeHit(benchmark::State &state)
{
    Cache cache(CacheConfig{"bench-l1", 64 * 1024, 2});
    // Resident hot set, as the L1 sees between misses.
    constexpr std::uint64_t kHotBlocks = 256;
    for (std::uint64_t b = 0; b < kHotBlocks; ++b)
        cache.fill(blockAddress(b));
    Rng rng(8);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(blockAddress(rng.below(kHotBlocks)), false));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheProbeHit);

/**
 * The batched record-dispatch loop, end to end: one functional-mode
 * runTrace() over a pregenerated trace — TraceCore walking cursor
 * chunks with a plain pointer, the warmup-barrier counter, the L1
 * fast path, and the event queue behind it. Items = trace records,
 * so items/sec here is the same records/sec unit perf_suite tracks;
 * this is the bench that catches inner-loop regressions without a
 * full sweep.
 */
void
BM_RecordDispatch(benchmark::State &state)
{
    WorkloadSpec spec = makeWorkload("oltp-db2", 16384);
    const Trace trace = WorkloadGenerator(spec).generate();
    RunConfig config;
    config.sim = defaultSimConfig(true);
    for (auto _ : state) {
        RunOutput out = runTrace(trace, config);
        benchmark::DoNotOptimize(out.sim.mem.accesses);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(trace.totalRecords()));
}
BENCHMARK(BM_RecordDispatch);

void
BM_EventQueue(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue queue;
        std::uint64_t count = 0;
        for (int i = 0; i < 1000; ++i) {
            queue.schedule(static_cast<Cycle>(i % 37),
                           [&count]() { ++count; });
        }
        queue.run();
        benchmark::DoNotOptimize(count);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueue);

/** Self-rescheduling event load: each firing schedules its
 *  successor with a varying delay, so heap order gets exercised. The
 *  successor captures one pointer, which fits the callback's inline
 *  buffer: no scheduled event allocates. */
struct SteadyLoad
{
    EventQueue queue;
    std::uint64_t executed = 0;
    Cycle delay = 1;

    void
    fire()
    {
        ++executed;
        delay = delay % 41 + 1;
        queue.schedule(delay, [this]() { fire(); });
    }
};

/**
 * Steady-state event throughput: a fixed population of self-
 * rescheduling events, the pattern a running simulation puts on the
 * queue (cores and the memory controller keep a bounded number of
 * events in flight and every pop schedules a successor). This is the
 * bench that shows heap regrowth and slab reuse, without allocator
 * time mixed in.
 */
void
BM_EventQueueSteadyState(benchmark::State &state)
{
    const std::int64_t population = state.range(0);
    SteadyLoad load;
    for (std::int64_t i = 0; i < population; ++i)
        load.queue.schedule(static_cast<Cycle>(i % 13),
                            [&load]() { load.fire(); });

    static constexpr std::uint64_t kBatch = 1024;
    for (auto _ : state) {
        const std::uint64_t target = load.executed + kBatch;
        while (load.executed < target)
            load.queue.runUntil(load.queue.now() + 8);
        benchmark::DoNotOptimize(load.executed);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kBatch));
}
BENCHMARK(BM_EventQueueSteadyState)->Arg(64)->Arg(1024)->Arg(16384);

/**
 * The scan kernel itself at bucket-shaped sizes: Arg(0) is the element
 * count (12 = one index bucket, 32 = MSHR-file scale, 256 = history
 * window segment), Arg(1)=0 pins the scalar reference, Arg(1)=1 runs
 * the dispatched kernel (whatever activeIsa() reports for this host /
 * STMS_SIMD config). Probes alternate hit positions and misses so
 * neither branch prediction nor an early first-lane hit flatters the
 * vector path.
 */
void
BM_FindFirstEqual(benchmark::State &state)
{
    const auto count = static_cast<std::size_t>(state.range(0));
    const bool dispatched = state.range(1) != 0;
    std::vector<std::uint64_t> keys(count + simd::kScanPadU64,
                                    ~0ULL);  // padding never matches
    for (std::size_t i = 0; i < count; ++i)
        keys[i] = 0x1000 + i;
    // Probe mix: every position once, plus as many misses.
    std::vector<std::uint64_t> probes;
    for (std::size_t i = 0; i < count; ++i) {
        probes.push_back(0x1000 + i);
        probes.push_back(0xdead0000 + i);
    }
    if (probes.empty())
        probes.push_back(0xdead0000);
    std::size_t next = 0;
    for (auto _ : state) {
        const std::uint64_t probe = probes[next];
        next = next + 1 == probes.size() ? 0 : next + 1;
        const std::size_t hit =
            dispatched
                ? simd::findFirstEqual(keys.data(), count, probe)
                : simd::findFirstEqualScalar(keys.data(), count,
                                             probe);
        benchmark::DoNotOptimize(hit);
    }
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(dispatched ? simd::activeIsa() : "scalar-ref");
}
BENCHMARK(BM_FindFirstEqual)
    ->Args({12, 0})
    ->Args({12, 1})
    ->Args({32, 0})
    ->Args({32, 1})
    ->Args({256, 0})
    ->Args({256, 1})
    ->ArgNames({"count", "simd"});

/** History-window scan (stream re-lookup shape): one SIMD sweep over
 *  a wrapped bounded log vs the entry-at-a-time walk it replaced. */
void
BM_HistoryScanWindow(benchmark::State &state)
{
    constexpr std::uint64_t kCapacity = 4096;
    HistoryBuffer buffer(kCapacity);
    Rng rng(21);
    for (std::uint64_t i = 0; i < kCapacity + kCapacity / 2; ++i)
        buffer.append(blockAddress(rng.below(1ULL << 16)));
    const SeqNum oldest = buffer.head() - kCapacity;
    Rng probe(22);
    for (auto _ : state) {
        benchmark::DoNotOptimize(buffer.scanWindow(
            oldest, blockAddress(probe.below(1ULL << 16))));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistoryScanWindow);

/** MSHR-file churn: the probe/insert/extract mix every off-chip
 *  transfer puts on the flat map, at demand-window occupancy. */
void
BM_FlatAddrMapChurn(benchmark::State &state)
{
    FlatAddrMap<std::uint64_t> map;
    constexpr std::uint64_t kWindow = 32;  // in-flight blocks
    for (std::uint64_t i = 0; i < kWindow; ++i)
        map.emplace(blockAddress(i), std::uint64_t{i});
    Rng rng(23);
    std::uint64_t next = kWindow;
    for (auto _ : state) {
        // 3 probes (demand checks) per fill+extract pair.
        for (int p = 0; p < 3; ++p) {
            benchmark::DoNotOptimize(
                map.contains(blockAddress(rng.below(2 * kWindow))));
        }
        const std::size_t victim =
            static_cast<std::size_t>(rng.below(map.size()));
        benchmark::DoNotOptimize(map.take(victim));
        map.emplace(blockAddress(next), std::uint64_t{next});
        ++next;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatAddrMapChurn);

/**
 * Per-run structure teardown/rebuild cost: the allocation storm at
 * every sweep point. Arg(0)=0 takes it from the global heap (no
 * arena installed), Arg(0)=1 from a reused ScopedRunArena — the
 * difference is what --pipeline workers stop paying per run.
 */
void
BM_ArenaRunCycle(benchmark::State &state)
{
    const bool arena = state.range(0) != 0;
    constexpr std::size_t kBuffers = 64;
    constexpr std::size_t kElems = 4096;
    for (auto _ : state) {
        std::optional<ScopedRunArena> scope;
        if (arena)
            scope.emplace();
        std::vector<ArenaBuffer<std::uint64_t>> buffers;
        buffers.reserve(kBuffers);
        for (std::size_t i = 0; i < kBuffers; ++i) {
            buffers.emplace_back(kElems);
            buffers.back()[0] = i;        // touch first...
            buffers.back()[kElems - 1] = i;  // ...and last page
        }
        benchmark::DoNotOptimize(buffers.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * kBuffers));
}
BENCHMARK(BM_ArenaRunCycle)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"arena"});

} // namespace

BENCHMARK_MAIN();
