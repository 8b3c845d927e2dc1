/** @file The run codec must round-trip every field report() can read
 *  — verified against real simulation output, not hand-built
 *  structs, so newly added RunOutput fields that miss the codec fail
 *  here. */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "results/run_codec.hh"
#include "workload/generators.hh"
#include "workload/workloads.hh"

namespace stms::results
{
namespace
{

RunOutput
simulateSmallPoint()
{
    const Trace trace =
        WorkloadGenerator(makeWorkload("oltp-db2", 8 * 1024))
            .generate();
    RunConfig config;
    config.sim = defaultSimConfig(false);
    config.stms = StmsConfig{};
    return runTrace(trace, config);
}

void
expectPrefetcherEq(const PrefetcherStats &a, const PrefetcherStats &b)
{
    EXPECT_EQ(a.issued, b.issued);
    EXPECT_EQ(a.useful, b.useful);
    EXPECT_EQ(a.partial, b.partial);
    EXPECT_EQ(a.erroneous, b.erroneous);
    EXPECT_EQ(a.redundant, b.redundant);
    EXPECT_EQ(a.rejected, b.rejected);
}

/** A RunOutput whose every stored field is nonzero and distinct
 *  (two cores, two prefetchers, two memory channels, row-buffer
 *  outcomes, a few stream-length buckets). */
RunOutput
everyFieldSet()
{
    std::uint64_t counter = 0;
    auto next = [&counter] { return ++counter; };
    auto prefetcher = [&next] {
        PrefetcherStats stats;
        stats.issued = next();
        stats.useful = next();
        stats.partial = next();
        stats.erroneous = next();
        stats.redundant = next();
        stats.rejected = next();
        return stats;
    };

    RunOutput out;
    SimResult &sim = out.sim;
    sim.cycles = next();
    sim.instructions = next();
    sim.ipc = 0.5;
    sim.mem.accesses = next();
    sim.mem.l1Hits = next();
    sim.mem.prefetchHits = next();
    sim.mem.l2Hits = next();
    sim.mem.partialMisses = next();
    sim.mem.offchipReads = next();
    sim.mem.offchipWrites = next();
    for (std::size_t cls = 0; cls < kNumTrafficClasses; ++cls) {
        sim.traffic.requests[cls] = next();
        sim.traffic.bytes[cls] = next();
        sim.rowBuffer.hits[cls] = next();
        sim.rowBuffer.empties[cls] = next();
        sim.rowBuffer.conflicts[cls] = next();
    }
    sim.traffic.highPrioRequests = next();
    sim.traffic.lowPrioRequests = next();
    sim.traffic.busyCycles = next();
    sim.mlpPerCore = {1.25, 1.75};
    sim.meanMlp = 1.5;
    sim.prefetchers = {prefetcher(), prefetcher()};
    sim.memUtilization = 0.25;
    sim.memChannels = 2;
    sim.coverage = 0.375;
    sim.fullCoverage = 0.125;
    sim.overheadPerDataByte = 0.0625;
    out.stride = prefetcher();
    out.stms = prefetcher();

    StmsStats &stms = out.stmsInternal;
    for (std::uint64_t *field :
         {&stms.logged, &stms.historyBlockWrites, &stms.lookups,
          &stms.lookupHits, &stms.stalePointers,
          &stms.lookupsSuppressed, &stms.lookupsIgnored,
          &stms.streamsStarted, &stms.streamsEnded,
          &stms.streamsReplaced, &stms.endMarksWritten, &stms.pauses,
          &stms.resumes, &stms.skipAheads, &stms.followed,
          &stms.consumed, &stms.pumpBreakRoom, &stms.pumpBreakWindow,
          &stms.pumpBreakOutstanding, &stms.pumpBreakPause,
          &stms.queueDry})
        *field = next();
    stms.streamLengths.sample(1);
    stms.streamLengths.sample(5, 3);
    stms.streamLengths.sample(1000, 2);

    out.stmsMetaBytes = next();
    out.stmsCoverage = 0.75;
    out.stmsFullCoverage = 0.5;
    out.stmsPartialCoverage = 0.25;
    return out;
}

/** The encoding as "name=value" lines, values printed exactly. */
std::vector<std::string>
encodedLines(const RunOutput &output)
{
    std::vector<std::string> lines;
    for (const auto &[name, value] : encodeRunOutput(output)) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        lines.push_back(name + "=" + buf);
    }
    return lines;
}

void
expectLines(const std::vector<std::string> &actual,
            const std::vector<std::string> &expected)
{
    EXPECT_EQ(actual, expected);
    if (actual != expected) {
        std::string dump;
        for (const std::string &line : actual)
            dump += "        \"" + line + "\",\n";
        ADD_FAILURE() << "actual encoding:\n" << dump;
    }
}

// The store's on-disk layout: names, order and sparse rules. Stored
// records and stmsbench's model digest depend on every line here.
TEST(RunCodec, GoldenEncodingOfEveryFieldSet)
{
    expectLines(encodedLines(everyFieldSet()), {
        "codec=1",
        "sim.cycles=1",
        "sim.instructions=2",
        "sim.ipc=0.5",
        "sim.mem.accesses=3",
        "sim.mem.l1_hits=4",
        "sim.mem.prefetch_hits=5",
        "sim.mem.l2_hits=6",
        "sim.mem.partial_misses=7",
        "sim.mem.offchip_reads=8",
        "sim.mem.offchip_writes=9",
        "sim.traffic.demand-read.requests=10",
        "sim.traffic.demand-read.bytes=11",
        "sim.traffic.demand-writeback.requests=15",
        "sim.traffic.demand-writeback.bytes=16",
        "sim.traffic.prefetch.requests=20",
        "sim.traffic.prefetch.bytes=21",
        "sim.traffic.meta-lookup.requests=25",
        "sim.traffic.meta-lookup.bytes=26",
        "sim.traffic.meta-update.requests=30",
        "sim.traffic.meta-update.bytes=31",
        "sim.traffic.meta-record.requests=35",
        "sim.traffic.meta-record.bytes=36",
        "sim.traffic.high_prio=40",
        "sim.traffic.low_prio=41",
        "sim.traffic.busy_cycles=42",
        "sim.mlp.count=2",
        "sim.mlp.0=1.25",
        "sim.mlp.1=1.75",
        "sim.mean_mlp=1.5",
        "sim.pf.count=2",
        "sim.pf.0.issued=43",
        "sim.pf.0.useful=44",
        "sim.pf.0.partial=45",
        "sim.pf.0.erroneous=46",
        "sim.pf.0.redundant=47",
        "sim.pf.0.rejected=48",
        "sim.pf.1.issued=49",
        "sim.pf.1.useful=50",
        "sim.pf.1.partial=51",
        "sim.pf.1.erroneous=52",
        "sim.pf.1.redundant=53",
        "sim.pf.1.rejected=54",
        "sim.mem_utilization=0.25",
        "sim.mem_channels=2",
        "sim.rowbuf.demand-read.hits=12",
        "sim.rowbuf.demand-read.empties=13",
        "sim.rowbuf.demand-read.conflicts=14",
        "sim.rowbuf.demand-writeback.hits=17",
        "sim.rowbuf.demand-writeback.empties=18",
        "sim.rowbuf.demand-writeback.conflicts=19",
        "sim.rowbuf.prefetch.hits=22",
        "sim.rowbuf.prefetch.empties=23",
        "sim.rowbuf.prefetch.conflicts=24",
        "sim.rowbuf.meta-lookup.hits=27",
        "sim.rowbuf.meta-lookup.empties=28",
        "sim.rowbuf.meta-lookup.conflicts=29",
        "sim.rowbuf.meta-update.hits=32",
        "sim.rowbuf.meta-update.empties=33",
        "sim.rowbuf.meta-update.conflicts=34",
        "sim.rowbuf.meta-record.hits=37",
        "sim.rowbuf.meta-record.empties=38",
        "sim.rowbuf.meta-record.conflicts=39",
        "sim.coverage=0.375",
        "sim.full_coverage=0.125",
        "sim.overhead_per_byte=0.0625",
        "stride.issued=55",
        "stride.useful=56",
        "stride.partial=57",
        "stride.erroneous=58",
        "stride.redundant=59",
        "stride.rejected=60",
        "stms.issued=61",
        "stms.useful=62",
        "stms.partial=63",
        "stms.erroneous=64",
        "stms.redundant=65",
        "stms.rejected=66",
        "stms_internal.logged=67",
        "stms_internal.history_block_writes=68",
        "stms_internal.lookups=69",
        "stms_internal.lookup_hits=70",
        "stms_internal.stale_pointers=71",
        "stms_internal.lookups_suppressed=72",
        "stms_internal.lookups_ignored=73",
        "stms_internal.streams_started=74",
        "stms_internal.streams_ended=75",
        "stms_internal.streams_replaced=76",
        "stms_internal.end_marks_written=77",
        "stms_internal.pauses=78",
        "stms_internal.resumes=79",
        "stms_internal.skip_aheads=80",
        "stms_internal.followed=81",
        "stms_internal.consumed=82",
        "stms_internal.pump_break_room=83",
        "stms_internal.pump_break_window=84",
        "stms_internal.pump_break_outstanding=85",
        "stms_internal.pump_break_pause=86",
        "stms_internal.queue_dry=87",
        "stms_internal.stream_lengths.buckets=24",
        "stms_internal.stream_lengths.count=6",
        "stms_internal.stream_lengths.sum=2016",
        "stms_internal.stream_lengths.b0=1",
        "stms_internal.stream_lengths.b2=3",
        "stms_internal.stream_lengths.b9=2",
        "meta_bytes=88",
        "coverage=0.75",
        "full_coverage=0.5",
        "partial_coverage=0.25",
    });

    RunOutput decoded;
    std::string error;
    ASSERT_TRUE(decodeRunOutput(encodeRunOutput(everyFieldSet()),
                                decoded, error))
        << error;
    EXPECT_EQ(encodedLines(decoded), encodedLines(everyFieldSet()));
}

TEST(RunCodec, GoldenEncodingOfDefaultOutputOmitsSparseKeys)
{
    expectLines(encodedLines(RunOutput{}), {
        "codec=1",
        "sim.cycles=0",
        "sim.instructions=0",
        "sim.ipc=0",
        "sim.mem.accesses=0",
        "sim.mem.l1_hits=0",
        "sim.mem.prefetch_hits=0",
        "sim.mem.l2_hits=0",
        "sim.mem.partial_misses=0",
        "sim.mem.offchip_reads=0",
        "sim.mem.offchip_writes=0",
        "sim.traffic.demand-read.requests=0",
        "sim.traffic.demand-read.bytes=0",
        "sim.traffic.demand-writeback.requests=0",
        "sim.traffic.demand-writeback.bytes=0",
        "sim.traffic.prefetch.requests=0",
        "sim.traffic.prefetch.bytes=0",
        "sim.traffic.meta-lookup.requests=0",
        "sim.traffic.meta-lookup.bytes=0",
        "sim.traffic.meta-update.requests=0",
        "sim.traffic.meta-update.bytes=0",
        "sim.traffic.meta-record.requests=0",
        "sim.traffic.meta-record.bytes=0",
        "sim.traffic.high_prio=0",
        "sim.traffic.low_prio=0",
        "sim.traffic.busy_cycles=0",
        "sim.mlp.count=0",
        "sim.mean_mlp=0",
        "sim.pf.count=0",
        "sim.mem_utilization=0",
        "sim.coverage=0",
        "sim.full_coverage=0",
        "sim.overhead_per_byte=0",
        "stride.issued=0",
        "stride.useful=0",
        "stride.partial=0",
        "stride.erroneous=0",
        "stride.redundant=0",
        "stride.rejected=0",
        "stms.issued=0",
        "stms.useful=0",
        "stms.partial=0",
        "stms.erroneous=0",
        "stms.redundant=0",
        "stms.rejected=0",
        "stms_internal.logged=0",
        "stms_internal.history_block_writes=0",
        "stms_internal.lookups=0",
        "stms_internal.lookup_hits=0",
        "stms_internal.stale_pointers=0",
        "stms_internal.lookups_suppressed=0",
        "stms_internal.lookups_ignored=0",
        "stms_internal.streams_started=0",
        "stms_internal.streams_ended=0",
        "stms_internal.streams_replaced=0",
        "stms_internal.end_marks_written=0",
        "stms_internal.pauses=0",
        "stms_internal.resumes=0",
        "stms_internal.skip_aheads=0",
        "stms_internal.followed=0",
        "stms_internal.consumed=0",
        "stms_internal.pump_break_room=0",
        "stms_internal.pump_break_window=0",
        "stms_internal.pump_break_outstanding=0",
        "stms_internal.pump_break_pause=0",
        "stms_internal.queue_dry=0",
        "stms_internal.stream_lengths.buckets=24",
        "stms_internal.stream_lengths.count=0",
        "stms_internal.stream_lengths.sum=0",
        "meta_bytes=0",
        "coverage=0",
        "full_coverage=0",
        "partial_coverage=0",
    });
}

TEST(RunCodec, RoundTripsRealSimulationOutput)
{
    const RunOutput original = simulateSmallPoint();
    const auto scalars = encodeRunOutput(original);

    RunOutput decoded;
    std::string error;
    ASSERT_TRUE(decodeRunOutput(scalars, decoded, error)) << error;

    EXPECT_EQ(decoded.sim.cycles, original.sim.cycles);
    EXPECT_EQ(decoded.sim.instructions, original.sim.instructions);
    EXPECT_EQ(decoded.sim.ipc, original.sim.ipc);

    EXPECT_EQ(decoded.sim.mem.accesses, original.sim.mem.accesses);
    EXPECT_EQ(decoded.sim.mem.l1Hits, original.sim.mem.l1Hits);
    EXPECT_EQ(decoded.sim.mem.prefetchHits,
              original.sim.mem.prefetchHits);
    EXPECT_EQ(decoded.sim.mem.l2Hits, original.sim.mem.l2Hits);
    EXPECT_EQ(decoded.sim.mem.partialMisses,
              original.sim.mem.partialMisses);
    EXPECT_EQ(decoded.sim.mem.offchipReads,
              original.sim.mem.offchipReads);
    EXPECT_EQ(decoded.sim.mem.offchipWrites,
              original.sim.mem.offchipWrites);

    for (std::size_t cls = 0; cls < kNumTrafficClasses; ++cls) {
        EXPECT_EQ(decoded.sim.traffic.requests[cls],
                  original.sim.traffic.requests[cls]);
        EXPECT_EQ(decoded.sim.traffic.bytes[cls],
                  original.sim.traffic.bytes[cls]);
    }
    EXPECT_EQ(decoded.sim.traffic.highPrioRequests,
              original.sim.traffic.highPrioRequests);
    EXPECT_EQ(decoded.sim.traffic.lowPrioRequests,
              original.sim.traffic.lowPrioRequests);
    EXPECT_EQ(decoded.sim.traffic.busyCycles,
              original.sim.traffic.busyCycles);

    EXPECT_EQ(decoded.sim.mlpPerCore, original.sim.mlpPerCore);
    EXPECT_EQ(decoded.sim.meanMlp, original.sim.meanMlp);
    ASSERT_EQ(decoded.sim.prefetchers.size(),
              original.sim.prefetchers.size());
    for (std::size_t i = 0; i < original.sim.prefetchers.size(); ++i)
        expectPrefetcherEq(decoded.sim.prefetchers[i],
                           original.sim.prefetchers[i]);
    EXPECT_EQ(decoded.sim.memUtilization,
              original.sim.memUtilization);
    EXPECT_EQ(decoded.sim.coverage, original.sim.coverage);
    EXPECT_EQ(decoded.sim.fullCoverage, original.sim.fullCoverage);
    EXPECT_EQ(decoded.sim.overheadPerDataByte,
              original.sim.overheadPerDataByte);

    expectPrefetcherEq(decoded.stride, original.stride);
    expectPrefetcherEq(decoded.stms, original.stms);

    const StmsStats &a = decoded.stmsInternal;
    const StmsStats &b = original.stmsInternal;
    EXPECT_EQ(a.logged, b.logged);
    EXPECT_EQ(a.historyBlockWrites, b.historyBlockWrites);
    EXPECT_EQ(a.lookups, b.lookups);
    EXPECT_EQ(a.lookupHits, b.lookupHits);
    EXPECT_EQ(a.stalePointers, b.stalePointers);
    EXPECT_EQ(a.lookupsSuppressed, b.lookupsSuppressed);
    EXPECT_EQ(a.lookupsIgnored, b.lookupsIgnored);
    EXPECT_EQ(a.streamsStarted, b.streamsStarted);
    EXPECT_EQ(a.streamsEnded, b.streamsEnded);
    EXPECT_EQ(a.streamsReplaced, b.streamsReplaced);
    EXPECT_EQ(a.endMarksWritten, b.endMarksWritten);
    EXPECT_EQ(a.pauses, b.pauses);
    EXPECT_EQ(a.resumes, b.resumes);
    EXPECT_EQ(a.skipAheads, b.skipAheads);
    EXPECT_EQ(a.followed, b.followed);
    EXPECT_EQ(a.consumed, b.consumed);
    EXPECT_EQ(a.pumpBreakRoom, b.pumpBreakRoom);
    EXPECT_EQ(a.pumpBreakWindow, b.pumpBreakWindow);
    EXPECT_EQ(a.pumpBreakOutstanding, b.pumpBreakOutstanding);
    EXPECT_EQ(a.pumpBreakPause, b.pumpBreakPause);
    EXPECT_EQ(a.queueDry, b.queueDry);

    // The Fig. 6 stream-length histogram round-trips exactly (CDF
    // and mean both depend on buckets + count + weighted sum).
    ASSERT_EQ(a.streamLengths.numBuckets(),
              b.streamLengths.numBuckets());
    EXPECT_EQ(a.streamLengths.count(), b.streamLengths.count());
    EXPECT_EQ(a.streamLengths.weightedSum(),
              b.streamLengths.weightedSum());
    for (std::size_t i = 0; i < b.streamLengths.numBuckets(); ++i)
        EXPECT_EQ(a.streamLengths.bucketCount(i),
                  b.streamLengths.bucketCount(i));

    EXPECT_EQ(decoded.stmsMetaBytes, original.stmsMetaBytes);
    EXPECT_EQ(decoded.stmsCoverage, original.stmsCoverage);
    EXPECT_EQ(decoded.stmsFullCoverage, original.stmsFullCoverage);
    EXPECT_EQ(decoded.stmsPartialCoverage,
              original.stmsPartialCoverage);

    // And the re-encoding is byte-for-byte the same scalar list.
    EXPECT_EQ(encodeRunOutput(decoded), scalars);
}

TEST(RunCodec, RejectsForeignScalars)
{
    RunOutput decoded;
    std::string error;
    EXPECT_FALSE(decodeRunOutput({}, decoded, error));
    EXPECT_FALSE(decodeRunOutput({{"codec", 99.0}}, decoded, error));
}

TEST(RunCodec, CorruptCountsFailDecodeInsteadOfAllocating)
{
    // Regression: a hand-damaged record with an absurd vector length
    // must return false (the runner then re-simulates), not drive a
    // giant or UB allocation.
    const RunOutput original = simulateSmallPoint();
    for (const char *count_key :
         {"sim.mlp.count", "sim.pf.count",
          "stms_internal.stream_lengths.buckets"}) {
        for (const double bad : {1e18, -4.0, 2.5}) {
            auto scalars = encodeRunOutput(original);
            for (auto &[name, value] : scalars)
                if (name == count_key)
                    value = bad;
            RunOutput decoded;
            std::string error;
            EXPECT_FALSE(decodeRunOutput(scalars, decoded, error))
                << count_key << " = " << bad;
        }
    }
    // Negative plain counters clamp to zero instead of UB casts.
    auto scalars = encodeRunOutput(original);
    for (auto &[name, value] : scalars)
        if (name == "sim.cycles")
            value = -7.0;
    RunOutput decoded;
    std::string error;
    ASSERT_TRUE(decodeRunOutput(scalars, decoded, error)) << error;
    EXPECT_EQ(decoded.sim.cycles, 0u);
}

} // namespace
} // namespace stms::results
