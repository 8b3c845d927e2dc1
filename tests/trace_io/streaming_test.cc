/** @file Streaming-ingestion tests: chunk-boundary correctness (the
 *  simulation must be bit-identical for chunk sizes 1, 7, and
 *  effectively-infinite), the bounded-residency guarantee, and the
 *  TraceSource/RecordCursor contracts the sim layer relies on. */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "results/run_codec.hh"
#include "sim/run.hh"
#include "trace_io/format.hh"
#include "trace_io/native.hh"
#include "workload/generators.hh"
#include "workload/workloads.hh"

namespace stms
{
namespace
{

std::string
tempPath(const char *name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

/** Workload small enough for many runs, busy enough to matter. */
Trace
testTrace()
{
    WorkloadGenerator generator(makeWorkload("web-apache", 2048));
    return generator.generate();
}

/** Exact comparison of every scalar the result store keeps. */
void
expectIdenticalOutputs(const RunOutput &a, const RunOutput &b)
{
    EXPECT_EQ(results::encodeRunOutput(a), results::encodeRunOutput(b));
}

RunConfig
stmsRunConfig()
{
    RunConfig config;
    config.sim = defaultSimConfig(false);
    config.stms.emplace();
    return config;
}

TEST(Streaming, ChunkSizeNeverChangesTheSimulation)
{
    const Trace trace = testTrace();
    const std::string path = tempPath("stms_stream_chunks.stms");
    ASSERT_TRUE(trace_io::save(trace, path));

    const RunConfig config = stmsRunConfig();
    const RunOutput direct = runTrace(trace, config);

    // Chunk sizes 1 and 7 hammer every boundary alignment; the last
    // is effectively infinite (one chunk per lane).
    for (const std::uint64_t chunk :
         {std::uint64_t{1}, std::uint64_t{7},
          std::uint64_t{1} << 40}) {
        std::string error;
        trace_io::IngestSpec spec;
        spec.chunkRecords = chunk;
        spec.inputs.push_back(
            {path, trace_io::TraceFormat::Native});
        auto source = trace_io::openSource(spec, error);
        ASSERT_NE(source, nullptr) << error;
        EXPECT_EQ(source->totalRecords(), trace.totalRecords());

        const RunOutput streamed = runTrace(*source, config);
        SCOPED_TRACE("chunk=" + std::to_string(chunk));
        expectIdenticalOutputs(direct, streamed);

        // The bounded-residency guarantee: no lane cursor ever held
        // more than one chunk (or one lane, whichever is smaller).
        EXPECT_LE(source->peakChunkRecords(),
                  std::min<std::uint64_t>(chunk,
                                          trace.perCore[0].size()));
        EXPECT_GT(source->peakChunkRecords(), 0u);
    }
    std::remove(path.c_str());
}

TEST(Streaming, VectorAndStreamingCursorsAgree)
{
    const Trace trace = testTrace();
    const std::string path = tempPath("stms_stream_agree.stms");
    ASSERT_TRUE(trace_io::save(trace, path));

    std::string error;
    trace_io::IngestSpec spec;
    spec.chunkRecords = 13;
    spec.inputs.push_back({path, trace_io::TraceFormat::Auto});
    auto streaming = trace_io::openSource(spec, error);
    ASSERT_NE(streaming, nullptr) << error;
    trace_io::MemoryTraceSource memory(trace);

    ASSERT_EQ(streaming->numCores(), memory.numCores());
    EXPECT_EQ(streaming->name(), memory.name());
    for (CoreId lane = 0; lane < memory.numCores(); ++lane) {
        auto a = memory.openLane(lane);
        auto b = streaming->openLane(lane);
        std::uint64_t count = 0;
        while (true) {
            const TraceRecord *ra = a->peek();
            const TraceRecord *rb = b->peek();
            ASSERT_EQ(ra == nullptr, rb == nullptr)
                << "lane " << lane << " length mismatch at " << count;
            if (!ra)
                break;
            ASSERT_EQ(ra->addr, rb->addr);
            ASSERT_EQ(ra->think, rb->think);
            ASSERT_EQ(ra->flags, rb->flags);
            a->next();
            b->next();
            ++count;
        }
        EXPECT_EQ(count, trace.perCore[lane].size());
    }
    std::remove(path.c_str());
}

TEST(Streaming, RepeatedPeekIsStable)
{
    std::vector<TraceRecord> records(3);
    records[1].addr = 0x40;
    trace_io::VectorCursor cursor(records);
    ASSERT_NE(cursor.peek(), nullptr);
    EXPECT_EQ(cursor.peek(), cursor.peek());  // No side effects.
    cursor.next();
    EXPECT_EQ(cursor.peek()->addr, 0x40u);
    cursor.next();
    cursor.next();
    EXPECT_EQ(cursor.peek(), nullptr);
    EXPECT_EQ(cursor.peek(), nullptr);  // Stable at end, too.
}

TEST(Streaming, MemoryTraceSourceReportsTraceShape)
{
    Trace trace;
    trace.name = "shape";
    trace.perCore.resize(3);
    trace.perCore[1].resize(5);
    trace_io::MemoryTraceSource source(trace);
    EXPECT_EQ(source.numCores(), 3u);
    EXPECT_EQ(source.totalRecords(), 5u);
    EXPECT_EQ(source.name(), "shape");
    auto lane = source.openLane(2);
    EXPECT_EQ(lane->peek(), nullptr);  // Empty lane is valid.
}

} // namespace
} // namespace stms
