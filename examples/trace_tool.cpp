/**
 * @file
 * Trace tool — generate, export, inspect, and replay workload traces.
 *
 * Exercises the trace_io subsystem end to end: generation exports to
 * the native versioned format or to ChampSim-compatible files
 * (format=native|champsim), while info/run *stream* the input —
 * records flow through a bounded per-lane chunk, never a whole
 * in-memory trace — which is exactly how the driver ingests
 * multi-gigabyte traces. See docs/TRACE_FORMATS.md for the on-disk
 * layouts.
 *
 * Usage:
 *   trace_tool mode=gen workload=oltp-db2 records=65536 out=t.stms
 *   trace_tool mode=gen workload=dss-db2 format=champsim out=t.champsim
 *   trace_tool mode=info in=t.stms
 *   trace_tool mode=run in=t.stms [ideal=false] [chunk=4096]
 */

#include <cstdio>

#include "common/config.hh"
#include "sim/run.hh"
#include "trace_io/champsim.hh"
#include "trace_io/format.hh"
#include "trace_io/native.hh"
#include "workload/trace.hh"
#include "workload/workloads.hh"

using namespace stms;

namespace
{

/** Build the streaming source named by in= (and optional format=). */
std::unique_ptr<trace_io::StreamingTraceSource>
openInput(const Options &options, std::string &error)
{
    trace_io::IngestSpec spec;
    std::string joined = options.get("in", "");
    const std::string format = options.get("format", "");
    if (!format.empty())
        joined += ",format=" + format;
    if (!trace_io::parseIngestSpec(
            joined, options.getUint("chunk", trace_io::kDefaultChunkRecords),
            spec, error)) {
        return nullptr;
    }
    return trace_io::openSource(spec, error);
}

int
generate(const Options &options)
{
    const std::string workload = options.get("workload", "oltp-db2");
    const std::string format = options.get("format", "native");
    const std::string out = options.get(
        "out",
        workload + (format == "champsim" ? ".champsim" : ".stms"));
    const auto records = options.getUint("records", 64 * 1024);
    if (options.reportUnread("mode=gen does not read it"))
        return 1;
    if (!isKnownWorkload(workload)) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     workload.c_str());
        return 1;
    }
    WorkloadGenerator generator(makeWorkload(workload, records));
    const Trace trace = generator.generate();

    std::vector<std::string> written;
    if (format == "native") {
        if (trace_io::save(trace, out))
            written.push_back(out);
    } else if (format == "champsim") {
        written = trace_io::writeChampSim(trace, out);
    } else {
        std::fprintf(stderr, "unknown format '%s' (native|champsim)\n",
                     format.c_str());
        return 1;
    }
    if (written.empty()) {
        std::fprintf(stderr, "failed to write '%s'\n", out.c_str());
        return 1;
    }
    for (const std::string &path : written) {
        std::printf("wrote %s (%s format)\n", path.c_str(),
                    format.c_str());
    }
    std::printf("%llu records, %u cores\n",
                static_cast<unsigned long long>(trace.totalRecords()),
                trace.numCores());
    return 0;
}

int
info(const Options &options)
{
    std::string error;
    auto source = openInput(options, error);
    if (!source) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
    }
    if (options.reportUnread("mode=info does not read it"))
        return 1;
    std::printf("trace '%s': %u cores", source->name().c_str(),
                source->numCores());
    if (source->totalRecords() > 0) {
        std::printf(", %llu records declared",
                    static_cast<unsigned long long>(
                        source->totalRecords()));
    }
    std::printf("\n");

    // Stream each lane through its bounded cursor; nothing below
    // materializes a whole lane.
    for (CoreId c = 0; c < source->numCores(); ++c) {
        auto cursor = source->openLane(c);
        std::uint64_t records = 0;
        std::uint64_t writes = 0;
        std::uint64_t dependent = 0;
        double think = 0.0;
        while (const TraceRecord *record = cursor->peek()) {
            ++records;
            writes += record->isWrite() ? 1 : 0;
            dependent += record->isDependent() ? 1 : 0;
            think += record->think;
            cursor->next();
        }
        const double n = static_cast<double>(records);
        std::printf("  core %u: %llu records, %.1f%% writes, %.1f%% "
                    "dependent, mean think %.0f cycles\n",
                    c, static_cast<unsigned long long>(records),
                    n > 0 ? 100.0 * static_cast<double>(writes) / n : 0,
                    n > 0 ? 100.0 * static_cast<double>(dependent) / n
                          : 0,
                    n > 0 ? think / n : 0);
    }
    std::printf("  peak resident: %zu records/lane (chunked "
                "streaming)\n",
                source->peakChunkRecords());
    return 0;
}

int
replay(const Options &options)
{
    std::string error;
    auto source = openInput(options, error);
    if (!source) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
    }
    RunConfig config;
    config.stms.emplace();
    if (options.getBool("ideal", false))
        config.stms = makeIdealTmsConfig();
    if (options.reportUnread("mode=run does not read it"))
        return 1;
    RunOutput out = runTrace(*source, config);
    std::printf("replayed %s: ipc %.3f, STMS coverage %.1f%%, "
                "overhead %.2f bytes/useful byte\n",
                options.get("in", "").c_str(), out.sim.ipc,
                100.0 * out.stmsCoverage,
                out.sim.overheadPerDataByte);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options = Options::fromArgs(argc, argv);
    const std::string mode = options.get("mode", "gen");
    if (mode == "gen")
        return generate(options);
    if (mode == "info")
        return info(options);
    if (mode == "run")
        return replay(options);
    std::fprintf(stderr, "unknown mode '%s' (gen|info|run)\n",
                 mode.c_str());
    return 1;
}
