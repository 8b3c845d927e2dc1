/**
 * @file
 * Experiment "synth_vs_ingest" — round-trip a synthetic workload
 * through each on-disk trace format and assert metric equality.
 *
 * plan() generates the workload's trace (deterministically, the same
 * bits the TraceCache serves), exports it to the native format and
 * to per-core ChampSim files in a scratch directory, and schedules
 * three otherwise-identical STMS runs: direct synthetic generation,
 * native ingestion, and ChampSim ingestion — the ingest runs
 * streaming from disk in bounded chunks. report() compares every
 * scalar the result store keeps (encodeRunOutput) with exact
 * (bit-identical) equality and publishes the mismatch count as the
 * `mismatches` metric, which tests and CI assert to be zero.
 *
 * Warmup is disabled for all three runs: a ChampSim source cannot
 * report its record count up front (docs/TRACE_FORMATS.md), so a
 * warmup barrier would desynchronize it from the other two.
 *
 * The ChampSim export encodes think time as filler instructions
 * (~70x record inflation), so the default trace is deliberately
 * short; scale `records=` consciously.
 */

#include "driver/experiments/builtins.hh"

#include <algorithm>
#include <cmath>
#include <filesystem>

#include <unistd.h>

#include "common/log.hh"
#include "results/run_codec.hh"
#include "trace_io/champsim.hh"
#include "trace_io/native.hh"
#include "workload/generators.hh"
#include "workload/workloads.hh"

namespace stms::driver
{
namespace
{

class SynthVsIngest final : public ExperimentBase
{
  public:
    SynthVsIngest()
        : ExperimentBase("synth_vs_ingest",
                         "round-trip a synthetic workload through "
                         "native + ChampSim files; assert equality")
    {}

    /** Scratch directory (per process: parallel ctest runs must not
     *  overwrite each other's exports mid-read). */
    static std::filesystem::path
    scratchDir()
    {
        return std::filesystem::temp_directory_path() /
               ("stms_synth_vs_ingest." + std::to_string(getpid()));
    }

    std::vector<RunSpec>
    plan(const Options &options) const override
    {
        // dss-db2 has the suite's lowest think times, keeping the
        // filler-inflated ChampSim export small by default.
        const std::string workload =
            options.get("workload", "dss-db2");
        if (!isKnownWorkload(workload))
            stms_fatal("synth_vs_ingest: unknown workload '%s'",
                       workload.c_str());
        const std::uint64_t records = plannedRecords(options, 1024);
        const std::uint64_t chunk = options.getUint(
            "chunk", trace_io::kDefaultChunkRecords);

        // Export the trace the direct run will also use. Generation
        // is deterministic, so this is bit-identical to what the
        // TraceCache hands the "direct" run.
        WorkloadGenerator generator(makeWorkload(workload, records));
        const Trace trace = generator.generate();

        std::error_code ec;
        const std::filesystem::path dir = scratchDir();
        std::filesystem::create_directories(dir, ec);
        const std::string base =
            (dir / (workload + "-" + std::to_string(records)))
                .string();
        const std::string native_path = base + ".stms";
        if (!trace_io::save(trace, native_path))
            stms_fatal("synth_vs_ingest: cannot write '%s'",
                       native_path.c_str());
        const std::vector<std::string> champsim_paths =
            trace_io::writeChampSim(trace, base + ".champsim");
        if (champsim_paths.empty())
            stms_fatal("synth_vs_ingest: cannot write ChampSim "
                       "export under '%s'",
                       base.c_str());

        auto make_spec = [&](const char *id) {
            RunSpec spec;
            spec.id = id;
            spec.workload = workload;
            spec.records = records;
            spec.config.sim = defaultSimConfig(false);
            spec.config.stms.emplace();
            // No warmup barrier: see file comment.
            spec.config.warmupFraction = 0.0;
            return spec;
        };

        std::vector<RunSpec> specs;
        specs.push_back(make_spec("direct"));

        RunSpec native = make_spec("native");
        native.ingest.emplace();
        native.ingest->chunkRecords = chunk;
        native.ingest->inputs.push_back(
            {native_path, trace_io::TraceFormat::Native});
        specs.push_back(std::move(native));

        RunSpec champsim = make_spec("champsim");
        champsim.ingest.emplace();
        champsim.ingest->chunkRecords = chunk;
        for (const std::string &path : champsim_paths) {
            champsim.ingest->inputs.push_back(
                {path, trace_io::TraceFormat::ChampSim});
        }
        specs.push_back(std::move(champsim));
        return specs;
    }

    Report
    report(const Options &, const RunSet &runs) const override
    {
        // Every scalar the result store keeps, matched by position:
        // a name that differs between paths (a sparse key present in
        // one only) is a mismatch too.
        using Scalars = std::vector<std::pair<std::string, double>>;
        const Scalars direct = results::encodeRunOutput(runs.at("direct"));
        const Scalars native = results::encodeRunOutput(runs.at("native"));
        const Scalars champsim =
            results::encodeRunOutput(runs.at("champsim"));
        const std::size_t compared =
            std::max({direct.size(), native.size(), champsim.size()});
        auto entry = [](const Scalars &scalars, std::size_t i) {
            return i < scalars.size()
                       ? scalars[i]
                       : std::pair<std::string, double>("-", NAN);
        };

        Report out(name());
        Table table(
            {"scalar", "direct", "native", "champsim", "match"});
        std::uint64_t mismatches = 0;
        for (std::size_t i = 0; i < compared; ++i) {
            const auto d = entry(direct, i);
            const auto n = entry(native, i);
            const auto c = entry(champsim, i);
            const bool match = d == n && d == c;
            mismatches += match ? 0 : 1;
            table.addRow({d.first, Table::num(d.second, 6),
                          Table::num(n.second, 6),
                          Table::num(c.second, 6),
                          match ? "yes" : "NO"});
        }
        out.addTable("Synthetic generation vs round-tripped "
                     "ingestion (exact equality)",
                     std::move(table));
        out.addMetric("compared", static_cast<double>(compared));
        out.addMetric("mismatches",
                      static_cast<double>(mismatches));
        out.addNote(mismatches == 0
                        ? "All scalars bit-identical across direct, "
                          "native, and ChampSim paths."
                        : "MISMATCH: ingestion is not metric-"
                          "equivalent to direct generation.");

        // Best-effort scratch cleanup; a replan recreates the files.
        std::error_code ec;
        std::filesystem::remove_all(scratchDir(), ec);
        return out;
    }
};

} // namespace

std::unique_ptr<Experiment>
makeSynthVsIngest()
{
    return std::make_unique<SynthVsIngest>();
}

} // namespace stms::driver
