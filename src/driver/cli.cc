#include "driver/cli.hh"

#include <cstdio>
#include <cstdint>

#include "common/log.hh"
#include "driver/registry.hh"
#include "driver/results_cli.hh"
#include "driver/runner.hh"
#include "results/store.hh"
#include "telemetry/sampler.hh"
#include "telemetry/trace_writer.hh"

namespace stms::driver
{

namespace
{

const char kUsage[] =
    "usage: driver [--list] [--experiment NAME]... [--threads N]\n"
    "              [--pipeline] [--pipeline-chunk N]\n"
    "              [--trace-cache-mb N] [--mem-backend SPEC]\n"
    "              [--trace PATH[,format=...]]...\n"
    "              [--json PATH|-] [--no-timing] [--store DIR]\n"
    "              [--rerun] [--shard I/N] [--results CMD]\n"
    "              [--baseline PATH] [--csv] [--verbose]\n"
    "              [--trace-out FILE] [--sample-every N]\n"
    "              [--log-level LEVEL] [--progress|--no-progress]\n"
    "              [key=value]...\n"
    "\n"
    "  --list            list registered experiments and exit\n"
    "  --experiment NAME run NAME (repeatable; 'all' runs everything)\n"
    "  --threads N       worker threads for independent runs "
    "(default 1;\n"
    "                    0 = auto-detect hardware concurrency; "
    "results are\n"
    "                    bit-identical to serial for every N)\n"
    "  --pipeline        stage-pipelined scheduling: trace "
    "generation for\n"
    "                    run k+1 overlaps simulation of run k over "
    "bounded\n"
    "                    queues (results stay bit-identical to "
    "serial)\n"
    "  --pipeline-chunk N  records per streamed chunk in the "
    "pipelined\n"
    "                    schedule (default 8192); bounds pipeline "
    "residency\n"
    "                    to O(lanes x N) records per run — model "
    "output is\n"
    "                    byte-identical for every N\n"
    "  --trace-cache-mb N  bound the synthetic-trace cache to N MiB "
    "(LRU\n"
    "                    eviction of unpinned traces; 0 = no "
    "caching;\n"
    "                    default unbounded); evicted traces "
    "regenerate\n"
    "                    bit-identically on demand\n"
    "  --mem-backend SPEC  memory timing model: "
    "NAME[,key=val...] with NAME\n"
    "                    in fixed|queued|dram (e.g. 'queued,channels=4',\n"
    "                    'dram,policy=closed'); the default 'fixed' is\n"
    "                    canonicalized away so existing fingerprints "
    "stay\n"
    "                    stable; other specs join the result-store\n"
    "                    fingerprint (experiments that sweep backends\n"
    "                    themselves pin each run and ignore the flag)\n"
    "  --trace SPEC      ingest an on-disk trace: "
    "PATH[,format=native|champsim]\n"
    "                    (repeatable: each ChampSim file is one "
    "core's lane;\n"
    "                    consumed by ingest_replay and friends, see "
    "--list)\n"
    "  --json PATH       write structured results to PATH "
    "('-' = JSON only\n"
    "                    on stdout, suppressing the text report); "
    "writes are\n"
    "                    atomic (temp file + rename); includes a "
    "'timing' key\n"
    "                    (wall clock + per-run stage timings) that "
    "never joins\n"
    "                    store fingerprints or snapshot diffs\n"
    "  --no-timing       omit the timing key (timing is wall-clock "
    "noise;\n"
    "                    determinism gates byte-compare timing-free "
    "reports)\n"
    "  --store DIR       archive completed runs in the result store "
    "at DIR:\n"
    "                    exact-fingerprint duplicates are skipped and\n"
    "                    interrupted sweeps resume (docs/RESULTS.md)\n"
    "  --rerun           execute and append even when the store "
    "already\n"
    "                    holds the configuration's fingerprint\n"
    "  --shard I/N       execute only shard I of N (1-based; "
    "partitioned\n"
    "                    by run fingerprint; requires --store; "
    "suppresses\n"
    "                    the report — merge stores, then rerun "
    "without\n"
    "                    --shard to fold the archived runs)\n"
    "  --results CMD     store maintenance instead of simulation:\n"
    "                    list | show FP | diff [BEFORE AFTER] | gc\n"
    "                    (diff defaults to --baseline vs --store;\n"
    "                    tolerances: abs_tol=, rel_tol=, "
    "tol.<metric>=REL)\n"
    "  --baseline PATH   the 'before' snapshot for --results diff "
    "(a store\n"
    "                    directory or a records .jsonl file)\n"
    "  --csv             print tables as CSV instead of aligned text\n"
    "  --verbose         shorthand for --log-level debug\n"
    "  --trace-out FILE  write a Perfetto/chrome://tracing JSON trace "
    "of the\n"
    "                    sweep (run lifecycles, pipeline stage spans, "
    "queue\n"
    "                    and cache counter tracks); never perturbs "
    "model\n"
    "                    output (docs/OBSERVABILITY.md)\n"
    "  --sample-every N  snapshot simulator counters every N accessed\n"
    "                    cycles into per-run time series under the "
    "report's\n"
    "                    timing key (0 = off; excluded from "
    "fingerprints\n"
    "                    and snapshot diffs; render with\n"
    "                    tools/telemetry_report.py)\n"
    "  --log-level LEVEL stderr verbosity: error|warn|info|debug\n"
    "                    (default warn)\n"
    "  --progress        live sweep progress line on stderr (default: "
    "only\n"
    "                    when stderr is a TTY; --no-progress forces "
    "off)\n"
    "  key=value         experiment options (e.g. records=65536, "
    "chunk=4096);\n"
    "                    a key no selected experiment reads is an "
    "error\n";

/** Parse a number flag's value (digits only) into @p field. */
template <typename T>
bool
setNumber(const std::string &value, std::uint64_t min, std::uint64_t max,
          T &field, std::string &error, const char *message)
{
    std::uint64_t parsed = 0;
    if (!parseBounded(value, min, max, parsed)) {
        error = message;
        return false;
    }
    field = static_cast<T>(parsed);
    return true;
}

/** Append one --trace spec to the joined "trace" option the
 *  experiments consume (';'-separated, see trace_io::parseIngestSpec). */
void
appendTraceSpec(Options &options, const std::string &spec)
{
    const std::string existing = options.get("trace", "");
    options.set("trace",
                existing.empty() ? spec : existing + ";" + spec);
}

/**
 * Apply --mem-backend: validate + canonicalize the spec, then flow it
 * to the experiments as the "mem-backend" option. The plain fixed
 * backend IS the legacy memory model, so it is canonicalized away —
 * `--mem-backend fixed` fingerprints (and outputs) byte-identically
 * to not passing the flag, keeping every archived record reachable.
 */
bool
applyMemBackend(const std::string &value, DriverArgs &args,
                std::string &error)
{
    MemBackendSpec spec;
    if (!parseMemBackendSpec(value, spec, error))
        return false;
    if (!spec.isDefault())
        args.options.set("mem-backend", spec.canonical());
    return true;
}

/**
 * Parse "I/N" (1 <= I <= N) into the shard fields. Strict: both
 * numbers are decimal digits only and fit the 32-bit fields ("2x/4",
 * "+1/4" or "1/4junk" silently running the wrong partition would
 * break the disjoint+complete guarantee a multi-machine sweep relies
 * on).
 */
bool
parseShard(const std::string &text, DriverArgs &args,
           std::string &error)
{
    const std::size_t slash = text.find('/');
    std::uint64_t index = 0;
    std::uint64_t count = 0;
    if (slash != std::string::npos &&
        parseBounded(text.substr(0, slash), 1, UINT32_MAX, index) &&
        parseBounded(text.substr(slash + 1), index, UINT32_MAX, count)) {
        args.shardIndex = static_cast<std::uint32_t>(index);
        args.shardCount = static_cast<std::uint32_t>(count);
        return true;
    }
    error = "--shard needs I/N with 1 <= I <= N";
    return false;
}

using ApplyValue = bool (*)(const std::string &value, DriverArgs &args,
                            std::string &error);

/** A value flag that stores its value verbatim. */
template <std::string DriverArgs::*Field>
bool
setString(const std::string &value, DriverArgs &args, std::string &)
{
    args.*Field = value;
    return true;
}

/** A flag that takes a value: --NAME V, --NAME=V, -ALIAS V, -ALIAS=V. */
struct ValueFlag
{
    const char *name;
    const char *alias;  ///< nullptr: no short spelling.
    ApplyValue apply;
};

const ValueFlag kValueFlags[] = {
    {"experiment", "e",
     [](const std::string &v, DriverArgs &a, std::string &) {
         a.experiments.push_back(v);
         return true;
     }},
    // 0 is the auto spelling (hardware_concurrency() at run time);
    // the resolved count is reported in the timing metadata and never
    // joins fingerprints, so stored results stay
    // thread-count-independent.
    {"threads", "j",
     [](const std::string &v, DriverArgs &a, std::string &e) {
         return setNumber(v, 0, 4096, a.threads, e,
                          "--threads needs an integer in [0, 4096] "
                          "(0 = auto-detect)");
     }},
    // Strictly positive: a zero chunk could never make progress (0 as
    // "default" stays an internal RunnerConfig spelling). 2^30
    // records is ~16 GiB of chunk, far beyond any real use.
    {"pipeline-chunk", nullptr,
     [](const std::string &v, DriverArgs &a, std::string &e) {
         return setNumber(v, 1, 1ULL << 30, a.pipelineChunk, e,
                          "--pipeline-chunk needs an integer in "
                          "[1, 2^30]");
     }},
    {"trace-cache-mb", nullptr,
     [](const std::string &v, DriverArgs &a, std::string &e) {
         return setNumber(v, 0, 1ULL << 24, a.traceCacheMb, e,
                          "--trace-cache-mb needs an integer in "
                          "[0, 2^24]");
     }},
    // The epoch steers observation only: it flows through
    // RunnerConfig (never Options), so it cannot join result-store
    // fingerprints or change model output.
    {"sample-every", nullptr,
     [](const std::string &v, DriverArgs &a, std::string &e) {
         return setNumber(v, 0, 1ULL << 40, a.sampleEvery, e,
                          "--sample-every needs an integer in "
                          "[0, 2^40] (0 = off)");
     }},
    {"log-level", nullptr,
     [](const std::string &v, DriverArgs &a, std::string &e) {
         LogLevel level = LogLevel::Warn;
         if (!parseLogLevel(v, level)) {
             e = "--log-level needs error|warn|info|debug";
             return false;
         }
         a.logLevel = static_cast<int>(level);
         return true;
     }},
    {"mem-backend", nullptr, applyMemBackend},
    {"trace", nullptr,
     [](const std::string &v, DriverArgs &a, std::string &) {
         appendTraceSpec(a.options, v);
         return true;
     }},
    {"json", nullptr, setString<&DriverArgs::jsonPath>},
    {"store", nullptr, setString<&DriverArgs::storePath>},
    {"baseline", nullptr, setString<&DriverArgs::baselinePath>},
    {"shard", nullptr, parseShard},
    {"results", nullptr, setString<&DriverArgs::resultsCmd>},
    {"trace-out", nullptr, setString<&DriverArgs::traceOutPath>},
};

/** A flag that takes no value: --NAME or -ALIAS. */
struct Switch
{
    const char *name;
    const char *alias;  ///< nullptr: no short spelling.
    void (*apply)(DriverArgs &args);
};

const Switch kSwitches[] = {
    {"help", "h", [](DriverArgs &a) { a.help = true; }},
    {"list", nullptr, [](DriverArgs &a) { a.list = true; }},
    {"csv", nullptr, [](DriverArgs &a) { a.csv = true; }},
    {"verbose", "v", [](DriverArgs &a) { a.verbose = true; }},
    {"rerun", nullptr, [](DriverArgs &a) { a.rerun = true; }},
    {"pipeline", nullptr, [](DriverArgs &a) { a.pipeline = true; }},
    {"no-timing", nullptr, [](DriverArgs &a) { a.timing = false; }},
    {"progress", nullptr,
     [](DriverArgs &a) { a.progress = telemetry::ProgressMode::On; }},
    {"no-progress", nullptr,
     [](DriverArgs &a) { a.progress = telemetry::ProgressMode::Off; }},
};

/** The entry of @p table spelled @p key (a name or an alias). */
template <typename Flag, std::size_t N>
const Flag *
findFlag(const Flag (&table)[N], const std::string &key)
{
    for (const Flag &flag : table)
        if (key == flag.name || (flag.alias && key == flag.alias))
            return &flag;
    return nullptr;
}

/** Fold runner ExecStats into the report's timing metadata. */
ReportTiming
makeReportTiming(const ExecStats &stats)
{
    ReportTiming timing;
    timing.present = true;
    timing.wallSeconds = stats.wallSeconds;
    timing.acquireSeconds = stats.acquireSeconds;
    timing.simulateSeconds = stats.simulateSeconds;
    timing.encodeSeconds = stats.encodeSeconds;
    timing.threads = stats.threadsResolved;
    timing.pipelined = stats.pipelined;
    timing.records = stats.recordsProcessed;
    timing.recordsPerSecond = stats.recordsPerSecond();
    timing.peakRssKb = peakRssKb();
    timing.chunkRecords = stats.chunkRecords;
    timing.peakResidentChunks = stats.peakResidentChunks;
    timing.sampleEvery = stats.sampleEvery;
    timing.sampleColumns = stats.sampleColumns;
    timing.runs = stats.runs;
    return timing;
}

void
printList(const ExperimentRegistry &registry)
{
    std::printf("registered experiments:\n");
    for (const Experiment *experiment : registry.all()) {
        std::printf("  %-16s %s\n", experiment->name().c_str(),
                    experiment->description().c_str());
    }
}

/** Render one report in the selected human format. */
void
printReport(const Report &report, bool csv)
{
    if (!csv) {
        std::fputs(report.toText().c_str(), stdout);
        return;
    }
    for (const auto &entry : report.tables()) {
        if (!entry.title.empty())
            std::printf("# %s\n", entry.title.c_str());
        std::fputs(entry.table.toCsv().c_str(), stdout);
    }
}

bool
writeJson(const std::string &path, const std::string &payload)
{
    if (path == "-") {
        std::fputs(payload.c_str(), stdout);
        return true;
    }
    // Atomic: an interrupted run must never leave a truncated JSON
    // file that downstream json.load() chokes on.
    return results::atomicWriteFile(path, payload);
}

/**
 * Owns the process-wide TraceSink for one driver invocation.
 * Installs on construction (when a path was given) and guarantees
 * uninstall-then-close on every exit path; finish() reports write
 * failures on the success paths.
 */
class TraceSinkGuard
{
  public:
    explicit TraceSinkGuard(const std::string &path)
    {
        if (path.empty())
            return;
        sink_ = std::make_unique<telemetry::TraceSink>(path);
        telemetry::installTraceSink(sink_.get());
    }

    ~TraceSinkGuard()
    {
        if (!sink_)
            return;
        // Error-path teardown: still write what was captured (a
        // partial trace of a failed sweep is exactly when you want
        // one), but swallow I/O errors — the run already failed.
        telemetry::installTraceSink(nullptr);
        std::string error;
        sink_->close(error);
        sink_.reset();
    }

    /** Close + write the trace; false (with a message) on failure. */
    bool
    finish()
    {
        if (!sink_)
            return true;
        telemetry::installTraceSink(nullptr);
        std::string error;
        const bool ok = sink_->close(error);
        if (!ok)
            logRaw(error + "\n");
        else
            stms_inform("trace written to %s", sink_->path().c_str());
        sink_.reset();
        return ok;
    }

  private:
    std::unique_ptr<telemetry::TraceSink> sink_;
};

int
runExperiments(const DriverArgs &args)
{
    const ExperimentRegistry &registry = ExperimentRegistry::global();

    std::vector<const Experiment *> selected;
    for (const std::string &name : args.experiments) {
        if (name == "all") {
            selected = registry.all();
            break;
        }
        const Experiment *experiment = registry.find(name);
        if (!experiment) {
            logRaw("unknown experiment '" + name + "'\n\n");
            printList(registry);
            return 1;
        }
        selected.push_back(experiment);
    }

    // Plan every selected experiment before anything runs: a key=value
    // option that no plan read would change nothing but the store
    // fingerprint, so it is rejected before any simulation or store
    // write. Reads made while parsing the command line do not count.
    Options options = args.options;
    options.forgetReads();
    std::vector<std::vector<RunSpec>> plans;
    plans.reserve(selected.size());
    for (const Experiment *experiment : selected)
        plans.push_back(
            planRuns(*experiment, options, args.sampleEvery));
    if (options.reportUnread("no selected experiment reads it"))
        return 1;

    std::unique_ptr<results::ResultStore> store;
    if (!args.storePath.empty()) {
        std::string error;
        store = results::ResultStore::open(args.storePath, error);
        if (!store) {
            logRaw("--store: " + error + "\n");
            return 1;
        }
    }

    if (args.traceCacheMb != DriverArgs::kCacheUnset) {
        globalTraceCache().setCapacity(args.traceCacheMb *
                                       (1ULL << 20));
    }

    TraceSinkGuard trace_sink(args.traceOutPath);

    RunnerConfig runner_config;
    runner_config.threads = args.threads;
    runner_config.pipeline = args.pipeline;
    runner_config.pipelineChunkRecords = args.pipelineChunk;
    runner_config.sampleEvery = args.sampleEvery;
    runner_config.progress = args.progress;
    runner_config.store = store.get();
    runner_config.rerun = args.rerun;
    runner_config.shardIndex = args.shardIndex;
    runner_config.shardCount = args.shardCount;
    ExperimentRunner runner(globalTraceCache(), runner_config);

    // Shard mode archives runs without reporting: report() needs the
    // whole plan, and this invocation deliberately executes a slice.
    if (args.shardCount > 0) {
        for (std::size_t i = 0; i < selected.size(); ++i) {
            const Experiment *experiment = selected[i];
            ExecStats stats;
            runner.execute(*experiment, options, std::move(plans[i]),
                           &stats);
            stms_inform("[%s] shard %u/%u: %zu of %zu runs "
                        "(%zu resumed, %zu other-shard)",
                        experiment->name().c_str(), args.shardIndex,
                        args.shardCount, stats.executed,
                        stats.planned, stats.resumed, stats.sharded);
        }
        return trace_sink.finish() ? 0 : 1;
    }

    // With --json -, stdout carries the JSON payload alone; the
    // human rendering would interleave and break json.load().
    const bool json_on_stdout = args.jsonPath == "-";

    std::vector<std::string> json_reports;
    for (std::size_t i = 0; i < selected.size(); ++i) {
        const Experiment &experiment = *selected[i];
        ExecStats stats;
        Report report = experiment.report(
            options,
            runner.execute(experiment, options, std::move(plans[i]),
                           &stats));
        if (args.timing)
            report.setTiming(makeReportTiming(stats));
        if (store) {
            stms_inform("[%s] store: %zu of %zu runs resumed, %zu "
                        "executed",
                        experiment.name().c_str(), stats.resumed,
                        stats.planned, stats.executed);
            results::ResultRecord record =
                makeExperimentRecord(experiment, options, report);
            if (store->append(record, args.rerun)) {
                stms_inform("[%s] store: recorded %s",
                            experiment.name().c_str(),
                            record.fingerprint.hex().c_str());
            } else {
                stms_inform("[%s] store: %s already recorded "
                            "(--rerun to append again)",
                            experiment.name().c_str(),
                            record.fingerprint.hex().c_str());
            }
        }
        if (!json_on_stdout) {
            if (i > 0)
                std::printf("\n");
            printReport(report, args.csv);
        }
        if (!args.jsonPath.empty())
            json_reports.push_back(report.toJson());
    }

    if (!args.jsonPath.empty()) {
        // A single experiment writes a bare object; several write an
        // array. Downstream json.load() handles either shape.
        std::string payload;
        if (json_reports.size() == 1) {
            payload = json_reports[0];
        } else {
            payload = "[\n";
            for (std::size_t i = 0; i < json_reports.size(); ++i) {
                if (i > 0)
                    payload += ",\n";
                payload += json_reports[i];
            }
            payload += "]\n";
        }
        if (!writeJson(args.jsonPath, payload)) {
            logRaw("failed to write '" + args.jsonPath + "'\n");
            return 1;
        }
    }
    return trace_sink.finish() ? 0 : 1;
}

/**
 * Apply the parsed telemetry/logging globals. --verbose is the
 * legacy debug spelling; an explicit --log-level wins over it.
 * Sampling flows through the process-wide telemetry global so nested
 * runners (perf_suite's inner sweeps) inherit the flag.
 */
void
applyTelemetryGlobals(const DriverArgs &args)
{
    if (args.logLevel != DriverArgs::kLogUnset)
        setLogLevel(static_cast<LogLevel>(args.logLevel));
    else if (args.verbose)
        setLogLevel(LogLevel::Debug);
    telemetry::setGlobalSampleEvery(args.sampleEvery);
}

} // namespace

bool
parseDriverArgs(int argc, char **argv, DriverArgs &args,
                std::string &error)
{
    for (int i = 1; i < argc; ++i) {
        const std::string token = argv[i];

        // The driver's own flags, with one or two dashes and either
        // value spelling. A --flag=value that is not one of them
        // falls through to the key=value option store below; one
        // that is must never do so ("--threads=8" silently becoming
        // the experiment option threads=8, or "--csv=1" becoming
        // csv=1).
        if (token.size() > 1 && token[0] == '-') {
            const std::size_t start = token[1] == '-' ? 2 : 1;
            const std::size_t eq = token.find('=');
            const std::string key = token.substr(
                start, eq == std::string::npos ? eq : eq - start);
            if (const ValueFlag *flag = findFlag(kValueFlags, key)) {
                std::string value;
                if (eq != std::string::npos) {
                    value = token.substr(eq + 1);
                } else if (i + 1 < argc) {
                    value = argv[++i];
                } else {
                    error = std::string("--") + flag->name +
                            " needs a value";
                    return false;
                }
                if (!flag->apply(value, args, error))
                    return false;
                continue;
            }
            if (const Switch *flag = findFlag(kSwitches, key)) {
                if (eq != std::string::npos) {
                    error = "--" + key + " does not take a value";
                    return false;
                }
                flag->apply(args);
                continue;
            }
        }

        if (args.options.parseToken(token)) {
            // key=value (or --key=value) passthrough.
        } else if (!args.resultsCmd.empty() && !token.empty() &&
                   token[0] != '-') {
            // Bare operands belong to the --results subcommand
            // (snapshot paths for diff, a fingerprint for show).
            args.resultsArgs.push_back(token);
        } else {
            error = "unrecognized argument '" + token + "'";
            return false;
        }
    }

    if (args.shardCount > 0 && args.storePath.empty() &&
        args.resultsCmd.empty()) {
        error = "--shard requires --store (sharded runs exist only "
                "as store records)";
        return false;
    }
    return true;
}

int
driverMain(int argc, char **argv)
{
    DriverArgs args;
    std::string error;
    if (!parseDriverArgs(argc, argv, args, error)) {
        logRaw(error + "\n" + kUsage);
        return 1;
    }
    if (args.help) {
        std::fputs(kUsage, stdout);
        return 0;
    }
    applyTelemetryGlobals(args);
    if (args.list) {
        printList(ExperimentRegistry::global());
        return 0;
    }
    if (!args.resultsCmd.empty())
        return runResultsMode(args);
    if (args.experiments.empty()) {
        logRaw(std::string("no experiment selected\n\n") + kUsage);
        printList(ExperimentRegistry::global());
        return 1;
    }
    return runExperiments(args);
}

} // namespace stms::driver
