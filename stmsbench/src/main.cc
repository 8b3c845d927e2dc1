/**
 * @file
 * stmsbench — one benchmark invocation.
 *
 *   stmsbench --workload coverage|timing --seed N
 *             --seconds S --trace 0|1 [--work-dir DIR]
 *
 * Writes the seeded traces under DIR, then either
 *
 *  --trace 0  runs the workload's plan through driver::ExperimentRunner
 *             once, repeats its runs for the rest of S seconds, and
 *             reports the end-to-end metrics, or
 *  --trace 1  runs the plan untraced through the pipelined scheduler
 *             (on coverage also serially, to check it against) and
 *             once traced (timing decorators around every layer call)
 *             and reports the per-layer metrics; spans go to
 *             DIR/spans-<workload>.tsv.
 *
 * Human-readable lines come first; the last stdout line is one JSON
 * object {"correct", "attempted", "failed", "metrics"}. See README.md.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"
#include "common/log.hh"

namespace
{

using namespace stmsbench;
using stms::driver::RunSpec;
using Clock = std::chrono::steady_clock;

/** Trace set-ups per invocation; setup_s is their median. */
constexpr int kSetupRepeats = 5;

/**
 * Largest share of the traced runs' wall time the run spans may miss.
 * The wall clock is read around each runTraced() call, and the root
 * span opens and closes just inside it.
 */
constexpr double kSpanWallTolerance = 0.01;

struct Args
{
    Workload workload = Workload::Coverage;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string workDir = ".bench_build/stmsbench-work";
};

[[noreturn]] void
usage(const char *message)
{
    std::fprintf(stderr,
                 "stmsbench: %s\nusage: stmsbench --workload "
                 "coverage|timing --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR]\n",
                 message);
    std::exit(2);
}

bool
parseUint(const char *text, std::uint64_t &out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
        return false;
    out = value;
    return true;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        std::uint64_t number = 0;
        if (flag == "--workload") {
            if (!parseWorkload(value, args.workload))
                usage("unknown workload");
            have_workload = true;
        } else if (flag == "--seed") {
            if (!parseUint(value, args.seed))
                usage("bad --seed");
        } else if (flag == "--seconds") {
            if (!parseUint(value, number) || number == 0)
                usage("bad --seconds");
            args.seconds = static_cast<double>(number);
        } else if (flag == "--trace") {
            if (!parseUint(value, number) || number > 1)
                usage("bad --trace");
            args.trace = number == 1;
        } else if (flag == "--work-dir") {
            args.workDir = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return args;
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n == 0)
        return 0;
    return n % 2 ? values[n / 2]
                 : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double
ratio(double num, double den)
{
    return den == 0 ? 0.0 : num / den;
}

std::string
hex(std::uint64_t value)
{
    char text[17];
    std::snprintf(text, sizeof(text), "%016llx",
                  static_cast<unsigned long long>(value));
    return text;
}

/** Failure and output-check accounting across an invocation. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t checkFailures = 0;
    std::vector<std::string> notes;

    /**
     * Account one run of @p spec over @p total trace records: it fails
     * when it is truncated, when a core of it did not finish
     * (@p coreDone false), or when (given @p reference) its output
     * differs from the reference run's. Differing output, and a failed
     * run that failureIsFault() marks, are also output-check failures.
     */
    void
    account(const char *phase, const RunSpec &spec, std::uint64_t total,
            const stms::RunOutput &output,
            const stms::RunOutput *reference, bool coreDone = true)
    {
        ++attempted;
        bool bad = false;
        if (!coreDone) {
            bad = true;
            note(phase, spec.id, "a core did not finish");
        }
        if (runTruncated(output, total, spec.config.warmupFraction)) {
            bad = true;
            note(phase, spec.id,
                 "truncated: " + std::to_string(output.sim.mem.accesses) +
                     " of " +
                     std::to_string(measuredWindow(
                         total, spec.config.warmupFraction)) +
                     " measured-window accesses");
        }
        if (bad && failureIsFault(spec)) {
            ++checkFailures;
            note(phase, spec.id, "functional run did not finish");
        }
        if (reference &&
            digestRun(spec.id, output, stms::kFnv1aOffset) !=
                digestRun(spec.id, *reference, stms::kFnv1aOffset)) {
            bad = true;
            ++checkFailures;
            note(phase, spec.id, "output differs from reference");
        }
        failed += bad ? 1 : 0;
    }

    /** account() for every run of one execution of @p plan. */
    void
    accountPlan(const char *phase, const std::vector<RunSpec> &plan,
                const std::vector<std::uint64_t> &totals,
                const std::vector<stms::RunOutput> &outputs,
                const std::vector<stms::RunOutput> *reference,
                const std::vector<bool> *coresDone = nullptr)
    {
        for (std::size_t i = 0; i < plan.size(); ++i)
            account(phase, plan[i], totals[i], outputs[i],
                    reference ? &(*reference)[i] : nullptr,
                    coresDone ? (*coresDone)[i] : true);
    }

    void
    note(const char *phase, const std::string &id, const std::string &what)
    {
        notes.push_back(std::string(phase) + " " + id + ": " + what);
    }
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
number(double value)
{
    if (!std::isfinite(value))
        return "0";
    char text[40];
    std::snprintf(text, sizeof(text), "%.17g", value);
    return text;
}

void
emit(const Tally &tally, const std::vector<Metric> &metrics)
{
    for (const Metric &metric : metrics)
        std::printf("metric %-32s %-22s %s\n", metric.name.c_str(),
                    number(metric.value).c_str(), metric.unit.c_str());
    std::string json = "{\"correct\": ";
    json += tally.checkFailures == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(tally.attempted);
    json += ", \"failed\": " + std::to_string(tally.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        json += i ? ", " : "";
        json += "\"" + metrics[i].name + "\": {\"value\": " +
                number(metrics[i].value) + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

/**
 * One line per STMS run with its coverage, so a workload whose trace
 * is too short for its streams to recur shows as 0 by name.
 */
void
printCoverage(const std::vector<RunSpec> &plan,
              const std::vector<stms::RunOutput> &outputs)
{
    for (std::size_t i = 0; i < plan.size(); ++i)
        if (plan[i].config.stms)
            std::printf("stms_coverage %s %.4f\n", plan[i].id.c_str(),
                        outputs[i].stmsCoverage);
}

/** A fresh, empty result store at @p dir. */
std::unique_ptr<stms::results::ResultStore>
freshStore(const std::string &dir)
{
    std::filesystem::remove_all(dir);
    std::string error;
    auto store = stms::results::ResultStore::open(dir, error);
    if (!store)
        stms_fatal("result store %s: %s", dir.c_str(), error.c_str());
    return store;
}

/** Sums of the model counters the per-layer metrics report. */
struct ModelCounts
{
    std::uint64_t accesses = 0, l2Hits = 0, offchipReads = 0;
    std::uint64_t lookups = 0, lookupHits = 0, logged = 0;
    std::uint64_t followed = 0, consumed = 0, stale = 0;
    std::uint64_t issued = 0, covering = 0, erroneous = 0;
    std::uint64_t demandBytes = 0, metaBytes = 0;
    double utilCycles = 0, cycles = 0;

    void
    add(const stms::RunOutput &out)
    {
        using stms::TrafficClass;
        const auto &traffic = out.sim.traffic;
        accesses += out.sim.mem.accesses;
        l2Hits += out.sim.mem.l2Hits;
        offchipReads += out.sim.mem.offchipReads;
        lookups += out.stmsInternal.lookups;
        lookupHits += out.stmsInternal.lookupHits;
        logged += out.stmsInternal.logged;
        followed += out.stmsInternal.followed;
        consumed += out.stmsInternal.consumed;
        stale += out.stmsInternal.stalePointers;
        issued += out.stms.issued;
        covering += out.stms.useful + out.stms.partial;
        erroneous += out.stms.erroneous;
        demandBytes += traffic.bytesFor(TrafficClass::DemandRead) +
                       traffic.bytesFor(TrafficClass::DemandWriteback);
        metaBytes += traffic.bytesFor(TrafficClass::MetaRecord) +
                     traffic.bytesFor(TrafficClass::MetaUpdate) +
                     traffic.bytesFor(TrafficClass::MetaLookup);
        utilCycles +=
            out.sim.memUtilization * static_cast<double>(out.sim.cycles);
        cycles += static_cast<double>(out.sim.cycles);
    }
};

int
run(const Args &args)
{
    const std::string trace_dir = args.workDir + "/traces";
    std::filesystem::create_directories(trace_dir);
    const char *name = workloadName(args.workload);
    const std::uint64_t records = recordsPerCore(args.workload);
    const std::vector<RunSpec> plan =
        buildPlan(args.workload, records, trace_dir);

    std::printf("stmsbench workload=%s seed=%llu seconds=%g trace=%d "
                "runs=%zu records/core=%llu\n",
                name, static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace ? 1 : 0, plan.size(),
                static_cast<unsigned long long>(records));
    std::printf("host %s\n", hostFingerprint().c_str());

    // --- set-up: generate + encode the seeded traces, several times.
    std::vector<double> setup_s, generate_s, encode_s;
    std::uint64_t setup_records = 0;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        const SetupTimes times = writeTraces(
            planWorkloads(plan), args.seed, records, trace_dir);
        setup_s.push_back(times.total());
        generate_s.push_back(times.generateSeconds);
        encode_s.push_back(times.encodeSeconds);
        setup_records = times.records;
    }
    std::printf("setup %zu traces, %llu records: %.3f s median of %d "
                "(generate %.3f s, encode %.3f s)\n",
                planWorkloads(plan).size(),
                static_cast<unsigned long long>(setup_records),
                median(setup_s), kSetupRepeats, median(generate_s),
                median(encode_s));

    std::vector<std::uint64_t> totals;
    for (const RunSpec &spec : plan)
        totals.push_back(specRecords(spec));

    Tally tally;
    std::vector<Metric> metrics;
    const std::string store_dir = args.workDir + "/store";

    if (!args.trace) {
        // Pass 0 runs every plan point once: its outputs are the
        // reference and its failures give completed_share. Later passes
        // repeat the points in plan order until --seconds, each checked
        // against pass 0. Every point is timed on its own, and
        // records_per_s divides the plan's records by the sum of the
        // points' median times, so a slow spell of the host shorter
        // than a pass moves one sample of a point, not the whole figure.
        const bool rss_isolated = stms::driver::resetPeakRss();
        double peak_mb = 0;
        std::vector<stms::RunOutput> reference(plan.size());
        std::vector<std::vector<double>> run_s(plan.size());
        std::vector<std::uint64_t> run_records(plan.size());
        std::uint64_t plan_failed = 0;
        const Clock::time_point start = Clock::now();
        bool more = true;
        for (int pass = 0; more; ++pass) {
            const Clock::time_point pass_start = Clock::now();
            std::size_t ran = 0;
            for (std::size_t i = 0; i < plan.size(); ++i) {
                if (pass > 0 && secondsSince(start) + median(run_s[i]) >
                                    args.seconds) {
                    more = false;
                    break;
                }
                Execution exec = executePlan({plan[i]}, 1, nullptr);
                run_s[i].push_back(exec.wallSeconds);
                run_records[i] = exec.stats.recordsProcessed;
                tally.account(pass == 0 ? "measured" : "repeated", plan[i],
                              totals[i], exec.outputs[0],
                              pass == 0 ? nullptr : &reference[i]);
                if (pass == 0)
                    reference[i] = std::move(exec.outputs[0]);
                ++ran;
            }
            if (ran > 0)
                std::printf("pass %d: %zu runs, %.3f s\n", pass, ran,
                            secondsSince(pass_start));
            if (pass == 0) {
                plan_failed = tally.failed;
                peak_mb =
                    static_cast<double>(stms::driver::peakRssKb()) / 1024.0;
                std::printf("model_digest %s %s\n", name,
                            hex(planDigest(plan, reference)).c_str());
                printCoverage(plan, reference);
            }
        }
        double plan_s = 0;
        std::uint64_t plan_records = 0;
        std::size_t samples = 0;
        for (std::size_t i = 0; i < plan.size(); ++i) {
            plan_s += median(run_s[i]);
            plan_records += run_records[i];
            samples += run_s[i].size();
        }
        std::printf("measured %zu timed runs of %zu plan points in %.3f "
                    "s; peak RSS %s\n",
                    samples, plan.size(), secondsSince(start),
                    rss_isolated ? "of the first pass"
                                 : "of the process (reset unsupported)");

        metrics = {
            {"records_per_s", ratio(static_cast<double>(plan_records),
                                    plan_s),
             "records/s"},
            {"peak_rss_mb", peak_mb, "MiB"},
            {"setup_s", median(setup_s), "s"},
            {"completed_share",
             1.0 - ratio(static_cast<double>(plan_failed),
                         static_cast<double>(plan.size())),
             "share"},
        };
    } else {
        // Untraced: on coverage first serially, as --trace 0 runs it,
        // so that the pipelined schedule can be checked against it.
        // The pipelined schedule (with a result store) gives the driver
        // metrics and is the reference of the traced run.
        std::optional<Execution> serial;
        if (args.workload == Workload::Coverage) {
            serial = executePlan(plan, 1, nullptr);
            tally.accountPlan("serial", plan, totals, serial->outputs,
                              nullptr);
        }
        Execution scheduled;
        {
            auto store = freshStore(store_dir);
            scheduled = executePlan(plan, kPipelineWorkers, store.get());
        }
        tally.accountPlan("pipelined", plan, totals, scheduled.outputs,
                          serial ? &serial->outputs : nullptr);
        const std::vector<stms::RunOutput> &reference =
            serial ? serial->outputs : scheduled.outputs;
        printCoverage(plan, reference);

        // Traced run: hand-built systems, every layer call in a span,
        // on as many threads as the pipelined schedule's workers, so
        // that its run spans compare with their simulate seconds.
        struct TracedPoint
        {
            TracedRun run;
            LayerTimes layers;
            std::int64_t wallNs = 0;  ///< Read around runTraced().
        };
        const std::string traced_store_dir = store_dir + "-traced";
        auto store = freshStore(traced_store_dir);
        std::vector<TracedPoint> points(plan.size());
        std::atomic<std::size_t> next{0};
        const Clock::time_point traced_start = Clock::now();
        {
            std::vector<std::jthread> threads;
            for (std::uint32_t w = 0; w < kPipelineWorkers; ++w)
                threads.emplace_back([&] {
                    SpanRecorder spans;
                    for (std::size_t i = next++; i < plan.size();
                         i = next++) {
                        TracedPoint &point = points[i];
                        const std::int64_t start = SpanRecorder::nowNs();
                        point.run = runTraced(plan[i], spans, store.get());
                        point.wallNs = SpanRecorder::nowNs() - start;
                        point.layers = spans.takeFolded();
                    }
                });
        }
        const double traced_s = secondsSince(traced_start);
        std::error_code size_error;
        const auto store_bytes =
            std::filesystem::file_size(store->recordsPath(), size_error);
        const double appended_bytes =
            size_error ? 0.0 : static_cast<double>(store_bytes);
        store.reset();
        std::filesystem::remove_all(traced_store_dir);
        std::filesystem::remove_all(store_dir);

        LayerTimes layers;
        ModelCounts counts;
        std::uint64_t events = 0, chunks = 0, delay_count = 0;
        double delay_sum = 0;
        std::int64_t wall_ns = 0;
        std::vector<stms::RunOutput> traced_outputs;
        std::vector<bool> cores_done;
        std::string span_file =
            "# stmsbench span file: run, layer, calls, self_ns\n# host " +
            hostFingerprint() + "\n# workload " + name + " seed " +
            std::to_string(args.seed) + "\n";
        for (std::size_t i = 0; i < plan.size(); ++i) {
            TracedPoint &point = points[i];
            layers.add(point.layers);
            wall_ns += point.wallNs;
            for (std::size_t l = 0; l < kLayers; ++l) {
                if (point.layers.calls[l] == 0)
                    continue;
                span_file += plan[i].id + "\t" +
                             layerName(static_cast<Layer>(l)) + "\t" +
                             std::to_string(point.layers.calls[l]) + "\t" +
                             std::to_string(point.layers.selfNs[l]) + "\n";
            }
            const TracedRun &traced = point.run;
            cores_done.push_back(traced.coresDone);
            counts.add(traced.output);
            events += traced.events;
            chunks += traced.chunks;
            delay_sum += traced.metaDelaySum;
            delay_count += traced.metaDelayCount;
            traced_outputs.push_back(std::move(point.run.output));
        }
        tally.accountPlan("traced", plan, totals, traced_outputs,
                          &reference, &cores_done);
        for (std::size_t l = 0; l < kLayers; ++l)
            span_file += std::string("ALL\t") +
                         layerName(static_cast<Layer>(l)) + "\t" +
                         std::to_string(layers.calls[l]) + "\t" +
                         std::to_string(layers.selfNs[l]) + "\n";
        span_file += "ALL\tspan.total\t" + std::to_string(plan.size()) +
                     "\t" + std::to_string(layers.rootNs) + "\n";
        span_file += "ALL\tspan.wall\t" + std::to_string(plan.size()) +
                     "\t" + std::to_string(wall_ns) + "\n";
        const std::string span_path =
            args.workDir + "/spans-" + name + ".tsv";
        std::ofstream(span_path) << span_file;

        // The fold makes self times sum to the run spans by
        // construction; the wall clock read around each run checks
        // independently that the run spans cover the traced runs.
        if (layers.selfSum() != layers.rootNs) {
            ++tally.checkFailures;
            tally.note("traced", "*", "layer self times do not sum to "
                                      "the run spans");
        }
        if (!spansCoverWall(layers.rootNs, wall_ns, kSpanWallTolerance)) {
            ++tally.checkFailures;
            tally.note("traced", "*", "run spans of " +
                                          std::to_string(layers.rootNs) +
                                          " ns do not cover the traced "
                                          "runs' wall clock of " +
                                          std::to_string(wall_ns) + " ns");
        }
        const std::string serial_digest =
            serial ? " serial " + hex(planDigest(plan, serial->outputs))
                   : "";
        std::printf("model_digest %s pipelined %s traced %s%s\n", name,
                    hex(planDigest(plan, scheduled.outputs)).c_str(),
                    hex(planDigest(plan, traced_outputs)).c_str(),
                    serial_digest.c_str());
        std::printf("spans %s (self times sum %lld ns of %lld ns run "
                    "spans; wall clock %lld ns)\n",
                    span_path.c_str(),
                    static_cast<long long>(layers.selfSum()),
                    static_cast<long long>(layers.rootNs),
                    static_cast<long long>(wall_ns));
        std::printf("phases: %spipelined %.3f s, traced %.3f s\n",
                    serial ? ("serial " +
                              std::to_string(serial->wallSeconds) + " s, ")
                                 .c_str()
                           : "",
                    scheduled.wallSeconds, traced_s);

        const double total_s = static_cast<double>(layers.rootNs) * 1e-9;
        auto self_s = [&](Layer layer) {
            return static_cast<double>(layers.self(layer)) * 1e-9;
        };
        const stms::driver::ExecStats &ds = scheduled.stats;
        metrics = {
            {"sim.self_s", self_s(Layer::Sim), "s"},
            {"sim.share", ratio(self_s(Layer::Sim), total_s), "share"},
            {"sim.events", static_cast<double>(events), "count"},
            {"sim.ns_per_event",
             ratio(self_s(Layer::Sim) * 1e9, static_cast<double>(events)),
             "ns"},
            {"sim.accesses", static_cast<double>(counts.accesses), "count"},
            {"sim.l2_hits", static_cast<double>(counts.l2Hits), "count"},
            {"sim.offchip_reads", static_cast<double>(counts.offchipReads),
             "count"},
            {"sim.port_s", self_s(Layer::Port), "s"},
            {"core.stms.self_s", self_s(Layer::Stms), "s"},
            {"core.stms.share", ratio(self_s(Layer::Stms), total_s),
             "share"},
            {"core.stms.lookups", static_cast<double>(counts.lookups),
             "count"},
            {"core.stms.lookup_hit_ratio",
             ratio(static_cast<double>(counts.lookupHits),
                   static_cast<double>(counts.lookups)),
             "ratio"},
            {"core.stms.logged", static_cast<double>(counts.logged),
             "count"},
            {"core.stms.followed", static_cast<double>(counts.followed),
             "count"},
            {"core.stms.consumed_ratio",
             ratio(static_cast<double>(counts.consumed),
                   static_cast<double>(counts.followed)),
             "ratio"},
            {"core.stms.stale_pointers", static_cast<double>(counts.stale),
             "count"},
            {"prefetch.stride.self_s", self_s(Layer::Stride), "s"},
            {"prefetch.stms.accuracy",
             ratio(static_cast<double>(counts.covering),
                   static_cast<double>(counts.issued)),
             "ratio"},
            {"prefetch.stms.erroneous", static_cast<double>(counts.erroneous),
             "count"},
            {"mem.demand_bytes", static_cast<double>(counts.demandBytes),
             "bytes"},
            {"mem.meta_bytes", static_cast<double>(counts.metaBytes),
             "bytes"},
            {"mem.utilization", ratio(counts.utilCycles, counts.cycles),
             "share"},
            {"mem.meta_delay_mean_cycles",
             ratio(delay_sum, static_cast<double>(delay_count)), "cycles"},
            {"trace_io.open_s", self_s(Layer::TraceOpen), "s"},
            {"trace_io.decode_s", self_s(Layer::TraceDecode), "s"},
            {"trace_io.chunks", static_cast<double>(chunks), "count"},
            {"trace_io.encode_s", median(encode_s), "s"},
            {"workload.generate_s", median(generate_s), "s"},
            {"workload.records", static_cast<double>(setup_records),
             "count"},
            {"driver.execute_s", scheduled.wallSeconds, "s"},
            {"driver.wait_share",
             1.0 - ratio(ds.simulateSeconds,
                         ds.threadsResolved * scheduled.wallSeconds),
             "share"},
            {"driver.peak_resident_chunks",
             static_cast<double>(ds.peakResidentChunks), "count"},
            {"results.encode_s", self_s(Layer::ResultsEncode), "s"},
            {"results.append_s", self_s(Layer::ResultsAppend), "s"},
            {"results.records_appended", static_cast<double>(plan.size()),
             "count"},
            {"results.bytes_appended", appended_bytes, "bytes"},
            // Traced ÷ untraced records per second of the same runs
            // under the same concurrency: the pipelined schedule's
            // summed simulate seconds against the summed run spans.
            {"trace_overhead", ratio(ds.simulateSeconds, total_s),
             "ratio"},
            {"failed_share",
             ratio(static_cast<double>(tally.failed),
                   static_cast<double>(tally.attempted)),
             "share"},
            {"harness.self_s", self_s(Layer::Run), "s"},
            {"span.total_s", total_s, "s"},
            {"span.wall_s", static_cast<double>(wall_ns) * 1e-9, "s"},
        };
    }

    for (const std::string &line : tally.notes)
        std::printf("failed %s\n", line.c_str());
    std::printf("runs attempted %llu, failed %llu, output checks failed "
                "%llu\n",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed),
                static_cast<unsigned long long>(tally.checkFailures));
    emit(tally, metrics);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    return run(args);
}
