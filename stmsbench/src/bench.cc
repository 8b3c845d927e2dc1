#include "bench.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <optional>
#include <thread>

#include "common/arena.hh"
#include "common/hash.hh"
#include "common/log.hh"
#include "common/simd.hh"
#include "driver/registry.hh"
#include "prefetch/stride.hh"
#include "results/fingerprint.hh"
#include "results/record.hh"
#include "results/run_codec.hh"
#include "timing.hh"
#include "trace_io/format.hh"
#include "trace_io/native.hh"
#include "workload/generators.hh"
#include "workload/workloads.hh"

#ifndef STMSBENCH_BUILD_TYPE
#define STMSBENCH_BUILD_TYPE "unknown"
#endif

namespace stmsbench
{

using stms::driver::RunSpec;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Hands a prebuilt plan to an ExperimentRunner. */
class PinnedPlan final : public stms::driver::ExperimentBase
{
  public:
    explicit PinnedPlan(const std::vector<RunSpec> &plan)
        : ExperimentBase("stmsbench", "benchmark plan"), plan_(plan)
    {}

    std::vector<RunSpec>
    plan(const stms::Options &) const override
    {
        return plan_;
    }

    stms::driver::Report
    report(const stms::Options &, const stms::driver::RunSet &) const override
    {
        return stms::driver::Report(name());
    }

  private:
    const std::vector<RunSpec> &plan_;
};

} // namespace

bool
parseWorkload(const std::string &text, Workload &out)
{
    for (const Workload workload :
         {Workload::Coverage, Workload::Timing}) {
        if (text == workloadName(workload)) {
            out = workload;
            return true;
        }
    }
    return false;
}

const char *
workloadName(Workload workload)
{
    switch (workload) {
      case Workload::Coverage: return "coverage";
      case Workload::Timing: return "timing";
    }
    return "?";
}

std::uint64_t
recordsPerCore(Workload workload)
{
    return workload == Workload::Timing ? 192 * 1024 : 256 * 1024;
}

std::string
tracePath(const std::string &dir, const std::string &workload)
{
    return dir + "/" + workload + ".trace";
}

SetupTimes
writeTraces(const std::vector<std::string> &workloads, std::uint64_t seed,
            std::uint64_t recordsPerCore, const std::string &dir)
{
    SetupTimes times;
    for (const std::string &name : workloads) {
        stms::WorkloadSpec spec = stms::makeWorkload(name, recordsPerCore);
        spec.seed = seed;
        Clock::time_point start = Clock::now();
        const stms::Trace trace = stms::WorkloadGenerator(spec).generate();
        times.generateSeconds += secondsSince(start);
        start = Clock::now();
        if (!stms::trace_io::save(trace, tracePath(dir, name)))
            stms_fatal("cannot write %s", tracePath(dir, name).c_str());
        times.encodeSeconds += secondsSince(start);
        times.records += trace.totalRecords();
    }
    return times;
}

std::vector<RunSpec>
buildPlan(Workload workload, std::uint64_t recordsPerCore,
          const std::string &traceDir)
{
    const char *experiment = workload == Workload::Timing ? "fig9" : "fig7";
    const stms::driver::Experiment *source =
        stms::driver::ExperimentRegistry::global().find(experiment);
    stms_assert(source != nullptr, "no %s experiment", experiment);
    stms::Options options;
    options.set("records", std::to_string(recordsPerCore));
    std::vector<RunSpec> plan = source->plan(options);
    for (RunSpec &spec : plan) {
        stms::trace_io::IngestSpec ingest;
        ingest.inputs.push_back({tracePath(traceDir, spec.workload),
                                 stms::trace_io::TraceFormat::Native});
        spec.ingest = std::move(ingest);
    }
    return plan;
}

std::vector<std::string>
planWorkloads(const std::vector<RunSpec> &plan)
{
    std::vector<std::string> names;
    for (const RunSpec &spec : plan)
        if (std::find(names.begin(), names.end(), spec.workload) ==
            names.end())
            names.push_back(spec.workload);
    return names;
}

Execution
executePlan(const std::vector<RunSpec> &plan, std::uint32_t workers,
            stms::results::ResultStore *store)
{
    stms::driver::TraceCache unused_cache;
    stms::driver::RunnerConfig config;
    config.threads = workers;
    config.pipeline = workers > 1;
    config.progress = stms::telemetry::ProgressMode::Off;
    config.store = store;
    const stms::driver::ExperimentRunner runner(unused_cache, config);
    const PinnedPlan experiment(plan);

    Execution out;
    const Clock::time_point start = Clock::now();
    const stms::driver::RunSet runs =
        runner.execute(experiment, stms::Options(), &out.stats);
    out.wallSeconds = secondsSince(start);
    out.outputs.reserve(plan.size());
    for (const RunSpec &spec : plan)
        out.outputs.push_back(runs.at(spec.id));
    return out;
}

TracedRun
runTraced(const RunSpec &spec, SpanRecorder &spans,
          stms::results::ResultStore *store)
{
    stms_assert(spec.ingest && !spec.config.correlation,
                "traced runs replay ingest specs with stride/STMS only");
    SpanRecorder::Scope root(spans, Layer::Run);
    TracedRun traced;
    stms::RunOutput &out = traced.output;
    {
        // Mirrors stms::runTrace(TraceSource &, const RunConfig &).
        stms::ScopedRunArena arena_scope;
        std::unique_ptr<stms::trace_io::StreamingTraceSource> stream;
        {
            SpanRecorder::Scope span(spans, Layer::TraceOpen);
            std::string error;
            stream = stms::trace_io::openSource(*spec.ingest, error);
            if (!stream)
                stms_fatal("run '%s': %s", spec.id.c_str(), error.c_str());
        }
        TimedSource source(*stream, spans);
        stms::SimConfig config = spec.config.sim;
        config.warmupRecords = static_cast<std::uint64_t>(
            spec.config.warmupFraction *
            static_cast<double>(source.totalRecords()));

        std::optional<stms::CmpSystem> system;
        stms::StridePrefetcher stride;
        TimedPrefetcher timed_stride(stride, Layer::Stride, spans);
        std::optional<stms::StmsPrefetcher> stms_pf;
        std::optional<TimedPrefetcher> timed_stms;
        if (spec.config.stms) {
            SpanRecorder::Scope span(spans, Layer::Stms);
            stms_pf.emplace(*spec.config.stms);
            timed_stms.emplace(*stms_pf, Layer::Stms, spans);
        }
        {
            SpanRecorder::Scope span(spans, Layer::Sim);
            system.emplace(config, source);
            system->addPrefetcher(&timed_stride);
            if (timed_stms)
                system->addPrefetcher(&*timed_stms);
        }
        {
            SpanRecorder::Scope span(spans, Layer::Sim);
            out.sim = system->run();
        }

        out.stride = out.sim.prefetchers.at(0);
        if (stms_pf) {
            out.stms = out.sim.prefetchers.back();
            out.stmsInternal = stms_pf->stats();
            out.stmsMetaBytes = stms_pf->metaFootprintBytes();
            const double full = static_cast<double>(out.stms.useful);
            const double partial = static_cast<double>(out.stms.partial);
            const double uncovered =
                static_cast<double>(out.sim.mem.offchipReads);
            const double denom = full + partial + uncovered;
            if (denom > 0) {
                out.stmsCoverage = (full + partial) / denom;
                out.stmsFullCoverage = full / denom;
                out.stmsPartialCoverage = partial / denom;
            }
        }

        for (stms::CoreId c = 0; c < source.numCores(); ++c)
            traced.coresDone = traced.coresDone && system->core(c).done();
        traced.events = system->events().executed();
        traced.chunks = source.chunks();
        const auto &delay = system->memory().memBackend().lowPrioDelay();
        traced.metaDelayCount = delay.count();
        traced.metaDelaySum =
            delay.mean() * static_cast<double>(delay.count());
    }

    if (store) {
        stms::results::ResultRecord record;
        record.kind = stms::results::kKindRun;
        record.fingerprint = stms::results::fingerprintRun(
            "stmsbench.traced", 1, spec.id, {});
        record.experiment = "stmsbench.traced";
        record.run = spec.id;
        {
            SpanRecorder::Scope span(spans, Layer::ResultsEncode);
            record.scalars = stms::results::encodeRunOutput(out);
        }
        SpanRecorder::Scope span(spans, Layer::ResultsAppend);
        if (!store->append(record, true))
            stms_fatal("run '%s': store append failed", spec.id.c_str());
    }
    return traced;
}

std::uint64_t
measuredWindow(std::uint64_t totalRecords, double warmupFraction)
{
    const auto warmup = static_cast<std::uint64_t>(
        warmupFraction * static_cast<double>(totalRecords));
    return totalRecords - std::min(warmup, totalRecords);
}

bool
runTruncated(const stms::RunOutput &output, std::uint64_t totalRecords,
             double warmupFraction)
{
    return output.sim.mem.accesses <
           measuredWindow(totalRecords, warmupFraction);
}

bool
failureIsFault(const RunSpec &spec)
{
    return spec.config.sim.memory.mem.functional;
}

std::uint64_t
specRecords(const RunSpec &spec)
{
    std::string error;
    const auto source = stms::trace_io::openSource(*spec.ingest, error);
    if (!source)
        stms_fatal("run '%s': %s", spec.id.c_str(), error.c_str());
    return source->totalRecords();
}

std::uint64_t
digestRun(const std::string &id, const stms::RunOutput &output,
          std::uint64_t digest)
{
    digest = stms::fnv1a64(id.data(), id.size(), digest);
    for (const auto &[name, value] :
         stms::results::encodeRunOutput(output)) {
        digest = stms::fnv1a64(name.data(), name.size(), digest);
        char bits[sizeof(double)];
        std::memcpy(bits, &value, sizeof(bits));
        digest = stms::fnv1a64(bits, sizeof(bits), digest);
    }
    return digest;
}

std::uint64_t
planDigest(const std::vector<RunSpec> &plan,
           const std::vector<stms::RunOutput> &outputs)
{
    std::uint64_t digest = stms::kFnv1aOffset;
    for (std::size_t i = 0; i < plan.size(); ++i)
        digest = digestRun(plan[i].id, outputs[i], digest);
    return digest;
}

std::string
hostFingerprint()
{
    std::string cpu = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            const std::size_t value =
                colon == std::string::npos
                    ? colon
                    : line.find_first_not_of(" \t", colon + 1);
            if (value != std::string::npos)
                cpu = line.substr(value);
            break;
        }
    }
#if defined(__clang__)
    const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = "gcc " __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
    return "cpu=\"" + cpu + "\" nproc=" +
           std::to_string(std::thread::hardware_concurrency()) +
           " compiler=\"" + compiler + "\" build=" STMSBENCH_BUILD_TYPE
           " isa=" + stms::simd::activeIsa();
}

} // namespace stmsbench
