/**
 * @file
 * Building blocks of the STMS benchmark harness: seeded trace set-up,
 * the workload plans, plan execution through driver::ExperimentRunner,
 * the traced run, and the output checks.
 *
 * The simulator only ever sees the trace files the set-up writes: every
 * RunSpec is an ingest spec, run through the same path as
 * `driver --experiment ... --trace FILE`.
 */

#ifndef STMSBENCH_BENCH_HH
#define STMSBENCH_BENCH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "driver/experiment.hh"
#include "driver/runner.hh"
#include "results/store.hh"
#include "sim/run.hh"
#include "spans.hh"

namespace stmsbench
{

/** The benchmark's workloads (see README.md for why each exists). */
enum class Workload
{
    Coverage,  ///< fig7 plan, functional mode, serial.
    Timing,    ///< fig9 plan, timed mode, serial.
};

/** Parse "coverage" / "timing"; false when unknown. */
bool parseWorkload(const std::string &text, Workload &out);
const char *workloadName(Workload workload);

/**
 * Trace length per core (4 cores per trace) of @p workload: long
 * enough that the suite's reuse distances (48Ki records and up) and
 * the scientific iterations recur within the measured window. The
 * timed plan runs longer traces: at 192Ki records the default seed
 * already shows the model's truncated-run defect (oltp-db2/ideal),
 * which shorter traces hide at that seed.
 */
std::uint64_t recordsPerCore(Workload workload);

/**
 * Simulator workers of the pipelined schedule that the traced
 * `coverage` run checks against the serial one.
 */
inline constexpr std::uint32_t kPipelineWorkers = 2;

// ------------------------------------------------------------ set-up

/** Host time of one trace set-up. */
struct SetupTimes
{
    double generateSeconds = 0;  ///< WorkloadGenerator::generate.
    double encodeSeconds = 0;    ///< trace_io::save.
    std::uint64_t records = 0;   ///< Records written, all traces.

    double total() const { return generateSeconds + encodeSeconds; }
};

/** Where the trace of @p workload lives under @p dir. */
std::string tracePath(const std::string &dir, const std::string &workload);

/**
 * Generate each of @p workloads with WorkloadSpec::seed = @p seed and
 * write it to tracePath(dir, name). Fatal when a file cannot be
 * written.
 */
SetupTimes writeTraces(const std::vector<std::string> &workloads,
                       std::uint64_t seed, std::uint64_t recordsPerCore,
                       const std::string &dir);

// -------------------------------------------------------------- plans

/** The plan of @p workload over the traces in @p traceDir. */
std::vector<stms::driver::RunSpec>
buildPlan(Workload workload, std::uint64_t recordsPerCore,
          const std::string &traceDir);

/** Distinct trace workloads a plan reads, in plan order. */
std::vector<std::string>
planWorkloads(const std::vector<stms::driver::RunSpec> &plan);

// ---------------------------------------------------------- execution

/** One execution of a plan through driver::ExperimentRunner. */
struct Execution
{
    std::vector<stms::RunOutput> outputs;  ///< Plan order.
    stms::driver::ExecStats stats;
    double wallSeconds = 0;  ///< Harness wall around execute().
};

/**
 * Run @p plan serially (@p workers == 1) or through the pipelined
 * scheduler with @p workers simulators, appending to @p store when
 * non-null.
 */
Execution executePlan(const std::vector<stms::driver::RunSpec> &plan,
                      std::uint32_t workers,
                      stms::results::ResultStore *store);

/** What the traced run learns about one RunSpec. */
struct TracedRun
{
    stms::RunOutput output;
    bool coresDone = true;         ///< Every CmpSystem core done().
    std::uint64_t events = 0;      ///< EventQueue::executed().
    std::uint64_t chunks = 0;      ///< Record windows decoded.
    double metaDelaySum = 0;       ///< lowPrioDelay mean x count.
    std::uint64_t metaDelayCount = 0;
};

/**
 * Run @p spec like runTrace() does, but on a hand-built CmpSystem whose
 * trace source and prefetchers are wrapped in timing decorators; every
 * call into a layer is recorded in @p spans under one Run root span.
 * With @p store non-null the output is also encoded and appended.
 * Threads may trace different specs at once, each with its own
 * recorder.
 */
TracedRun runTraced(const stms::driver::RunSpec &spec,
                    SpanRecorder &spans,
                    stms::results::ResultStore *store);

// ------------------------------------------------------------- checks

/** Records of a run's measured window (after the warmup barrier). */
std::uint64_t measuredWindow(std::uint64_t totalRecords,
                             double warmupFraction);

/**
 * The failure predicate: a run is truncated when it simulated fewer
 * accesses than its measured window holds (a complete run counts the
 * window plus the barrier-crossing access).
 */
bool runTruncated(const stms::RunOutput &output,
                  std::uint64_t totalRecords, double warmupFraction);

/**
 * True when a failed run of @p spec is also an output-check failure.
 * The known truncation defect needs memory timing, so a run in
 * functional mode that stops early is a new fault.
 */
bool failureIsFault(const stms::driver::RunSpec &spec);

/** Records of a plan point's trace (the ingest file's total). */
std::uint64_t specRecords(const stms::driver::RunSpec &spec);

/**
 * FNV-1a over @p id and the encodeRunOutput scalars of @p output,
 * continuing from @p digest. Chained over a plan in order this is the
 * perf_suite model digest.
 */
std::uint64_t digestRun(const std::string &id,
                        const stms::RunOutput &output,
                        std::uint64_t digest);

/** digestRun chained over @p outputs in plan order. */
std::uint64_t
planDigest(const std::vector<stms::driver::RunSpec> &plan,
           const std::vector<stms::RunOutput> &outputs);

/** One-line host fingerprint: CPU, nproc, compiler, build, SIMD ISA. */
std::string hostFingerprint();

} // namespace stmsbench

#endif // STMSBENCH_BENCH_HH
