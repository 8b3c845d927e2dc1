/**
 * @file
 * ExperimentRunner — executes an experiment's plan.
 *
 * The runner turns a plan into completed outputs. Each run passes
 * through three stages:
 *
 *   acquire   pin the synthetic trace in the TraceCache (generating
 *             it on first use), or note an ingest spec;
 *   simulate  build an isolated System/EventQueue and run it;
 *   encode    serialize the RunOutput into the result store.
 *
 * Two schedules execute those stages:
 *
 *  - fan-out (default): a pool of worker threads, each running all
 *    three stages of one run back to back — the PR-1 behavior.
 *  - pipelined (RunnerConfig::pipeline): stages exchange *bounded
 *    record chunks*, never whole traces. Each synthetic run streams
 *    through a ChunkedWorkloadSource (driver/chunk_stream.hh): a
 *    per-run producer thread resumes the lane generators chunk by
 *    chunk into bounded per-lane queues, the simulator pool consumes
 *    through ordinary RecordCursors, and a dedicated encode thread
 *    drains finished runs into the store. Generation of run k's next
 *    chunk overlaps simulation of its current one (and of other
 *    runs), while peak residency stays
 *    runs-in-flight x lanes x O(1) chunks regardless of trace
 *    length — the fix for the whole-trace hand-off that made the
 *    PR-5 pipeline lose on both RSS and throughput. Ingest runs
 *    already stream bounded chunks from disk and are unchanged.
 *
 * Either way, outputs are stored by plan index and keyed by id, so a
 * report assembled from them is bit-identical to serial execution —
 * the same gate discipline as `--threads N` since PR 1.
 *
 * With a ResultStore attached the runner becomes resumable: each
 * RunSpec is fingerprinted, already-stored points are decoded from
 * their run records instead of re-simulated, and freshly simulated
 * points are appended. Sharding (`--shard i/n`) deterministically
 * partitions the plan by run fingerprint so N machines can split one
 * sweep and merge stores.
 *
 * Wall-clock timing of every stage is collected into ExecStats; it is
 * reporting metadata only and never participates in result-store
 * fingerprints (timing is noise, not model output).
 */

#ifndef STMS_DRIVER_RUNNER_HH
#define STMS_DRIVER_RUNNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "driver/experiment.hh"
#include "driver/trace_cache.hh"
#include "results/store.hh"
#include "telemetry/progress.hh"
#include "telemetry/sampler.hh"

namespace stms::driver
{

/** Runner knobs (shared by the CLI and tests). */
struct RunnerConfig
{
    /** Worker threads; 1 runs on the calling thread, 0 auto-detects
     *  std::thread::hardware_concurrency(). */
    std::uint32_t threads = 1;
    /** Stage-pipelined scheduling (acquire ahead of simulate). */
    bool pipeline = false;
    /** Records per streamed chunk in the pipelined schedule; 0 uses
     *  kDefaultPipelineChunkRecords (driver/chunk_stream.hh). Chunk
     *  size never changes model output — only residency and overlap
     *  granularity — and the pipeline tests assert exactly that. */
    std::uint64_t pipelineChunkRecords = 0;
    /**
     * Telemetry: epoch-sample simulator counters every N accesses
     * into the per-run timing series (0 = inherit the process-wide
     * telemetry::globalSampleEvery(), which the CLI's --sample-every
     * sets — so nested runners, e.g. perf_suite's inner sweeps,
     * follow the flag). Never joins Options or fingerprints.
     */
    std::uint64_t sampleEvery = 0;
    /** Live sweep progress line (Auto = only when stderr is a TTY). */
    telemetry::ProgressMode progress = telemetry::ProgressMode::Auto;
    /** Archive runs here (and resume from it) when non-null. The
     *  store outlives the runner; appends are internally locked. */
    results::ResultStore *store = nullptr;
    /** Re-execute and re-append even when fingerprints are stored. */
    bool rerun = false;
    /** Shard selector: execute only plan points whose run
     *  fingerprint maps to shard @c shardIndex of @c shardCount.
     *  shardCount == 0 disables sharding; indices are 1-based. */
    std::uint32_t shardIndex = 0;
    std::uint32_t shardCount = 0;
};

/** Wall-clock stage timings of one executed run (seconds). The same
 *  struct the Report renders under its timing key, so the runner's
 *  accounting and the JSON cannot drift. */
using RunTiming = ReportRunTiming;

/** What execute() did with a plan (store/shard/timing accounting). */
struct ExecStats
{
    std::size_t planned = 0;   ///< RunSpecs in the full plan.
    std::size_t executed = 0;  ///< Simulated this invocation.
    std::size_t resumed = 0;   ///< Decoded from stored run records.
    std::size_t sharded = 0;   ///< Skipped: belong to other shards.
    std::size_t stored = 0;    ///< Run records appended.

    // Timing metadata (never fingerprinted; see file comment).
    std::uint32_t threadsResolved = 1;  ///< Actual worker count.
    bool pipelined = false;
    double wallSeconds = 0;       ///< Whole execute() duration.
    double acquireSeconds = 0;    ///< Sum over executed runs.
    double simulateSeconds = 0;
    double encodeSeconds = 0;
    std::uint64_t recordsProcessed = 0;  ///< Trace records simulated.
    /** Records per streamed chunk (0 = whole-trace hand-off). */
    std::uint64_t chunkRecords = 0;
    /** Peak record chunks resident at once across concurrent runs —
     *  the chunked pipeline's bounded-residency witness. */
    std::uint64_t peakResidentChunks = 0;
    /** Sampling epoch in effect (0 = off) + probe column names. */
    std::uint64_t sampleEvery = 0;
    std::vector<std::string> sampleColumns;
    std::vector<RunTiming> runs;  ///< Executed runs, plan order.

    /** Aggregate simulation throughput (records / wall second). */
    double
    recordsPerSecond() const
    {
        return wallSeconds > 0
                   ? static_cast<double>(recordsProcessed) /
                         wallSeconds
                   : 0.0;
    }
};

/** Peak resident set size of this process so far, in KiB. */
std::uint64_t peakRssKb();

/**
 * Reset the kernel's peak-RSS watermark to the current RSS (Linux
 * /proc/self/clear_refs), so per-phase peaks can be measured in one
 * process. Returns false when unsupported or denied — peakRssKb()
 * then keeps reporting the process-lifetime high-water mark.
 */
bool resetPeakRss();

/**
 * The runs an ExperimentRunner simulates for @p experiment: its
 * plan() with the "mem-backend" override and the counter-sampling
 * epoch applied (@p sampleEvery, 0 = the process-wide default).
 */
std::vector<RunSpec> planRuns(const Experiment &experiment,
                              const Options &options,
                              std::uint64_t sampleEvery);

/** Executes experiment plans over a shared trace cache. */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(TraceCache &traces,
                              RunnerConfig config = {});

    /**
     * Execute @p experiment's full plan and return its outputs.
     * Under sharding the RunSet holds only this shard's runs — callers
     * must not report() a sharded set (report() reads every id).
     */
    RunSet execute(const Experiment &experiment,
                   const Options &options,
                   ExecStats *stats = nullptr) const;

    /** Execute @p plan, made by planRuns() for the same arguments. */
    RunSet execute(const Experiment &experiment, const Options &options,
                   std::vector<RunSpec> plan,
                   ExecStats *stats = nullptr) const;

    /** Plan, execute, and report in one call. */
    Report run(const Experiment &experiment, const Options &options,
               ExecStats *stats = nullptr) const;

    const RunnerConfig &config() const { return config_; }

    /** Worker threads actually used (0 in config = auto-detected). */
    std::uint32_t resolvedThreads() const { return resolvedThreads_; }

  private:
    TraceCache &traces_;
    RunnerConfig config_;
    std::uint32_t resolvedThreads_;
};

} // namespace stms::driver

#endif // STMS_DRIVER_RUNNER_HH
