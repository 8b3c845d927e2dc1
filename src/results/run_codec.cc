#include "results/run_codec.hh"

#include <cmath>
#include <cstdint>
#include <optional>
#include <unordered_map>

namespace stms::results
{
namespace
{

/** Codec layout version, stored alongside the scalars. */
constexpr double kRunCodecVersion = 1.0;

/**
 * Visit every stored field of @p out once, in store order. @p out is
 * const when encoding and mutable when decoding; the visitor provides
 *
 *   count(name, u64) / real(name, double)   plain fields;
 *   sparse(name, field, implicit)           omitted when == implicit;
 *   size(name, vector, max)                 a vector's length, which
 *                                           the walk then fills;
 *   histogram(prefix, Log2Histogram)        bucket counts + totals.
 *
 * size() and histogram() return false to reject a length read from
 * disk, which ends the walk.
 */
template <typename Out, typename Visitor>
bool
walkRunOutput(Out &out, Visitor &v)
{
    auto prefetcher = [&v](const std::string &prefix, auto &stats) {
        v.count(prefix + ".issued", stats.issued);
        v.count(prefix + ".useful", stats.useful);
        v.count(prefix + ".partial", stats.partial);
        v.count(prefix + ".erroneous", stats.erroneous);
        v.count(prefix + ".redundant", stats.redundant);
        v.count(prefix + ".rejected", stats.rejected);
    };
    auto className = [](std::size_t cls) {
        return std::string(
            trafficClassName(static_cast<TrafficClass>(cls)));
    };

    auto &sim = out.sim;
    v.count("sim.cycles", sim.cycles);
    v.count("sim.instructions", sim.instructions);
    v.real("sim.ipc", sim.ipc);

    v.count("sim.mem.accesses", sim.mem.accesses);
    v.count("sim.mem.l1_hits", sim.mem.l1Hits);
    v.count("sim.mem.prefetch_hits", sim.mem.prefetchHits);
    v.count("sim.mem.l2_hits", sim.mem.l2Hits);
    v.count("sim.mem.partial_misses", sim.mem.partialMisses);
    v.count("sim.mem.offchip_reads", sim.mem.offchipReads);
    v.count("sim.mem.offchip_writes", sim.mem.offchipWrites);

    for (std::size_t cls = 0; cls < kNumTrafficClasses; ++cls) {
        const std::string prefix = "sim.traffic." + className(cls);
        v.count(prefix + ".requests", sim.traffic.requests[cls]);
        v.count(prefix + ".bytes", sim.traffic.bytes[cls]);
    }
    v.count("sim.traffic.high_prio", sim.traffic.highPrioRequests);
    v.count("sim.traffic.low_prio", sim.traffic.lowPrioRequests);
    v.count("sim.traffic.busy_cycles", sim.traffic.busyCycles);

    if (!v.size("sim.mlp.count", sim.mlpPerCore, 4096))
        return false;
    for (std::size_t i = 0; i < sim.mlpPerCore.size(); ++i)
        v.real("sim.mlp." + std::to_string(i), sim.mlpPerCore[i]);
    v.real("sim.mean_mlp", sim.meanMlp);

    if (!v.size("sim.pf.count", sim.prefetchers, 256))
        return false;
    for (std::size_t i = 0; i < sim.prefetchers.size(); ++i)
        prefetcher("sim.pf." + std::to_string(i), sim.prefetchers[i]);

    v.real("sim.mem_utilization", sim.memUtilization);

    // Backend-specific scalars are sparse (zero values implicit, one
    // channel implicit) so records written by the default fixed
    // backend stay byte-identical to the pre-backend codec.
    v.sparse("sim.mem_channels", sim.memChannels, 1);
    for (std::size_t cls = 0; cls < kNumTrafficClasses; ++cls) {
        const std::string prefix = "sim.rowbuf." + className(cls);
        v.sparse(prefix + ".hits", sim.rowBuffer.hits[cls], 0);
        v.sparse(prefix + ".empties", sim.rowBuffer.empties[cls], 0);
        v.sparse(prefix + ".conflicts", sim.rowBuffer.conflicts[cls],
                 0);
    }

    v.real("sim.coverage", sim.coverage);
    v.real("sim.full_coverage", sim.fullCoverage);
    v.real("sim.overhead_per_byte", sim.overheadPerDataByte);

    prefetcher("stride", out.stride);
    prefetcher("stms", out.stms);

    auto &stms = out.stmsInternal;
    v.count("stms_internal.logged", stms.logged);
    v.count("stms_internal.history_block_writes",
            stms.historyBlockWrites);
    v.count("stms_internal.lookups", stms.lookups);
    v.count("stms_internal.lookup_hits", stms.lookupHits);
    v.count("stms_internal.stale_pointers", stms.stalePointers);
    v.count("stms_internal.lookups_suppressed", stms.lookupsSuppressed);
    v.count("stms_internal.lookups_ignored", stms.lookupsIgnored);
    v.count("stms_internal.streams_started", stms.streamsStarted);
    v.count("stms_internal.streams_ended", stms.streamsEnded);
    v.count("stms_internal.streams_replaced", stms.streamsReplaced);
    v.count("stms_internal.end_marks_written", stms.endMarksWritten);
    v.count("stms_internal.pauses", stms.pauses);
    v.count("stms_internal.resumes", stms.resumes);
    v.count("stms_internal.skip_aheads", stms.skipAheads);
    v.count("stms_internal.followed", stms.followed);
    v.count("stms_internal.consumed", stms.consumed);
    v.count("stms_internal.pump_break_room", stms.pumpBreakRoom);
    v.count("stms_internal.pump_break_window", stms.pumpBreakWindow);
    v.count("stms_internal.pump_break_outstanding",
            stms.pumpBreakOutstanding);
    v.count("stms_internal.pump_break_pause", stms.pumpBreakPause);
    v.count("stms_internal.queue_dry", stms.queueDry);
    // The Fig. 6 stream-length histogram.
    if (!v.histogram("stms_internal.stream_lengths", stms.streamLengths))
        return false;

    v.count("meta_bytes", out.stmsMetaBytes);
    v.real("coverage", out.stmsCoverage);
    v.real("full_coverage", out.stmsFullCoverage);
    v.real("partial_coverage", out.stmsPartialCoverage);
    return true;
}

struct Encoder
{
    std::vector<std::pair<std::string, double>> out;

    void
    real(const std::string &name, double value)
    {
        out.emplace_back(name, value);
    }

    void
    count(const std::string &name, std::uint64_t value)
    {
        real(name, static_cast<double>(value));
    }

    void
    sparse(const std::string &name, std::uint64_t value,
           std::uint64_t implicit)
    {
        if (value != implicit)
            count(name, value);
    }

    template <typename T>
    bool
    size(const std::string &name, const std::vector<T> &vec, double)
    {
        count(name, vec.size());
        return true;
    }

    bool
    histogram(const std::string &prefix, const Log2Histogram &hist)
    {
        count(prefix + ".buckets", hist.numBuckets());
        count(prefix + ".count", hist.count());
        real(prefix + ".sum", hist.weightedSum());
        for (std::size_t i = 0; i < hist.numBuckets(); ++i)
            sparse(prefix + ".b" + std::to_string(i),
                   hist.bucketCount(i), 0);
        return true;
    }
};

struct Decoder
{
    std::unordered_map<std::string, double> values;
    std::string error;

    double
    get(const std::string &name) const
    {
        auto it = values.find(name);
        return it == values.end() ? 0.0 : it->second;
    }

    std::uint64_t
    getU64(const std::string &name) const
    {
        // Guard the double->uint64 cast: negative/NaN/huge values in
        // a hand-damaged record must not hit UB.
        const double value = get(name);
        if (!(value >= 0.0))
            return 0;
        if (value >= 18446744073709549568.0)  // Max double < 2^64.
            return UINT64_MAX;
        return static_cast<std::uint64_t>(value);
    }

    /**
     * A vector length from disk: must be a non-negative integer no
     * larger than @p max, else nullopt with @p error set — a corrupt
     * record must fail decoding (and trigger re-simulation), not
     * drive an allocation.
     */
    std::optional<std::size_t>
    getCount(const std::string &name, double max)
    {
        const double value = get(name);
        if (!(value >= 0.0) || value > max ||
            value != std::floor(value)) {
            error = "implausible " + name + " in run record";
            return std::nullopt;
        }
        return static_cast<std::size_t>(value);
    }

    void
    real(const std::string &name, double &value)
    {
        value = get(name);
    }

    void
    count(const std::string &name, std::uint64_t &value)
    {
        value = getU64(name);
    }

    template <typename T>
    void
    sparse(const std::string &name, T &value, std::uint64_t implicit)
    {
        value = static_cast<T>(getU64(name));
        if (value == 0)
            value = static_cast<T>(implicit);
    }

    template <typename T>
    bool
    size(const std::string &name, std::vector<T> &vec, double max)
    {
        const auto length = getCount(name, max);
        if (length)
            vec.resize(*length);
        return length.has_value();
    }

    bool
    histogram(const std::string &prefix, Log2Histogram &hist)
    {
        const auto buckets = getCount(prefix + ".buckets", 4096);
        if (!buckets)
            return false;
        if (*buckets >= 2) {
            std::vector<std::uint64_t> counts(*buckets, 0);
            for (std::size_t i = 0; i < *buckets; ++i)
                counts[i] = getU64(prefix + ".b" + std::to_string(i));
            hist = Log2Histogram(*buckets);
            hist.restore(counts, getU64(prefix + ".count"),
                         get(prefix + ".sum"));
        }
        return true;
    }
};

} // namespace

std::vector<std::pair<std::string, double>>
encodeRunOutput(const RunOutput &output)
{
    Encoder enc;
    enc.real("codec", kRunCodecVersion);
    walkRunOutput(output, enc);
    return std::move(enc.out);
}

bool
decodeRunOutput(
    const std::vector<std::pair<std::string, double>> &scalars,
    RunOutput &output, std::string &error)
{
    output = RunOutput{};
    Decoder dec;
    dec.values.reserve(scalars.size());
    for (const auto &[name, value] : scalars)
        dec.values.emplace(name, value);

    if (dec.get("codec") != kRunCodecVersion) {
        error = "run record written by an incompatible codec";
        return false;
    }
    if (!walkRunOutput(output, dec)) {
        error = dec.error;
        return false;
    }
    return true;
}

} // namespace stms::results
