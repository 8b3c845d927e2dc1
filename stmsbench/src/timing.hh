/**
 * @file
 * Timing decorators for the traced benchmark run.
 *
 * Each decorator implements one of the simulator's public interfaces
 * by forwarding to the real implementation inside a span, so the
 * traced run drives the same model code as an untraced one:
 *
 *  - TimedSource / its cursors wrap a trace_io::TraceSource;
 *  - TimedPrefetcher wraps a Prefetcher and hands the wrapped object a
 *    TimedPort instead of the MemorySystem's PrefetchPort. The port
 *    maps the wrapped prefetcher back to its wrapper whenever it names
 *    itself as the owner of a request (the MemorySystem keys its
 *    per-prefetcher state and later hooks on that object), and it
 *    times metaRequest completion callbacks under the prefetcher's
 *    layer, so a prefetcher's self time excludes the memory system it
 *    calls into and includes the continuations it runs.
 *
 * The decorators add host time only; model output is unchanged, which
 * the harness checks by comparing digests with an untraced run.
 */

#ifndef STMSBENCH_TIMING_HH
#define STMSBENCH_TIMING_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "prefetch/prefetcher.hh"
#include "spans.hh"
#include "trace_io/trace_source.hh"

namespace stmsbench
{

/** TraceSource decorator timing openLane and every cursor call. */
class TimedSource final : public stms::trace_io::TraceSource
{
  public:
    TimedSource(stms::trace_io::TraceSource &inner, SpanRecorder &spans)
        : inner_(inner), spans_(spans)
    {}

    const std::string &name() const override { return inner_.name(); }
    std::uint32_t numCores() const override { return inner_.numCores(); }
    std::uint64_t totalRecords() const override
    {
        return inner_.totalRecords();
    }

    std::unique_ptr<stms::trace_io::RecordCursor>
    openLane(stms::CoreId lane) override;

    /** Non-empty record windows handed to the simulator so far. */
    std::uint64_t chunks() const { return chunks_; }

  private:
    friend class TimedCursor;

    stms::trace_io::TraceSource &inner_;
    SpanRecorder &spans_;
    std::uint64_t chunks_ = 0;
};

class TimedPrefetcher;

/** The PrefetchPort a TimedPrefetcher hands to the wrapped object. */
class TimedPort final : public stms::PrefetchPort
{
  public:
    TimedPort(stms::PrefetchPort &real, TimedPrefetcher &wrapper,
              SpanRecorder &spans, Layer callbackLayer)
        : real_(real), wrapper_(wrapper), spans_(spans),
          callbackLayer_(callbackLayer)
    {}
    TimedPort(const TimedPort &) = delete;
    TimedPort &operator=(const TimedPort &) = delete;

    stms::IssueResult issuePrefetch(stms::Prefetcher &owner,
                                    stms::CoreId core,
                                    stms::Addr block) override;
    void metaRequest(stms::TrafficClass cls, stms::Addr addr,
                     std::uint32_t blocks,
                     stms::TimedCallback done) override;
    stms::Cycle now() const override { return real_.now(); }
    std::uint32_t prefetchRoom(const stms::Prefetcher &owner,
                               stms::CoreId core) const override;

  private:
    void complete(std::uint32_t slot, stms::Cycle when);

    stms::PrefetchPort &real_;
    TimedPrefetcher &wrapper_;
    SpanRecorder &spans_;
    Layer callbackLayer_;
    /** Completion callbacks parked while their request is in flight;
     *  the forwarded callback carries only {this, slot}, which keeps
     *  it inside TimedCallback's inline capacity. */
    std::vector<stms::TimedCallback> parked_;
    std::vector<std::uint32_t> freeSlots_;
};

/** Prefetcher decorator: every hook runs inside a @c layer span. */
class TimedPrefetcher final : public stms::Prefetcher
{
  public:
    TimedPrefetcher(stms::Prefetcher &inner, Layer layer,
                    SpanRecorder &spans)
        : inner_(inner), layer_(layer), spans_(spans)
    {}
    TimedPrefetcher(const TimedPrefetcher &) = delete;
    TimedPrefetcher &operator=(const TimedPrefetcher &) = delete;

    const std::string &name() const override { return inner_.name(); }
    void attach(stms::PrefetchPort &port, std::uint32_t num_cores,
                std::uint32_t id) override;
    void onOffchipRead(stms::CoreId core, stms::Addr block) override;
    void onPrefetchUsed(stms::CoreId core, stms::Addr block,
                        bool partial) override;
    void onForeignCovered(stms::CoreId core, stms::Addr block) override;
    void onPrefetchFill(stms::CoreId core, stms::Addr block) override;
    void onPrefetchUnused(stms::CoreId core, stms::Addr block) override;
    void onAccessHint(stms::CoreId core,
                      std::span<const stms::Addr> addrs) override;
    void resetStats() override;

    const stms::Prefetcher &inner() const { return inner_; }

  private:
    stms::Prefetcher &inner_;
    Layer layer_;
    SpanRecorder &spans_;
    std::optional<TimedPort> timedPort_;
};

} // namespace stmsbench

#endif // STMSBENCH_TIMING_HH
