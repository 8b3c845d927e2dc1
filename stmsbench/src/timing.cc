#include "timing.hh"

namespace stmsbench
{

/** Cursor decorator: each call runs inside a TraceDecode span. */
class TimedCursor final : public stms::trace_io::RecordCursor
{
  public:
    TimedCursor(std::unique_ptr<stms::trace_io::RecordCursor> inner,
                TimedSource &source)
        : inner_(std::move(inner)), source_(source)
    {}

    const stms::TraceRecord *
    peek() override
    {
        SpanRecorder::Scope span(source_.spans_, Layer::TraceDecode);
        return inner_->peek();
    }

    void
    next() override
    {
        SpanRecorder::Scope span(source_.spans_, Layer::TraceDecode);
        inner_->next();
    }

    std::span<const stms::TraceRecord>
    chunk() override
    {
        SpanRecorder::Scope span(source_.spans_, Layer::TraceDecode);
        const std::span<const stms::TraceRecord> window = inner_->chunk();
        if (!window.empty())
            ++source_.chunks_;
        return window;
    }

    void
    consume(std::size_t count) override
    {
        SpanRecorder::Scope span(source_.spans_, Layer::TraceDecode);
        inner_->consume(count);
    }

  private:
    std::unique_ptr<stms::trace_io::RecordCursor> inner_;
    TimedSource &source_;
};

std::unique_ptr<stms::trace_io::RecordCursor>
TimedSource::openLane(stms::CoreId lane)
{
    SpanRecorder::Scope span(spans_, Layer::TraceOpen);
    return std::make_unique<TimedCursor>(inner_.openLane(lane), *this);
}

stms::IssueResult
TimedPort::issuePrefetch(stms::Prefetcher &owner, stms::CoreId core,
                         stms::Addr block)
{
    SpanRecorder::Scope span(spans_, Layer::Port);
    stms::Prefetcher &mapped =
        &owner == &wrapper_.inner() ? wrapper_ : owner;
    return real_.issuePrefetch(mapped, core, block);
}

std::uint32_t
TimedPort::prefetchRoom(const stms::Prefetcher &owner,
                        stms::CoreId core) const
{
    SpanRecorder::Scope span(spans_, Layer::Port);
    const stms::Prefetcher &mapped =
        &owner == &wrapper_.inner() ? wrapper_ : owner;
    return real_.prefetchRoom(mapped, core);
}

void
TimedPort::metaRequest(stms::TrafficClass cls, stms::Addr addr,
                       std::uint32_t blocks, stms::TimedCallback done)
{
    SpanRecorder::Scope span(spans_, Layer::Port);
    if (!done) {
        real_.metaRequest(cls, addr, blocks, nullptr);
        return;
    }
    std::uint32_t slot;
    if (freeSlots_.empty()) {
        slot = static_cast<std::uint32_t>(parked_.size());
        parked_.emplace_back();
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    }
    parked_[slot] = std::move(done);
    real_.metaRequest(cls, addr, blocks, [this, slot](stms::Cycle when) {
        complete(slot, when);
    });
}

void
TimedPort::complete(std::uint32_t slot, stms::Cycle when)
{
    SpanRecorder::Scope span(spans_, callbackLayer_);
    // Move out first: the continuation may issue further meta-data
    // requests, which can grow (and so move) the parked vector.
    const stms::TimedCallback done = std::move(parked_[slot]);
    freeSlots_.push_back(slot);
    done(when);
}

void
TimedPrefetcher::attach(stms::PrefetchPort &port, std::uint32_t num_cores,
                        std::uint32_t id)
{
    stms::Prefetcher::attach(port, num_cores, id);
    timedPort_.emplace(port, *this, spans_, layer_);
    SpanRecorder::Scope span(spans_, layer_);
    inner_.attach(*timedPort_, num_cores, id);
}

void
TimedPrefetcher::onOffchipRead(stms::CoreId core, stms::Addr block)
{
    SpanRecorder::Scope span(spans_, layer_);
    inner_.onOffchipRead(core, block);
}

void
TimedPrefetcher::onPrefetchUsed(stms::CoreId core, stms::Addr block,
                                bool partial)
{
    SpanRecorder::Scope span(spans_, layer_);
    inner_.onPrefetchUsed(core, block, partial);
}

void
TimedPrefetcher::onForeignCovered(stms::CoreId core, stms::Addr block)
{
    SpanRecorder::Scope span(spans_, layer_);
    inner_.onForeignCovered(core, block);
}

void
TimedPrefetcher::onPrefetchFill(stms::CoreId core, stms::Addr block)
{
    SpanRecorder::Scope span(spans_, layer_);
    inner_.onPrefetchFill(core, block);
}

void
TimedPrefetcher::onPrefetchUnused(stms::CoreId core, stms::Addr block)
{
    SpanRecorder::Scope span(spans_, layer_);
    inner_.onPrefetchUnused(core, block);
}

void
TimedPrefetcher::onAccessHint(stms::CoreId core,
                              std::span<const stms::Addr> addrs)
{
    SpanRecorder::Scope span(spans_, layer_);
    inner_.onAccessHint(core, addrs);
}

void
TimedPrefetcher::resetStats()
{
    SpanRecorder::Scope span(spans_, layer_);
    inner_.resetStats();
}

} // namespace stmsbench
