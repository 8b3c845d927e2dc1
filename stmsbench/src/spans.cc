#include "spans.hh"

#include <algorithm>

#include "common/log.hh"

namespace stmsbench
{

const char *
layerName(Layer layer)
{
    switch (layer) {
      case Layer::Run: return "harness";
      case Layer::Sim: return "sim";
      case Layer::Stms: return "core.stms";
      case Layer::Stride: return "prefetch.stride";
      case Layer::Port: return "sim.port";
      case Layer::TraceOpen: return "trace_io.open";
      case Layer::TraceDecode: return "trace_io.decode";
      case Layer::ResultsEncode: return "results.encode";
      case Layer::ResultsAppend: return "results.append";
      case Layer::Count: break;
    }
    return "?";
}

void
LayerTimes::add(const LayerTimes &other)
{
    for (std::size_t i = 0; i < kLayers; ++i) {
        selfNs[i] += other.selfNs[i];
        calls[i] += other.calls[i];
    }
    rootNs += other.rootNs;
}

bool
spansCoverWall(std::int64_t spanNs, std::int64_t wallNs, double tolerance)
{
    return spanNs <= wallNs &&
           static_cast<double>(spanNs) >=
               (1.0 - tolerance) * static_cast<double>(wallNs);
}

std::int64_t
LayerTimes::selfSum() const
{
    std::int64_t sum = 0;
    for (const std::int64_t ns : selfNs)
        sum += ns;
    return sum;
}

LayerTimes
foldSpans(std::vector<RawSpan> spans)
{
    // Any list in (start, depth) order folds correctly; a recorder
    // keeps its spans in opening order, which is one, so only crafted
    // lists pay for the sort.
    const auto opens_before = [](const RawSpan &a, const RawSpan &b) {
        return a.start != b.start ? a.start < b.start : a.depth < b.depth;
    };
    if (!std::is_sorted(spans.begin(), spans.end(), opens_before))
        std::sort(spans.begin(), spans.end(),
                  [](const RawSpan &a, const RawSpan &b) {
                      if (a.start != b.start)
                          return a.start < b.start;
                      if (a.depth != b.depth)
                          return a.depth < b.depth;
                      return a.end > b.end;
                  });

    struct Ancestor
    {
        const RawSpan *span;
        std::int64_t coveredUntil;  ///< Children's union reaches here.
        std::int64_t childNs;       ///< Union of children, clipped.
    };
    LayerTimes out;
    std::vector<Ancestor> stack;
    auto close = [&out](const Ancestor &done) {
        const RawSpan &span = *done.span;
        const std::int64_t length = std::max<std::int64_t>(
            span.end - span.start, 0);
        out.selfNs[static_cast<std::size_t>(span.layer)] +=
            length - done.childNs;
    };

    for (const RawSpan &span : spans) {
        while (!stack.empty() && stack.back().span->depth >= span.depth) {
            close(stack.back());
            stack.pop_back();
        }
        ++out.calls[static_cast<std::size_t>(span.layer)];
        if (!stack.empty()) {
            Ancestor &parent = stack.back();
            const std::int64_t lo =
                std::max(span.start, parent.coveredUntil);
            const std::int64_t hi = std::min(span.end, parent.span->end);
            if (hi > lo) {
                parent.childNs += hi - lo;
                parent.coveredUntil = hi;
            }
        } else if (span.depth == 0) {
            out.rootNs += std::max<std::int64_t>(span.end - span.start, 0);
        }
        stack.push_back({&span, span.start, 0});
    }
    while (!stack.empty()) {
        close(stack.back());
        stack.pop_back();
    }
    return out;
}

void
SpanRecorder::begin(Layer layer)
{
    open_.push_back(spans_.size());
    spans_.push_back({nowNs(), 0, layer,
                      static_cast<std::uint16_t>(open_.size() - 1)});
}

void
SpanRecorder::end()
{
    stms_assert(!open_.empty(), "span end without begin");
    spans_[open_.back()].end = nowNs();
    open_.pop_back();
}

LayerTimes
SpanRecorder::takeFolded()
{
    stms_assert(open_.empty(), "folding while %zu span(s) are open",
                open_.size());
    LayerTimes out = foldSpans(std::move(spans_));
    spans_.clear();
    return out;
}

} // namespace stmsbench
