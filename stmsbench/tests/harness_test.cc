/**
 * @file
 * Tests of the benchmark harness's own arithmetic: the failure
 * predicate on crafted RunOutputs, which failures are faults, the span
 * self-time fold and its wall-clock check.
 */

#include <gtest/gtest.h>

#include "bench.hh"
#include "spans.hh"

namespace stmsbench
{
namespace
{

stms::RunOutput
withAccesses(std::uint64_t accesses)
{
    stms::RunOutput out;
    out.sim.mem.accesses = accesses;
    return out;
}

TEST(FailurePredicate, WindowExcludesWarmup)
{
    EXPECT_EQ(measuredWindow(1000, 0.25), 750u);
    EXPECT_EQ(measuredWindow(1001, 0.25), 751u);  // Warmup truncates.
    EXPECT_EQ(measuredWindow(1000, 0.0), 1000u);
    EXPECT_EQ(measuredWindow(0, 0.25), 0u);
    EXPECT_EQ(measuredWindow(1000, 1.5), 0u);  // Never wraps.
}

TEST(FailurePredicate, CompleteRunsPass)
{
    // A complete run counts the window plus the barrier access.
    EXPECT_FALSE(runTruncated(withAccesses(751), 1000, 0.25));
    EXPECT_FALSE(runTruncated(withAccesses(750), 1000, 0.25));
    EXPECT_FALSE(runTruncated(withAccesses(0), 0, 0.25));
}

TEST(FailurePredicate, ShortRunsFail)
{
    EXPECT_TRUE(runTruncated(withAccesses(749), 1000, 0.25));
    EXPECT_TRUE(runTruncated(withAccesses(0), 1000, 0.25));
    // The shape of a stalled core: 436,816 of a 589,824-record window.
    EXPECT_TRUE(runTruncated(withAccesses(436816), 786432, 0.25));
}

TEST(FailurePredicate, OnlyFunctionalFailuresAreFaults)
{
    // Plan specs only; the trace files are never opened.
    for (const auto &spec : buildPlan(Workload::Coverage, 1024, "unused"))
        EXPECT_TRUE(failureIsFault(spec)) << spec.id;
    for (const auto &spec : buildPlan(Workload::Timing, 1024, "unused"))
        EXPECT_FALSE(failureIsFault(spec)) << spec.id;
}

RawSpan
span(std::int64_t start, std::int64_t end, Layer layer,
     std::uint16_t depth)
{
    return RawSpan{start, end, layer, depth};
}

TEST(SpanFold, NestedChildrenAreSubtracted)
{
    const LayerTimes t = foldSpans({
        span(0, 100, Layer::Run, 0),
        span(10, 60, Layer::Sim, 1),
        span(20, 30, Layer::Stms, 2),
        span(22, 25, Layer::Port, 3),
        span(70, 80, Layer::TraceDecode, 1),
    });
    EXPECT_EQ(t.self(Layer::Run), 100 - 50 - 10);
    EXPECT_EQ(t.self(Layer::Sim), 50 - 10);
    EXPECT_EQ(t.self(Layer::Stms), 10 - 3);
    EXPECT_EQ(t.self(Layer::Port), 3);
    EXPECT_EQ(t.self(Layer::TraceDecode), 10);
    EXPECT_EQ(t.rootNs, 100);
    EXPECT_EQ(t.selfSum(), t.rootNs);
    EXPECT_EQ(t.calls[static_cast<std::size_t>(Layer::Stms)], 1u);
}

TEST(SpanFold, InputOrderDoesNotMatter)
{
    // A crafted list in closing (post) order: the fold sorts it.
    const LayerTimes t = foldSpans({
        span(22, 25, Layer::Port, 2),
        span(20, 30, Layer::Stms, 1),
        span(0, 100, Layer::Sim, 0),
    });
    EXPECT_EQ(t.self(Layer::Sim), 90);
    EXPECT_EQ(t.self(Layer::Stms), 7);
    EXPECT_EQ(t.self(Layer::Port), 3);
}

TEST(SpanFold, OverlappingCallbacksAreMergedNotDoubleCounted)
{
    // Two completion callbacks whose intervals overlap under one
    // parent: the parent loses their union (10..70), not the sum.
    const LayerTimes t = foldSpans({
        span(0, 100, Layer::Sim, 0),
        span(10, 50, Layer::Stms, 1),
        span(30, 70, Layer::Stms, 1),
    });
    EXPECT_EQ(t.self(Layer::Sim), 40);
    EXPECT_EQ(t.self(Layer::Stms), 80);
    EXPECT_EQ(t.rootNs, 100);
}

TEST(SpanFold, ChildrenAreClippedToTheirParent)
{
    const LayerTimes t = foldSpans({
        span(0, 50, Layer::Sim, 0),
        span(40, 60, Layer::Stms, 1),
    });
    EXPECT_EQ(t.self(Layer::Sim), 40);
}

TEST(SpanFold, ZeroLengthSpansCountCallsButNoTime)
{
    const LayerTimes t = foldSpans({
        span(0, 10, Layer::Sim, 0),
        span(5, 5, Layer::Port, 1),
        span(5, 5, Layer::Stms, 2),
        span(10, 10, Layer::TraceDecode, 1),
    });
    EXPECT_EQ(t.self(Layer::Sim), 10);
    EXPECT_EQ(t.self(Layer::Port), 0);
    EXPECT_EQ(t.self(Layer::Stms), 0);
    EXPECT_EQ(t.calls[static_cast<std::size_t>(Layer::Port)], 1u);
    EXPECT_EQ(t.calls[static_cast<std::size_t>(Layer::TraceDecode)], 1u);
    EXPECT_EQ(t.selfSum(), t.rootNs);
}

TEST(SpanFold, SiblingRootsAddUp)
{
    const LayerTimes t = foldSpans({
        span(0, 10, Layer::Run, 0),
        span(10, 30, Layer::Run, 0),
        span(12, 18, Layer::Sim, 1),
    });
    EXPECT_EQ(t.rootNs, 30);
    EXPECT_EQ(t.self(Layer::Run), 24);
    EXPECT_EQ(t.self(Layer::Sim), 6);
}

TEST(SpanRecorder, RecordedSelfTimesSumToTheRoot)
{
    SpanRecorder recorder;
    {
        SpanRecorder::Scope root(recorder, Layer::Run);
        for (int i = 0; i < 100; ++i) {
            SpanRecorder::Scope sim(recorder, Layer::Sim);
            SpanRecorder::Scope stms(recorder, Layer::Stms);
            SpanRecorder::Scope port(recorder, Layer::Port);
        }
    }
    EXPECT_EQ(recorder.size(), 301u);
    const LayerTimes t = recorder.takeFolded();
    EXPECT_EQ(recorder.size(), 0u);
    EXPECT_EQ(t.selfSum(), t.rootNs);
    EXPECT_EQ(t.calls[static_cast<std::size_t>(Layer::Port)], 100u);
    for (const std::int64_t ns : t.selfNs)
        EXPECT_GE(ns, 0);
}

TEST(SpanWallCheck, SpansMayMissOnlyTheTolerance)
{
    EXPECT_TRUE(spansCoverWall(1000, 1000, 0.01));
    EXPECT_TRUE(spansCoverWall(990, 1000, 0.01));
    EXPECT_TRUE(spansCoverWall(0, 0, 0.01));
    EXPECT_FALSE(spansCoverWall(989, 1000, 0.01));  // Time went unseen.
    EXPECT_FALSE(spansCoverWall(1001, 1000, 0.01)); // Spans overcount.
    EXPECT_FALSE(spansCoverWall(0, 1000, 0.01));    // No root span.
}

TEST(SpanWallCheck, RecordedRootSpansCoverTheirWallClock)
{
    SpanRecorder recorder;
    const std::int64_t start = SpanRecorder::nowNs();
    {
        SpanRecorder::Scope root(recorder, Layer::Run);
        volatile std::uint64_t sink = 0;
        for (std::uint64_t i = 0; i < 1000000; ++i)
            sink = sink + i;
    }
    const std::int64_t wall = SpanRecorder::nowNs() - start;
    EXPECT_TRUE(spansCoverWall(recorder.takeFolded().rootNs, wall, 0.01));
}

} // namespace
} // namespace stmsbench
