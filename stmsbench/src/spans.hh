/**
 * @file
 * Host-time spans of the traced benchmark run.
 *
 * The harness opens a span around every call it makes into a layer's
 * public interface (trace cursors, prefetcher hooks, the prefetch
 * port, CmpSystem, the result codec and store). Spans nest strictly —
 * the simulator is single-threaded per run — so a recorder appends
 * each span to an in-memory list when it opens and keeps a stack of
 * the open ones to close. At the end of a simulation run the list is
 * folded into per-layer self times and cleared:
 *
 *   self(span) = length(span) - |union of its direct children,
 *                               clipped to the span|
 *
 * so nested layers are never double counted and the self times of all
 * spans sum to the length of the root spans.
 */

#ifndef STMSBENCH_SPANS_HH
#define STMSBENCH_SPANS_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

namespace stmsbench
{

/** The layers a span can be attributed to. */
enum class Layer : std::uint8_t
{
    Run,            ///< Harness work around one simulation run (root).
    Sim,            ///< CmpSystem construction, addPrefetcher, run().
    Stms,           ///< StmsPrefetcher hooks + its meta-data callbacks.
    Stride,         ///< StridePrefetcher hooks.
    Port,           ///< PrefetchPort calls made by a prefetcher.
    TraceOpen,      ///< trace_io::openSource + TraceSource::openLane.
    TraceDecode,    ///< RecordCursor calls (chunk decode).
    ResultsEncode,  ///< results::encodeRunOutput.
    ResultsAppend,  ///< ResultStore::append.
    Count,
};

inline constexpr std::size_t kLayers =
    static_cast<std::size_t>(Layer::Count);

/** Stable short name of @p layer (the span file's layer column). */
const char *layerName(Layer layer);

/** One closed span: [start, end) in nanoseconds, at @c depth (0 for a
 *  root span). */
struct RawSpan
{
    std::int64_t start = 0;
    std::int64_t end = 0;
    Layer layer = Layer::Run;
    std::uint16_t depth = 0;
};

/** Per-layer totals of a folded span list. */
struct LayerTimes
{
    std::array<std::int64_t, kLayers> selfNs{};
    std::array<std::uint64_t, kLayers> calls{};
    /** Summed length of the depth-0 spans. */
    std::int64_t rootNs = 0;

    void add(const LayerTimes &other);

    std::int64_t
    self(Layer layer) const
    {
        return selfNs[static_cast<std::size_t>(layer)];
    }

    std::int64_t selfSum() const;
};

/**
 * Fold @p spans (any order) into per-layer self times. A span's
 * parent is the nearest earlier-starting span one level shallower;
 * overlapping children are merged before subtraction, children are
 * clipped to their parent, and zero-length spans count as calls with
 * no time.
 */
LayerTimes foldSpans(std::vector<RawSpan> spans);

/**
 * The independent check on a fold: root spans totalling @p spanNs,
 * each opened just inside a wall-clock reading that totals @p wallNs,
 * must never exceed it and may miss at most @p tolerance of it.
 */
bool spansCoverWall(std::int64_t spanNs, std::int64_t wallNs,
                    double tolerance);

/** Stack-disciplined span collector for one thread. */
class SpanRecorder
{
  public:
    /** RAII span: opens on construction, closes on destruction. */
    class Scope
    {
      public:
        Scope(SpanRecorder &recorder, Layer layer) : recorder_(recorder)
        {
            recorder_.begin(layer);
        }
        ~Scope() { recorder_.end(); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder &recorder_;
    };

    static std::int64_t
    nowNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    void begin(Layer layer);
    void end();

    std::size_t size() const { return spans_.size(); }

    /** Fold the spans closed so far and forget them. */
    LayerTimes takeFolded();

  private:
    std::vector<std::size_t> open_;  ///< Indices into spans_.
    std::vector<RawSpan> spans_;
};

} // namespace stmsbench

#endif // STMSBENCH_SPANS_HH
