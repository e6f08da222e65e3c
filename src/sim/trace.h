/**
 * @file
 * Simulation tracing: bounded rings of time-stamped instant events and
 * structured spans that components append to when tracing is enabled.
 * Spans measure end-to-end latencies (command round trips, packet
 * lifetimes through wrappers and CDC FIFOs); the telemetry exporter
 * renders both as Chrome trace_event JSON. Off by default and free
 * when off.
 *
 * Spans are causal: each carries an optional parent span and a 64-bit
 * correlation id, so one host command unfolds into a span *tree*
 * (driver call -> wire -> kernel decode -> RBB execute). Context
 * propagates two ways: in-process via an ambient TraceContext that
 * begin/completeSpan stamp onto new spans, and across the simulated
 * wire via a 16-bit tag the command driver packs into the packet's
 * Options word (armTag / taggedContext).
 */

#ifndef HARMONIA_SIM_TRACE_H_
#define HARMONIA_SIM_TRACE_H_

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace harmonia {

class Component;

/** Identifier of an in-flight or completed span. 0 means "no span". */
using SpanId = std::uint64_t;

/**
 * Causal context a span is born under: the enclosing span and the
 * correlation id of the whole request tree. A default-constructed
 * context is "unarmed" and stamps nothing.
 */
struct TraceContext {
    SpanId parent = 0;
    std::uint64_t corr = 0;

    bool armed() const { return parent != 0 || corr != 0; }
};

/**
 * Fixed-capacity ring with O(1) eviction of the oldest element. The
 * trace's hot path must not allocate per record once warm, so storage
 * is a vector reused in place.
 */
template <typename T>
class BoundedRing {
  public:
    explicit BoundedRing(std::size_t capacity) : capacity_(capacity) {}

    void
    push(T item)
    {
        if (storage_.size() < capacity_) {
            storage_.push_back(std::move(item));
            return;
        }
        storage_[head_] = std::move(item);
        head_ = (head_ + 1) % capacity_;
    }

    std::size_t size() const { return storage_.size(); }
    std::size_t capacity() const { return capacity_; }

    /** Element @p i counted from the oldest retained entry. */
    const T &
    at(std::size_t i) const
    {
        return storage_[(head_ + i) % storage_.size()];
    }

    /** Materialize oldest-to-newest (exporters, tests). */
    std::vector<T>
    snapshot() const
    {
        std::vector<T> out;
        out.reserve(storage_.size());
        for (std::size_t i = 0; i < storage_.size(); ++i)
            out.push_back(at(i));
        return out;
    }

    void
    clear()
    {
        storage_.clear();
        head_ = 0;
    }

    void
    setCapacity(std::size_t capacity)
    {
        // Preserve the newest entries that still fit.
        std::vector<T> keep = snapshot();
        if (keep.size() > capacity)
            keep.erase(keep.begin(),
                       keep.begin() +
                           static_cast<long>(keep.size() - capacity));
        capacity_ = capacity;
        storage_ = std::move(keep);
        head_ = 0;
    }

  private:
    std::size_t capacity_;
    std::size_t head_ = 0;
    std::vector<T> storage_;
};

/** Process-wide trace: instant events plus begin/end spans. */
class Trace {
  public:
    /** One instant event. */
    struct Entry {
        Tick tick = 0;
        std::string who;
        std::string what;
    };

    /** One completed (or still-open) span. */
    struct Span {
        SpanId id = 0;
        SpanId parent = 0;         ///< enclosing span, 0 = root
        std::uint64_t corr = 0;    ///< request-tree correlation id
        Tick begin = 0;
        Tick end = 0;
        std::string who;   ///< track the span renders on (component)
        std::string what;  ///< span name
        std::string cat;   ///< category (wrapper, fifo, cmd, ...)
    };

    /** Default ring depth; raise via setCapacity / HARMONIA_TRACE_CAP. */
    static constexpr std::size_t kCapacity = 4096;

    /** Default open-span table bound (leak guard). */
    static constexpr std::size_t kMaxOpenSpans = 4096;

    /** The process-wide trace; inline so a disabled call site pays
     *  only the static's guard test before its enabled() branch. */
    static Trace &
    instance()
    {
        static Trace t;
        return t;
    }

    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    // The recording calls take their strings as views and copy them
    // only when tracing is on: with tracing off a call is one branch,
    // so per-packet call sites need no enabled() guard of their own.

    /** Append an instant event (oldest entries evicted in O(1)). */
    void
    record(Tick tick, std::string_view who, std::string_view what)
    {
        if (enabled_)
            pushEntry(tick, who, what);
    }

    /**
     * Open a span. Returns 0 when tracing is disabled or the open-span
     * table is full; endSpan(0) is a no-op, so callers need no guard.
     * The span is stamped with the ambient context (see setContext).
     */
    SpanId
    beginSpan(Tick begin, std::string_view who, std::string_view what,
              std::string_view cat = "span")
    {
        return enabled_ ? openSpan(begin, who, what, cat, current_) : 0;
    }

    /** Open a span under an explicit context instead of the ambient. */
    SpanId
    beginSpan(Tick begin, std::string_view who, std::string_view what,
              std::string_view cat, const TraceContext &ctx)
    {
        return enabled_ ? openSpan(begin, who, what, cat, ctx) : 0;
    }

    /**
     * Close a span and return its duration in ticks. Unknown or zero
     * ids return 0 and are counted, never corrupting recorded spans.
     */
    Tick endSpan(SpanId id, Tick end);

    /** Record an already-measured interval as one completed span. */
    void
    completeSpan(Tick begin, Tick end, std::string_view who,
                 std::string_view what, std::string_view cat = "span")
    {
        if (enabled_)
            pushSpan(begin, end, who, what, cat, current_);
    }

    /** Same, under an explicit context instead of the ambient. */
    void
    completeSpan(Tick begin, Tick end, std::string_view who,
                 std::string_view what, std::string_view cat,
                 const TraceContext &ctx)
    {
        if (enabled_)
            pushSpan(begin, end, who, what, cat, ctx);
    }

    // --- Causal context -------------------------------------------

    /** Allocate a fresh correlation id (never 0). */
    std::uint64_t newCorrelation() { return nextCorr_++; }

    /**
     * Set the ambient context new spans are stamped with. The context
     * really is a thread-local (components tick on worker threads when
     * the engine runs domains in parallel); prefer ScopedTraceContext
     * so nesting restores correctly.
     */
    void setContext(const TraceContext &ctx) { current_ = ctx; }
    const TraceContext &context() const { return current_; }
    void clearContext() { current_ = TraceContext{}; }

    /**
     * Register @p ctx for wire propagation and return the 16-bit tag
     * that names it (the command driver packs the tag into the command
     * packet's Options high half). Returns 0 — meaning "don't write a
     * tag" — when tracing is disabled or the tag space is exhausted.
     */
    std::uint16_t armTag(const TraceContext &ctx);

    /** Context registered under @p tag; unarmed when 0 or unknown. */
    TraceContext taggedContext(std::uint16_t tag) const;

    /** Release a tag (idempotent). */
    void disarmTag(std::uint16_t tag);

    std::size_t armedTagCount() const { return tags_.size(); }

    // --- Introspection --------------------------------------------

    std::vector<Entry> entries() const { return entries_.snapshot(); }
    std::size_t size() const { return entries_.size(); }

    std::vector<Span> spans() const { return spans_.snapshot(); }
    std::size_t spanCount() const { return spans_.size(); }
    std::size_t openSpanCount() const { return open_.size(); }

    /**
     * Begin tick of a still-open span; 0 when unknown. Children use
     * it to clamp their own window inside the parent's, keeping the
     * self-time telescoping identity exact.
     */
    Tick openSpanBegin(SpanId id) const;

    /** endSpan() calls that matched no open span. */
    std::uint64_t unmatchedEnds() const { return unmatchedEnds_; }

    /** beginSpan() calls dropped because the open table was full. */
    std::uint64_t droppedOpens() const { return droppedOpens_; }

    void clear();

    /**
     * Resize both rings (long runs need deeper history). Capacity 0 is
     * clamped to 1; the newest retained entries survive.
     */
    void setCapacity(std::size_t capacity);
    std::size_t capacity() const { return entries_.capacity(); }

    /** Bound on concurrently open spans (clamped to >= 1). */
    void setMaxOpenSpans(std::size_t n);
    std::size_t maxOpenSpans() const { return maxOpen_; }

    /**
     * Apply the HARMONIA_TRACE_CAP environment override (ring depth
     * and open-span bound) — a full chaos drill outgrows the default
     * 4096. instance() applies it once at first use; exposed so tests
     * and long-running tools can re-read the environment.
     */
    void applyEnvCapacity();

    /** Render the last @p last_n instant entries, one per line. */
    std::string dump(std::size_t last_n = kCapacity) const;

  private:
    Trace() { applyEnvCapacity(); }

    // Enabled-only halves of record / beginSpan / completeSpan.
    void pushEntry(Tick tick, std::string_view who, std::string_view what);
    SpanId openSpan(Tick begin, std::string_view who,
                    std::string_view what, std::string_view cat,
                    const TraceContext &ctx);
    void pushSpan(Tick begin, Tick end, std::string_view who,
                  std::string_view what, std::string_view cat,
                  const TraceContext &ctx);

    bool enabled_ = false;
    SpanId nextSpanId_ = 1;
    std::uint64_t nextCorr_ = 1;
    std::uint16_t nextTag_ = 1;
    std::uint64_t unmatchedEnds_ = 0;
    std::uint64_t droppedOpens_ = 0;
    std::size_t maxOpen_ = kMaxOpenSpans;
    static thread_local TraceContext current_;
    BoundedRing<Entry> entries_{kCapacity};
    BoundedRing<Span> spans_{kCapacity};
    std::map<SpanId, Span> open_;
    std::map<std::uint16_t, TraceContext> tags_;
};

/**
 * RAII ambient-context scope: sets the trace's current context on
 * construction and restores the previous one on destruction, so
 * nested scopes (kernel dispatch inside a driver call) compose.
 */
class ScopedTraceContext {
  public:
    explicit ScopedTraceContext(const TraceContext &ctx)
        : saved_(Trace::instance().context())
    {
        Trace::instance().setContext(ctx);
    }

    ~ScopedTraceContext() { Trace::instance().setContext(saved_); }

    ScopedTraceContext(const ScopedTraceContext &) = delete;
    ScopedTraceContext &operator=(const ScopedTraceContext &) = delete;

  private:
    TraceContext saved_;
};

/**
 * Record an event on behalf of a component. Returns before touching
 * the varargs when tracing is disabled, so un-guarded call sites cost
 * only the test-and-branch; callers may still format eagerly behind
 * enabled() for expensive arguments.
 */
void trace(const Component &component, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

} // namespace harmonia

#endif // HARMONIA_SIM_TRACE_H_
