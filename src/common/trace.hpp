#pragma once

/**
 * @file
 * Process-wide tracing: RAII scoped spans buffered in thread-local
 * rings, exported as Chrome trace-event JSON (loadable in
 * chrome://tracing or https://ui.perfetto.dev).
 *
 * Design constraints, in order:
 *  1. *Determinism*: tracing must never perturb results. Spans only
 *     read the steady clock and append plain records to per-thread
 *     buffers — no instrumented code path branches on trace state, so
 *     results and pivot sequences are bit-identical with tracing on or
 *     off (asserted by tests/engine/test_observability).
 *  2. *Off is free*: a disabled `Span` costs one relaxed atomic load
 *     and a branch. Instrumentation can therefore stay in hot-ish
 *     paths (per-LP-solve, per-factorization) permanently.
 *  3. *Bounded*: every thread buffers at most `bufferCapacity()`
 *     events; once full, further events are counted as dropped rather
 *     than reallocating mid-solve. Export reports the drop count.
 *
 * Span names and categories must be string literals (or otherwise
 * immortal strings): records store the pointers, not copies. The
 * optional per-span arg *is* copied (into a small fixed buffer), so
 * dynamic strings like layer names are safe there.
 *
 * Two detail levels keep default traces readable: normal spans
 * (service admission, job phases, per-layer solves, MIP phases) always
 * record when tracing is on; *fine* spans (per-LP simplex solves,
 * per-factorization) record only when fine detail is also enabled —
 * they are per-branch-and-bound-node events and dominate the buffers
 * otherwise.
 *
 * Environment switches (read once, at first use of the global tracer):
 *   COSA_TRACE=<path>     enable tracing; write Chrome trace JSON to
 *                         <path> at process exit ("1" = enable only).
 *   COSA_TRACE_DETAIL=fine  also record fine-detail spans.
 *   COSA_TRACE_BUFFER=<N> per-thread event capacity, a whole number
 *                         >= 16 (default 65536; any other value warns
 *                         once and keeps the default).
 *
 * See docs/observability.md for the span taxonomy.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace cosa::trace {

/** One completed span, as buffered in a thread ring. */
struct Event
{
    const char* name = nullptr; //!< static string (span name)
    const char* cat = nullptr;  //!< static string (category)
    std::int64_t ts_us = 0;     //!< start, microseconds since trace base
    std::int64_t dur_us = 0;    //!< duration in microseconds
    char arg[48] = {};          //!< optional detail (copied, truncated)
};

/**
 * The process-wide span sink. Use `Tracer::global()`; spans register
 * their thread's buffer on first use. Thread-safe throughout: writers
 * take only their own thread's (uncontended) buffer mutex; export and
 * clear take them all.
 */
class Tracer
{
  public:
    /** The one process-wide tracer (immortal — never destroyed, so
     *  atexit dumps and static-destruction-order issues cannot bite). */
    static Tracer& global();

    /** Master switch; a disabled tracer records nothing. */
    void setEnabled(bool enabled)
    {
        enabled_.store(enabled, std::memory_order_relaxed);
    }
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Record fine-detail spans (per-LP, per-factorization) too. */
    void setFineDetail(bool fine)
    {
        fine_.store(fine, std::memory_order_relaxed);
    }
    bool fineDetail() const
    {
        return fine_.load(std::memory_order_relaxed);
    }

    /** Per-thread event capacity (floor 16); applies to buffers
     *  created after the call. */
    void setBufferCapacity(std::int64_t capacity);
    std::int64_t bufferCapacity() const
    {
        return buffer_capacity_.load(std::memory_order_relaxed);
    }

    /**
     * Enable tracing and write the Chrome trace to @p path when the
     * process exits (the `--trace-out` / `COSA_TRACE=<path>` behavior).
     */
    void setOutputPath(std::string path);
    std::string outputPath() const;

    /** Microseconds on the steady clock since the trace base (first
     *  use). The timestamp domain of every event. */
    static std::int64_t nowMicros();

    /** Append one completed span to the calling thread's buffer
     *  (regardless of the enabled flag — `Span` does the gating). */
    void record(const char* name, const char* cat, std::int64_t ts_us,
                std::int64_t dur_us, std::string_view arg = {});

    /** Events buffered across all threads right now. */
    std::int64_t recordedEvents() const;
    /** Events dropped because a thread buffer was full. */
    std::int64_t droppedEvents() const;

    /** The full Chrome trace-event JSON document (deterministic order:
     *  events sort by thread id, then timestamp). */
    std::string chromeTraceJson() const;

    /** Write chromeTraceJson() to @p path; false on I/O failure. */
    bool writeChromeTrace(const std::string& path) const;

    /** Drop every buffered event and the drop counters (buffers stay
     *  registered). Test / between-phases helper. */
    void clear();

  private:
    struct ThreadLog;

    Tracer();
    ~Tracer() = delete; // immortal by construction

    /** The calling thread's buffer (registered on first use). */
    ThreadLog& threadLog();

    std::atomic<bool> enabled_{false};
    std::atomic<bool> fine_{false};
    std::atomic<std::int64_t> buffer_capacity_{65536};

    mutable std::mutex* registry_mutex_; //!< guards logs_ and path
    std::vector<std::unique_ptr<ThreadLog>>* logs_;
    std::string* output_path_;
};

/**
 * RAII scoped span: records [construction, destruction) into the
 * calling thread's buffer of the global tracer. @p name and @p cat
 * must be string literals. Construct with fine=true for per-node /
 * per-factorization detail spans.
 */
class Span
{
  public:
    Span(const char* name, const char* cat, bool fine = false);

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /** Attach a short detail string (copied; truncated to the record's
     *  fixed arg buffer). No-op on an inactive span. */
    void arg(std::string_view detail);

    /** Record the span now, before scope exit (sequential phases that
     *  share one scope). Idempotent; the destructor is then a no-op. */
    void end();

    ~Span() { end(); }

  private:
    const char* name_ = nullptr;
    const char* cat_ = nullptr;
    std::int64_t start_us_ = 0;
    bool active_ = false;
    char arg_[48] = {};
};

} // namespace cosa::trace
