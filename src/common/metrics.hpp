#pragma once

/**
 * @file
 * Process-wide metrics: sharded counters, gauges, and fixed
 * log-bucketed histograms, labeled (tenant/tier/backend/...), exported
 * as Prometheus text exposition.
 *
 * Shape of the API: a *family* is a metric name plus help text and a
 * type; a *child* is one (label-set, value) cell inside a family.
 * `MetricsRegistry::counter("cosa_jobs_total", help, {{"tier","batch"}})`
 * returns a stable reference to the child — look it up once (per job,
 * per call site, or in a function-local static) and hit the returned
 * handle on the hot path. Handles are never invalidated: the global
 * registry is immortal and children are never removed.
 *
 * Hot-path costs:
 *  - Counter::inc    one relaxed fetch_add on a per-thread shard
 *                    (16 cache-line-padded shards; value() sums them).
 *  - Gauge::set      one relaxed store.
 *  - Histogram::observe  exponent extraction (std::frexp — exact, no
 *                    libm rounding) + one relaxed fetch_add + one CAS
 *                    loop for the running sum.
 *
 * Like the Tracer, the registry never influences computation: updates
 * write to side state only, so results are bit-identical whether or not
 * anything reads the metrics. Collection is always on (the update sites
 * are per-job / per-unique-solve boundaries, far off the simplex inner
 * loops); only *export* is opt-in, via `renderPrometheus()`,
 * `SchedulerService::metricsText()`, `--metrics-out` flags, or the
 * `COSA_METRICS=<path>` env switch (writes Prometheus text at process
 * exit; "-" writes to stderr).
 *
 * Gauges that mirror live state (queue depths, in-flight jobs) are
 * refreshed by *collector* callbacks: register one with
 * `addCollector()`, and every render runs the callbacks first.
 *
 * See docs/observability.md for the metric name / label taxonomy.
 */

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cosa::metrics {

/** Ordered (key, value) label pairs; keys must be unique within a set. */
using Labels = std::vector<std::pair<std::string, std::string>>;

/** Monotone counter sharded across cache-line-padded atomics. */
class Counter
{
  public:
    /** Add @p delta (>= 0) to the calling thread's shard. */
    void inc(std::int64_t delta = 1)
    {
        shards_[shardIndex()].value.fetch_add(delta,
                                              std::memory_order_relaxed);
    }

    /** Sum over shards. Monotone between calls as long as callers only
     *  inc() with non-negative deltas. */
    std::int64_t value() const
    {
        std::int64_t total = 0;
        for (const Shard& s : shards_)
            total += s.value.load(std::memory_order_relaxed);
        return total;
    }

  private:
    friend class MetricsRegistry;
    Counter() = default;

    struct alignas(64) Shard
    {
        std::atomic<std::int64_t> value{0};
    };
    static constexpr int kShards = 16;

    static int shardIndex();

    std::array<Shard, kShards> shards_;
};

/** Last-write-wins double gauge (add() via CAS). */
class Gauge
{
  public:
    void set(double v) { bits_.store(pack(v), std::memory_order_relaxed); }

    void add(double delta)
    {
        std::uint64_t expected = bits_.load(std::memory_order_relaxed);
        while (!bits_.compare_exchange_weak(
            expected, pack(unpack(expected) + delta),
            std::memory_order_relaxed, std::memory_order_relaxed)) {
        }
    }

    double value() const
    {
        return unpack(bits_.load(std::memory_order_relaxed));
    }

  private:
    friend class MetricsRegistry;
    friend class Histogram; // shares the double<->bits packing
    Gauge() = default;

    static std::uint64_t pack(double v);
    static double unpack(std::uint64_t bits);

    std::atomic<std::uint64_t> bits_{0};
};

/**
 * Fixed power-of-two log buckets. With the default spec the upper
 * bounds run 2^-20 s (~1 µs), 2^-18, ..., 2^12 s (~68 min) in 4x steps
 * — 17 finite buckets plus +Inf, sized for solve/wait durations in
 * seconds. Bucketing uses std::frexp, so the bucket index of a given
 * value is exact and platform-independent: identical observation
 * streams produce identical histograms.
 */
class Histogram
{
  public:
    struct Spec
    {
        int min_exp = -20; //!< first upper bound is 2^min_exp
        int max_exp = 12;  //!< last finite upper bound is 2^max_exp
        int step = 2;      //!< exponent stride between bounds
    };

    void observe(double v);

    std::int64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }
    double sum() const { return Gauge::unpack(sum_bits_.load(
        std::memory_order_relaxed)); }

    /** Finite upper bounds, ascending (the +Inf bucket is implicit). */
    const std::vector<double>& bounds() const { return bounds_; }
    /** Per-bucket (non-cumulative) counts; size bounds().size() + 1,
     *  last entry is the +Inf bucket. */
    std::vector<std::int64_t> bucketCounts() const;

  private:
    friend class MetricsRegistry;
    explicit Histogram(const Spec& spec);

    Spec spec_;
    std::vector<double> bounds_;
    std::vector<std::atomic<std::int64_t>> buckets_; //!< bounds + Inf
    std::atomic<std::int64_t> count_{0};
    std::atomic<std::uint64_t> sum_bits_{0};
};

/**
 * The process-wide metric store. Deterministic render order (families
 * by name, children by label signature); thread-safe lookup and
 * render. Use `MetricsRegistry::global()`.
 */
class MetricsRegistry
{
  public:
    /** The one process-wide registry (immortal, like the Tracer). */
    static MetricsRegistry& global();

    /**
     * Find-or-create. The name defines the family; re-requesting an
     * existing family with a different type panics (programmer error),
     * with different help text keeps the first. Returned references
     * stay valid forever.
     */
    Counter& counter(std::string_view name, std::string_view help = "",
                     const Labels& labels = {});
    Gauge& gauge(std::string_view name, std::string_view help = "",
                 const Labels& labels = {});
    Histogram& histogram(std::string_view name, std::string_view help = "",
                         const Labels& labels = {},
                         const Histogram::Spec& spec = {});

    /** Register a callback run before every render (refresh gauges that
     *  mirror live state). Returns an id for removeCollector(). */
    std::uint64_t addCollector(std::function<void()> fn);
    void removeCollector(std::uint64_t id);

    /** Run the collector callbacks now (render does this implicitly). */
    void collect();

    /** Prometheus text exposition (version 0.0.4), ending in '\n'. */
    std::string renderPrometheus();

    /**
     * Write renderPrometheus() to @p path at process exit ("-" =
     * stderr). The `--metrics-out` / `COSA_METRICS` behavior.
     */
    void setOutputPath(std::string path);
    std::string outputPath() const;

  private:
    struct Family;
    struct Impl;

    MetricsRegistry();
    ~MetricsRegistry() = delete; // immortal by construction

    Impl* impl_;
};

} // namespace cosa::metrics
