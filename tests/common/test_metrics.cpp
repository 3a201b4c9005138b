#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"

namespace cosa::metrics {
namespace {

// The registry is process-global and immortal, so every test works on
// families with test-unique names and asserts on deltas, never on
// absolute values of shared families.

TEST(Metrics, CounterSumsAcrossConcurrentThreads)
{
    Counter& counter = MetricsRegistry::global().counter(
        "test_metrics_concurrent_total", "concurrency test counter");
    const std::int64_t before = counter.value();

    constexpr int kThreads = 8;
    constexpr int kIncs = 20000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&counter] {
            for (int i = 0; i < kIncs; ++i)
                counter.inc();
        });
    }
    for (std::thread& thread : threads)
        thread.join();

    EXPECT_EQ(counter.value() - before,
              static_cast<std::int64_t>(kThreads) * kIncs);
}

TEST(Metrics, LabeledChildrenAreDistinctAndStable)
{
    MetricsRegistry& registry = MetricsRegistry::global();
    Counter& a = registry.counter("test_metrics_labeled_total", "labels",
                                  {{"tier", "a"}});
    Counter& b = registry.counter("test_metrics_labeled_total", "labels",
                                  {{"tier", "b"}});
    EXPECT_NE(&a, &b);

    // Re-requesting the same label set returns the same child...
    Counter& a_again = registry.counter("test_metrics_labeled_total", "",
                                        {{"tier", "a"}});
    EXPECT_EQ(&a, &a_again);

    // ...and label order does not matter (the signature is sorted).
    Counter& two = registry.counter("test_metrics_labeled_total", "",
                                    {{"tier", "a"}, {"backend", "x"}});
    Counter& two_swapped = registry.counter(
        "test_metrics_labeled_total", "",
        {{"backend", "x"}, {"tier", "a"}});
    EXPECT_EQ(&two, &two_swapped);

    const std::int64_t before_a = a.value();
    const std::int64_t before_b = b.value();
    a.inc(3);
    EXPECT_EQ(a.value() - before_a, 3);
    EXPECT_EQ(b.value() - before_b, 0);
}

TEST(Metrics, GaugeSetAddAndConcurrentAdds)
{
    Gauge& gauge =
        MetricsRegistry::global().gauge("test_metrics_gauge", "gauge");
    gauge.set(2.5);
    EXPECT_EQ(gauge.value(), 2.5);
    gauge.add(1.25);
    EXPECT_EQ(gauge.value(), 3.75);

    // Integer-valued adds are exact in a double well past this range,
    // so the CAS loop must account for every one of them.
    gauge.set(0.0);
    constexpr int kThreads = 4;
    constexpr int kAdds = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&gauge] {
            for (int i = 0; i < kAdds; ++i)
                gauge.add(1.0);
        });
    }
    for (std::thread& thread : threads)
        thread.join();
    EXPECT_EQ(gauge.value(), static_cast<double>(kThreads) * kAdds);
}

TEST(Metrics, HistogramBucketPlacementIsExact)
{
    Histogram& hist = MetricsRegistry::global().histogram(
        "test_metrics_hist_placement", "bucket placement");
    const std::vector<double>& bounds = hist.bounds();
    // Default spec: 2^-20 .. 2^12 in 4x steps = 17 finite bounds.
    ASSERT_EQ(bounds.size(), 17u);
    EXPECT_EQ(bounds.front(), std::ldexp(1.0, -20));
    EXPECT_EQ(bounds.back(), std::ldexp(1.0, 12));

    auto bucketOf = [&](double v) {
        const std::vector<std::int64_t> before = hist.bucketCounts();
        hist.observe(v);
        const std::vector<std::int64_t> after = hist.bucketCounts();
        for (std::size_t i = 0; i < after.size(); ++i) {
            if (after[i] != before[i])
                return static_cast<int>(i);
        }
        return -1;
    };

    // A power of two sits exactly on its upper bound (le is inclusive):
    // 1.0 == 2^0 -> the bucket whose bound is 1.0.
    const int one = bucketOf(1.0);
    ASSERT_GE(one, 0);
    ASSERT_LT(static_cast<std::size_t>(one), bounds.size());
    EXPECT_EQ(bounds[static_cast<std::size_t>(one)], 1.0);

    // Just above a bound moves up one bucket.
    EXPECT_EQ(bucketOf(1.5), one + 1);
    // Zero and negatives land in the first bucket.
    EXPECT_EQ(bucketOf(0.0), 0);
    EXPECT_EQ(bucketOf(-3.0), 0);
    // Values beyond the last finite bound land in +Inf (the extra
    // trailing bucket).
    EXPECT_EQ(bucketOf(1e9), static_cast<int>(bounds.size()));

    EXPECT_EQ(hist.count(), 5);
}

TEST(Metrics, HistogramIsDeterministicAcrossObservationOrder)
{
    // Power-of-two observations make the running sum exact, so the
    // whole histogram (counts and sum) must be identical whatever
    // order — including concurrent order — the observations arrive in.
    MetricsRegistry& registry = MetricsRegistry::global();
    Histogram& fwd = registry.histogram("test_metrics_hist_fwd", "");
    Histogram& rev = registry.histogram("test_metrics_hist_rev", "");

    std::vector<double> values;
    for (int e = -8; e <= 8; ++e)
        for (int repeat = 0; repeat < 3; ++repeat)
            values.push_back(std::ldexp(1.0, e));

    for (double v : values)
        fwd.observe(v);
    for (auto it = values.rbegin(); it != values.rend(); ++it)
        rev.observe(*it);

    EXPECT_EQ(fwd.count(), rev.count());
    EXPECT_EQ(fwd.sum(), rev.sum());
    EXPECT_EQ(fwd.bucketCounts(), rev.bucketCounts());
}

TEST(Metrics, RenderPrometheusFormat)
{
    MetricsRegistry& registry = MetricsRegistry::global();
    registry.counter("test_metrics_render_total", "render-format counter",
                     {{"tier", "batch"}})
        .inc(7);
    registry.gauge("test_metrics_render_gauge", "render-format gauge")
        .set(1.5);
    registry.histogram("test_metrics_render_seconds", "render-format hist")
        .observe(0.25);

    const std::string text = registry.renderPrometheus();
    EXPECT_NE(text.find("# HELP test_metrics_render_total "
                        "render-format counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE test_metrics_render_total counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("test_metrics_render_total{tier=\"batch\"} 7\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE test_metrics_render_gauge gauge\n"),
              std::string::npos);
    EXPECT_NE(text.find("test_metrics_render_gauge 1.5\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE test_metrics_render_seconds histogram\n"),
              std::string::npos);
    EXPECT_NE(text.find("test_metrics_render_seconds_bucket{le=\"+Inf\"}"),
              std::string::npos);
    EXPECT_NE(text.find("test_metrics_render_seconds_sum"),
              std::string::npos);
    EXPECT_NE(text.find("test_metrics_render_seconds_count 1\n"),
              std::string::npos);
    EXPECT_FALSE(text.empty());
    EXPECT_EQ(text.back(), '\n');

    // Render order is deterministic: an immediate second render of
    // unchanged data is byte-identical.
    EXPECT_EQ(text, registry.renderPrometheus());
}

TEST(Metrics, CollectorsRunOnRenderAndCanBeRemoved)
{
    MetricsRegistry& registry = MetricsRegistry::global();
    Gauge& gauge = registry.gauge("test_metrics_collector_gauge", "");
    std::atomic<int> calls{0};
    const std::uint64_t id = registry.addCollector([&] {
        ++calls;
        gauge.set(42.0);
    });

    registry.collect();
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(gauge.value(), 42.0);

    (void)registry.renderPrometheus(); // render collects implicitly
    EXPECT_EQ(calls.load(), 2);

    registry.removeCollector(id);
    registry.collect();
    EXPECT_EQ(calls.load(), 2);
}

} // namespace
} // namespace cosa::metrics
