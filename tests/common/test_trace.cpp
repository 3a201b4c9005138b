#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/trace.hpp"

namespace cosa::trace {
namespace {

/** Every test drives the (global, immortal) tracer through a known
 *  clean state and restores the defaults afterwards. */
class TraceTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        Tracer& tracer = Tracer::global();
        tracer.setEnabled(false);
        tracer.setFineDetail(false);
        tracer.setBufferCapacity(65536);
        tracer.clear();
    }

    void TearDown() override { SetUp(); }
};

TEST_F(TraceTest, DisabledTracerRecordsNothing)
{
    {
        Span span("test.disabled", "test");
        span.arg("ignored");
    }
    EXPECT_EQ(Tracer::global().recordedEvents(), 0);
}

TEST_F(TraceTest, SpanRecordsNameCategoryAndArg)
{
    Tracer& tracer = Tracer::global();
    tracer.setEnabled(true);
    {
        Span span("test.span", "testcat");
        span.arg("detail-string");
    }
    EXPECT_EQ(tracer.recordedEvents(), 1);

    const std::string json = tracer.chromeTraceJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"test.span\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"testcat\""), std::string::npos);
    EXPECT_NE(json.find("detail-string"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST_F(TraceTest, ExplicitEndIsIdempotent)
{
    Tracer& tracer = Tracer::global();
    tracer.setEnabled(true);
    {
        Span span("test.end", "test");
        span.end();
        span.end(); // second end records nothing
    } // neither does the destructor
    EXPECT_EQ(tracer.recordedEvents(), 1);
}

TEST_F(TraceTest, FineSpansRequireFineDetail)
{
    Tracer& tracer = Tracer::global();
    tracer.setEnabled(true);
    { Span span("test.fine", "test", /*fine=*/true); }
    EXPECT_EQ(tracer.recordedEvents(), 0);

    tracer.setFineDetail(true);
    { Span span("test.fine", "test", /*fine=*/true); }
    EXPECT_EQ(tracer.recordedEvents(), 1);
}

TEST_F(TraceTest, ConcurrentThreadsEachKeepTheirOwnBuffer)
{
    Tracer& tracer = Tracer::global();
    tracer.setEnabled(true);

    constexpr int kThreads = 4;
    constexpr int kSpans = 100;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([] {
            for (int i = 0; i < kSpans; ++i)
                Span span("test.mt", "test");
        });
    }
    for (std::thread& thread : threads)
        thread.join();

    EXPECT_EQ(tracer.recordedEvents(),
              static_cast<std::int64_t>(kThreads) * kSpans);
    EXPECT_EQ(tracer.droppedEvents(), 0);
    // Export stays well-formed under multi-thread input and names
    // every thread.
    const std::string json = tracer.chromeTraceJson();
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
}

TEST_F(TraceTest, FullBufferDropsInsteadOfGrowing)
{
    Tracer& tracer = Tracer::global();
    tracer.setEnabled(true);
    // Applies to buffers created below; requests under the floor of 16
    // are clamped up to it.
    tracer.setBufferCapacity(10);
    EXPECT_EQ(tracer.bufferCapacity(), 16);

    std::thread worker([] {
        for (int i = 0; i < 25; ++i)
            Span span("test.overflow", "test");
    });
    worker.join();

    EXPECT_EQ(tracer.recordedEvents(), 16);
    EXPECT_EQ(tracer.droppedEvents(), 9);
    // The export reports the loss instead of hiding it.
    EXPECT_NE(tracer.chromeTraceJson().find("\"droppedEvents\":9"),
              std::string::npos);
}

TEST_F(TraceTest, ClearResetsEventsAndDrops)
{
    Tracer& tracer = Tracer::global();
    tracer.setEnabled(true);
    { Span span("test.clear", "test"); }
    ASSERT_GT(tracer.recordedEvents(), 0);

    tracer.clear();
    EXPECT_EQ(tracer.recordedEvents(), 0);
    EXPECT_EQ(tracer.droppedEvents(), 0);
}

TEST_F(TraceTest, ManualRecordAndMonotonicClock)
{
    Tracer& tracer = Tracer::global();
    tracer.setEnabled(true);
    const std::int64_t t0 = Tracer::nowMicros();
    const std::int64_t t1 = Tracer::nowMicros();
    EXPECT_GE(t1, t0);

    // The retroactive-record path (queue-wait spans are recorded this
    // way once the job actually starts).
    tracer.record("test.manual", "test", t0, t1 - t0, "queued");
    EXPECT_EQ(tracer.recordedEvents(), 1);
    EXPECT_NE(tracer.chromeTraceJson().find("\"name\":\"test.manual\""),
              std::string::npos);
}

} // namespace
} // namespace cosa::trace
