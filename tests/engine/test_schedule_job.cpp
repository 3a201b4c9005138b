#include <gtest/gtest.h>

#include <vector>

#include "engine/scheduler_service.hpp"
#include "service_test_util.hpp"

namespace cosa {
namespace {

using test::fastRandomRequest;
using test::scheduleNetwork;
using test::submit;

TEST(ScheduleJob, SubmitWaitMatchesBlockingWrapper)
{
    const Workload net = workloads::resNet50Full();
    const ArchSpec arch = ArchSpec::simbaBaseline();

    const NetworkResult blocking =
        scheduleNetwork(fastRandomRequest(2), net, arch);

    ScheduleJob job = submit(fastRandomRequest(2), net, arch);
    const std::vector<NetworkResult> results = job.wait();
    EXPECT_TRUE(job.done());
    EXPECT_FALSE(job.cancelled());
    ASSERT_EQ(results.size(), 1u);

    const NetworkResult& async = results.front();
    ASSERT_EQ(async.layers.size(), blocking.layers.size());
    for (std::size_t l = 0; l < async.layers.size(); ++l) {
        EXPECT_EQ(async.layers[l].result.mapping,
                  blocking.layers[l].result.mapping);
        EXPECT_EQ(async.layers[l].result.eval.cycles,
                  blocking.layers[l].result.eval.cycles);
    }
    EXPECT_EQ(async.total_cycles, blocking.total_cycles);
    EXPECT_EQ(async.num_unique, blocking.num_unique);
    EXPECT_EQ(async.num_solved, blocking.num_solved);
    EXPECT_EQ(async.num_cancelled, 0);

    // wait() is idempotent.
    const auto again = job.wait();
    ASSERT_EQ(again.size(), 1u);
    EXPECT_EQ(again.front().total_cycles, async.total_cycles);
}

/** The deterministic (thread-count-independent) part of an event. */
struct EventRecord
{
    std::int64_t completed;
    std::int64_t total;
    int unique_index;
    std::string layer;
    bool from_cache;
    bool found;

    bool operator==(const EventRecord&) const = default;
};

std::vector<EventRecord>
runAndCollect(ScheduleRequest request, const Workload& net,
              const ArchSpec& arch)
{
    std::vector<EventRecord> events;
    ScheduleJob job = submit(std::move(request), net, arch);
    job.onProgress([&](const JobProgress& p) {
        events.push_back({p.completed, p.total, p.unique_index, p.layer,
                          p.from_cache, p.found});
    });
    job.wait();
    return events;
}

TEST(ScheduleJob, ProgressEventsAreDeterministicAcrossThreadCounts)
{
    const Workload net = workloads::resNet50Full();
    const ArchSpec arch = ArchSpec::simbaBaseline();

    const auto e1 = runAndCollect(fastRandomRequest(1), net, arch);
    const auto en = runAndCollect(fastRandomRequest(4), net, arch);

    // Exactly one event per unique problem, in unique-index order,
    // with cumulative counters — identical at any thread count.
    ASSERT_EQ(e1.size(), 23u);
    for (std::size_t i = 0; i < e1.size(); ++i) {
        EXPECT_EQ(e1[i].unique_index, static_cast<int>(i));
        EXPECT_EQ(e1[i].completed, static_cast<std::int64_t>(i) + 1);
        EXPECT_EQ(e1[i].total, 23);
        EXPECT_FALSE(e1[i].from_cache);
    }
    EXPECT_EQ(e1, en);
}

TEST(ScheduleJob, CacheHitsEmitProgressAndLateSubscribersReplay)
{
    const Workload net = workloads::resNet50Full();
    const ArchSpec arch = ArchSpec::simbaBaseline();
    ScheduleRequest request = fastRandomRequest(2);
    request.cache = std::make_shared<ScheduleCache>();

    scheduleNetwork(request, net, arch); // warm the cache

    ScheduleJob job = submit(request, net, arch);
    job.wait(); // finish first: the subscriber below is maximally late
    std::vector<EventRecord> events;
    job.onProgress([&](const JobProgress& p) {
        events.push_back({p.completed, p.total, p.unique_index, p.layer,
                          p.from_cache, p.found});
    });
    ASSERT_EQ(events.size(), 23u); // replayed in full, in order
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].unique_index, static_cast<int>(i));
        EXPECT_TRUE(events[i].from_cache);
    }
}

TEST(ScheduleJob, CancelMidBatchYieldsConsistentPartialResults)
{
    const Workload net = workloads::resNet50Full();
    const ArchSpec arch = ArchSpec::simbaBaseline();
    // One task at a time: solves run in unique-problem order, so
    // cancelling from the third progress event deterministically keeps
    // exactly the first three solves.
    auto cache = std::make_shared<ScheduleCache>();
    ScheduleRequest request = fastRandomRequest(1);
    request.cache = cache;

    // The callback is installed at submit time, so it observes every
    // event live and the cancellation point is exact.
    ScheduleJob job = submit(request, net, arch, [](const JobProgress& p) {
        if (p.completed == 3)
            p.requestCancel();
    });
    const std::vector<NetworkResult> results = job.wait();
    EXPECT_TRUE(job.done());
    EXPECT_TRUE(job.cancelled());

    ASSERT_EQ(results.size(), 1u);
    const NetworkResult& net_result = results.front();
    EXPECT_TRUE(net_result.cancelled);
    EXPECT_EQ(net_result.num_unique, 23);
    EXPECT_EQ(net_result.num_solved, 3);
    EXPECT_EQ(net_result.num_cancelled, 20);
    EXPECT_FALSE(net_result.all_found);

    // Per-layer view: solved problems carry full results, cancelled
    // ones are flagged and empty — never a half-written schedule.
    for (const LayerScheduleResult& lr : net_result.layers) {
        if (lr.cancelled) {
            EXPECT_FALSE(lr.result.found);
        } else {
            EXPECT_TRUE(lr.result.found);
            EXPECT_GT(lr.result.eval.cycles, 0.0);
        }
    }

    // No executor work leaked: only completed solves were cached.
    EXPECT_EQ(cache->stats().entries, 3);

    // The cache stays usable: a fresh job finishes the remaining 20
    // problems and serves the 3 solved ones from the cache.
    const NetworkResult resumed = scheduleNetwork(request, net, arch);
    EXPECT_FALSE(resumed.cancelled);
    EXPECT_EQ(resumed.num_cache_hits, 3);
    EXPECT_EQ(resumed.num_solved, 20);
    EXPECT_EQ(resumed.num_cancelled, 0);
    EXPECT_TRUE(resumed.all_found);
}

TEST(ScheduleJob, MoveAssignOverLiveJobWaitsForIt)
{
    const ArchSpec arch = ArchSpec::simbaBaseline();
    Workload tiny;
    tiny.name = "tiny";
    tiny.layers.push_back(workloads::listing1Layer());
    auto cache = std::make_shared<ScheduleCache>();
    ScheduleRequest request = fastRandomRequest(2);
    request.cache = cache;

    // Overwriting a live handle must wait for the held job and still
    // complete its work. (The second submit() races the first job, so
    // it may hit or miss the cache; either way both jobs complete and
    // agree.)
    ScheduleJob job = submit(request, tiny, arch);
    job = submit(request, tiny, arch);
    const auto results = job.wait();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results.front().num_cache_hits +
                  results.front().num_solved,
              1);
    EXPECT_TRUE(results.front().all_found);
    EXPECT_EQ(cache->stats().entries, 1);
}

TEST(ScheduleJob, DestructorWaitsWithoutCollecting)
{
    const ArchSpec arch = ArchSpec::simbaBaseline();
    Workload tiny;
    tiny.name = "tiny";
    tiny.layers.push_back(workloads::listing1Layer());
    auto cache = std::make_shared<ScheduleCache>();
    ScheduleRequest request = fastRandomRequest(2);
    request.cache = cache;
    {
        ScheduleJob dropped = submit(request, tiny, arch);
        (void)dropped; // destructor must wait for the job, not drop it
    }
    // The work still happened (and is cached).
    EXPECT_EQ(cache->stats().entries, 1);
}

} // namespace
} // namespace cosa
