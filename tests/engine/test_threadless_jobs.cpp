#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/executor.hpp"
#include "engine/scheduler_service.hpp"
#include "problem/workloads.hpp"
#include "service_test_util.hpp"

namespace cosa {
namespace {

/** Live thread count of this process (/proc/self/status "Threads:"). */
int
threadCount()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("Threads:", 0) == 0) {
            std::istringstream field(line.substr(8));
            int count = 0;
            field >> count;
            return count;
        }
    }
    return -1;
}

/** One cheap single-layer request (Random scheduler, ~@p samples of
 *  work), with a distinct K so jobs don't all dedup to one problem. */
ScheduleRequest
tinyRequest(int k, int samples, JobPriority priority = JobPriority::Normal)
{
    ScheduleRequest request;
    Workload net;
    net.name = "tiny" + std::to_string(k);
    net.layers.push_back(
        LayerSpec::fromLabel("1_7_32_" + std::to_string(k) + "_1"));
    request.workloads.push_back(std::move(net));
    request.arch = ArchSpec::simbaBaseline();
    request.scheduler = SchedulerKind::Random;
    request.random.max_samples = samples;
    request.random.target_valid = samples;
    request.priority = priority;
    request.use_cache = false; // every job does real work
    return request;
}

// The tentpole's load-bearing property: a queued job is heap state,
// not a parked thread. A thousand queued jobs must not grow the
// process thread census by even one.
TEST(ThreadlessJobs, ThousandQueuedJobsHoldNoRunnerThreads)
{
    ServiceConfig config;
    config.num_threads = 2;
    SchedulerService service{config};

    // Warm up: one job end-to-end, so every lazily-created service
    // thread (executor workers) exists before the baseline reading.
    service.submit(tinyRequest(16, 2)).takeJob().wait();
    const int baseline = threadCount();
    ASSERT_GT(baseline, 0);

    std::vector<ScheduleJob> jobs;
    jobs.reserve(1002);
    // Two slow Interactive jobs hold both workers, so by strict tiers
    // the Normal flood queues in the executor (sized to outlast the
    // 1000-submission loop below). Normal blockers would not do: at
    // equal tiers, stride scheduling lets the tiny prologues run first.
    jobs.push_back(
        service.submit(tinyRequest(300, 40000, JobPriority::Interactive))
            .takeJob());
    jobs.push_back(
        service.submit(tinyRequest(301, 40000, JobPriority::Interactive))
            .takeJob());
    for (int i = 0; i < 1000; ++i)
        jobs.push_back(service.submit(tinyRequest(32 + i, 1)).takeJob());

    const ServiceStats mid = service.stats();
    EXPECT_GT(mid.queued_now, 800)
        << "the flood must actually be queued for this test to bite";
    EXPECT_EQ(threadCount(), baseline)
        << "queued jobs must not own runner threads";

    for (ScheduleJob& job : jobs)
        job.wait();
    EXPECT_EQ(threadCount(), baseline)
        << "running jobs must not own runner threads either";

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.completed, 1003);
    EXPECT_EQ(stats.queued_now, 0);
    EXPECT_EQ(stats.inflight_now, 0);
}

// A Hybrid solve's walks run on the executor's workers: a job with
// eight walks per layer adds no thread to the census, which therefore
// holds for every scheduler.
TEST(ThreadlessJobs, HybridJobStartsNoThreads)
{
    ServiceConfig config;
    config.num_threads = 2;
    SchedulerService service{config};
    service.submit(tinyRequest(16, 2)).takeJob().wait();

    std::atomic<bool> done{false};
    std::atomic<int> peak{0};
    std::thread sampler([&] {
        while (!done.load()) {
            peak.store(std::max(peak.load(), threadCount()));
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    });
    const int baseline = threadCount(); // the sampler included
    ASSERT_GT(baseline, 0);

    ScheduleRequest request;
    Workload net = workloads::resNet50();
    net.layers.resize(4);
    request.workloads.push_back(std::move(net));
    request.arch = ArchSpec::simbaBaseline();
    request.scheduler = SchedulerKind::Hybrid;
    request.hybrid.num_threads = 8;
    request.hybrid.victory_condition = 100;
    request.use_cache = false;
    const NetworkResult result =
        service.submit(std::move(request)).takeJob().wait().front();
    done.store(true);
    sampler.join();

    EXPECT_TRUE(result.all_found);
    EXPECT_LE(peak.load(), baseline)
        << "a Hybrid solve must not start threads of its own";
}

// Executor-level strict tiers: a Batch-tier task set queued behind a
// sustained Interactive flood waits for the whole flood.
TEST(ThreadlessJobs, ExecutorStrictTiersServeFloodFirst)
{
    constexpr int kFlood = 40;
    Executor executor(1);
    test::SetLatch latch;

    // Occupy the single worker so the victim cannot be picked before
    // the flood is queued behind it.
    executor.submit(
        1,
        [](std::size_t) {
            std::this_thread::sleep_for(std::chrono::milliseconds(30));
        },
        latch.track());

    std::atomic<int> flood_done{0};
    std::atomic<int> flood_done_at_victim{-1};
    Executor::TaskSetOptions batch_options;
    batch_options.tier = JobPriority::Batch;
    executor.submit(
        1,
        [&](std::size_t) { flood_done_at_victim.store(flood_done.load()); },
        latch.track(batch_options));

    Executor::TaskSetOptions interactive_options;
    interactive_options.tier = JobPriority::Interactive;
    for (int i = 0; i < kFlood; ++i) {
        executor.submit(
            1,
            [&](std::size_t) {
                std::this_thread::sleep_for(std::chrono::milliseconds(10));
                flood_done.fetch_add(1);
            },
            latch.track(interactive_options));
    }
    latch.wait();

    EXPECT_EQ(flood_done_at_victim.load(), kFlood)
        << "strict tiers serve the whole flood first";
}

// Service-level strict tiers: the executor runs a Batch job's tasks
// only after every Interactive job's, so it finishes last.
TEST(ThreadlessJobs, ServiceFinishesBatchJobLast)
{
    constexpr int kFlood = 25;
    ServiceConfig config;
    config.num_threads = 1;
    SchedulerService service{config};

    std::mutex order_mutex;
    std::vector<std::string> completion_order;
    const auto track = [&](ScheduleJob& job, std::string label) {
        job.onDone([&, label] {
            std::lock_guard<std::mutex> lock(order_mutex);
            completion_order.push_back(label);
        });
    };

    std::vector<ScheduleJob> jobs;
    // Blocker holds the single worker while the flood is submitted.
    jobs.push_back(service.submit(tinyRequest(200, 3000)).takeJob());
    track(jobs.back(), "blocker");
    jobs.push_back(
        service.submit(tinyRequest(201, 1500, JobPriority::Batch))
            .takeJob());
    track(jobs.back(), "batch");
    for (int i = 0; i < kFlood; ++i) {
        jobs.push_back(
            service
                .submit(tinyRequest(210 + i, 1500, JobPriority::Interactive))
                .takeJob());
        track(jobs.back(), "interactive");
    }
    for (ScheduleJob& job : jobs)
        job.wait();

    ASSERT_EQ(completion_order.size(), jobs.size());
    std::size_t batch_pos = completion_order.size();
    for (std::size_t i = 0; i < completion_order.size(); ++i) {
        if (completion_order[i] == "batch")
            batch_pos = i;
    }
    ASSERT_LT(batch_pos, completion_order.size());
    EXPECT_EQ(batch_pos, completion_order.size() - 1)
        << "strict tiers finish the Batch job last";
}

} // namespace
} // namespace cosa
