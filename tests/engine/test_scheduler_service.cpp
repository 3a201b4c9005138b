#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/scheduler_service.hpp"
#include "problem/workloads.hpp"

namespace cosa {
namespace {

/** A synthetic net of @p layers distinct canonical shapes (varying K),
 *  each cheap to schedule with the Random baseline. */
Workload
syntheticNet(const std::string& name, int layers, int base_k = 16)
{
    Workload net;
    net.name = name;
    for (int i = 0; i < layers; ++i) {
        net.layers.push_back(
            LayerSpec::fromLabel("1_7_32_" + std::to_string(base_k + i) +
                                 "_1"));
    }
    return net;
}

/**
 * A Random-scheduler request whose per-layer tasks take a roughly
 * fixed amount of work: target_valid == max_samples keeps the sampler
 * from exiting early, so task duration scales with @p samples.
 */
ScheduleRequest
randomRequest(Workload net, int samples,
              JobPriority priority = JobPriority::Normal)
{
    ScheduleRequest request;
    request.workloads.push_back(std::move(net));
    request.arch = ArchSpec::simbaBaseline();
    request.scheduler = SchedulerKind::Random;
    request.random.max_samples = samples;
    request.random.target_valid = samples;
    request.priority = priority;
    return request;
}

/** Bitwise comparison of the deterministic NetworkResult fields. */
void
expectIdenticalResults(const NetworkResult& a, const NetworkResult& b)
{
    ASSERT_EQ(a.layers.size(), b.layers.size());
    for (std::size_t l = 0; l < a.layers.size(); ++l) {
        EXPECT_EQ(a.layers[l].result.mapping, b.layers[l].result.mapping);
        EXPECT_EQ(a.layers[l].result.found, b.layers[l].result.found);
        EXPECT_EQ(a.layers[l].result.eval.cycles,
                  b.layers[l].result.eval.cycles);
        EXPECT_EQ(a.layers[l].result.eval.energy_pj,
                  b.layers[l].result.eval.energy_pj);
        EXPECT_EQ(a.layers[l].from_cache, b.layers[l].from_cache);
        EXPECT_EQ(a.layers[l].deduplicated, b.layers[l].deduplicated);
        EXPECT_EQ(a.layers[l].unique_index, b.layers[l].unique_index);
    }
    EXPECT_EQ(a.total_cycles, b.total_cycles);
    EXPECT_EQ(a.total_energy_pj, b.total_energy_pj);
    EXPECT_EQ(a.num_layers, b.num_layers);
    EXPECT_EQ(a.num_unique, b.num_unique);
    EXPECT_EQ(a.num_solved, b.num_solved);
    EXPECT_EQ(a.num_cache_hits, b.num_cache_hits);
    EXPECT_EQ(a.num_cancelled, b.num_cancelled);
    EXPECT_EQ(a.search.samples, b.search.samples);
    EXPECT_EQ(a.search.valid_evaluated, b.search.valid_evaluated);
}

TEST(SchedulerService, DeterministicUnderRandomCoTenantInterleavings)
{
    const Workload ref_net = syntheticNet("reference", 8, 16);
    const int samples = 800;

    // Reference: the request alone, one worker, no co-tenants.
    NetworkResult reference;
    {
        ServiceConfig config;
        config.num_threads = 1;
        SchedulerService service(config);
        SubmitResult submitted =
            service.submit(randomRequest(ref_net, samples));
        ASSERT_TRUE(submitted.accepted());
        reference = submitted.takeJob().wait().front();
        const ServiceStats stats = service.stats();
        EXPECT_EQ(stats.submitted, 1);
        EXPECT_EQ(stats.completed, 1);
        // num_solved solve tasks plus the job's one prologue task (the
        // job body itself runs as executor continuations, not a thread).
        EXPECT_EQ(stats.executor.tasks_executed, reference.num_solved + 1);
    }
    ASSERT_TRUE(reference.all_found);
    EXPECT_EQ(reference.num_solved, 8);

    // The same fixed request must come back bit-identical under any
    // executor width and any co-tenant mix (private caches keep the
    // jobs from sharing state).
    for (int round = 0; round < 3; ++round) {
        ServiceConfig config;
        config.num_threads = 4;
        SchedulerService service(config);
        std::vector<ScheduleJob> tenants;
        tenants.push_back(
            service
                .submit(randomRequest(syntheticNet("noise-a", 6, 64),
                                      600, JobPriority::Interactive))
                .takeJob());
        tenants.push_back(
            service
                .submit(randomRequest(syntheticNet("noise-b", 6, 128),
                                      400, JobPriority::Batch))
                .takeJob());
        SubmitResult submitted =
            service.submit(randomRequest(ref_net, samples));
        ASSERT_TRUE(submitted.accepted());
        tenants.push_back(
            service
                .submit(randomRequest(syntheticNet("noise-c", 6, 256),
                                      500, JobPriority::Normal))
                .takeJob());
        const NetworkResult run = submitted.takeJob().wait().front();
        expectIdenticalResults(reference, run);
        for (ScheduleJob& tenant : tenants)
            tenant.wait();
    }
}

// A Hybrid solve runs its walks on the calling worker and on helper
// tasks it queues on the shared executor. Whoever runs which walk, every
// layer's result equals a direct HybridMapper call, which runs all walks
// itself. At width 1 no helper can start before the caller is done.
TEST(SchedulerService, HybridWalksMatchDirectSearchAtAnyWidth)
{
    Workload net = workloads::resNet50();
    net.layers.resize(4);
    const ArchSpec arch = ArchSpec::simbaBaseline();
    HybridMapperConfig hybrid;
    hybrid.victory_condition = 100;
    std::vector<SearchResult> direct;
    for (const LayerSpec& layer : net.layers)
        direct.push_back(HybridMapper(hybrid).schedule(layer, arch));

    for (int width : {1, 2, 4}) {
        SCOPED_TRACE(width);
        ServiceConfig config;
        config.num_threads = width;
        SchedulerService service(config);
        ScheduleRequest request;
        request.workloads = {net};
        request.arch = arch;
        request.scheduler = SchedulerKind::Hybrid;
        request.hybrid = hybrid;
        request.deduplicate = false;
        SubmitResult submitted = service.submit(std::move(request));
        ASSERT_TRUE(submitted.accepted());
        const NetworkResult result = submitted.takeJob().wait().front();
        ASSERT_EQ(result.layers.size(), direct.size());
        for (std::size_t l = 0; l < direct.size(); ++l) {
            const SearchResult& got = result.layers[l].result;
            ASSERT_TRUE(got.found) << l;
            EXPECT_EQ(got.mapping, direct[l].mapping) << l;
            EXPECT_EQ(got.eval.cycles, direct[l].eval.cycles) << l;
            EXPECT_EQ(got.eval.energy_pj, direct[l].eval.energy_pj) << l;
            EXPECT_EQ(got.stats.samples, direct[l].stats.samples) << l;
            EXPECT_EQ(got.stats.valid_evaluated,
                      direct[l].stats.valid_evaluated)
                << l;
        }
    }
}

TEST(SchedulerService, StrictTiersPreemptBatchAtTaskBoundaries)
{
    ServiceConfig config;
    config.num_threads = 1; // sequential: completions order execution
    SchedulerService service(config);

    const int batch_total = 16;
    std::atomic<int> batch_done{0};
    SubmitResult batch = service.submit(
        randomRequest(syntheticNet("batch", batch_total, 16), 4000,
                      JobPriority::Batch),
        [&](const JobProgress& p) {
            batch_done.store(static_cast<int>(p.completed),
                             std::memory_order_relaxed);
        });
    ASSERT_TRUE(batch.accepted());

    // Let the batch job actually occupy the worker first.
    while (batch_done.load(std::memory_order_relaxed) < 1)
        std::this_thread::yield();

    // Snapshot the batch's progress at the interactive job's *first*
    // and *last* events: between those two points its remaining tasks
    // are claimable the whole time, so under strict tiers the single
    // worker must not complete a single batch task in between — a
    // race-free assertion (OS scheduling of the runner thread only
    // shifts where the first snapshot lands, which we don't bound).
    std::atomic<int> batch_done_at_interactive_first{-1};
    std::atomic<int> batch_done_at_interactive_end{-1};
    SubmitResult interactive = service.submit(
        randomRequest(syntheticNet("interactive", 4, 200), 4000,
                      JobPriority::Interactive),
        [&](const JobProgress& p) {
            if (p.completed == 1) {
                batch_done_at_interactive_first.store(
                    batch_done.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
            }
            if (p.completed == p.total) {
                batch_done_at_interactive_end.store(
                    batch_done.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
            }
        });
    ASSERT_TRUE(interactive.accepted());

    interactive.takeJob().wait();
    const int done_at_first =
        batch_done_at_interactive_first.load(std::memory_order_relaxed);
    const int done_at_end =
        batch_done_at_interactive_end.load(std::memory_order_relaxed);
    ASSERT_GE(done_at_first, 0);
    EXPECT_EQ(done_at_end, done_at_first);
    EXPECT_LT(done_at_end, batch_total);
    batch.takeJob().wait();
    EXPECT_EQ(batch_done.load(std::memory_order_relaxed), batch_total);
}

TEST(SchedulerService, FairShareInterleavesSameTierTenants)
{
    ServiceConfig config;
    config.num_threads = 1;
    SchedulerService service(config);

    std::mutex mutex;
    std::vector<char> order; // completion sequence across both jobs
    auto recorder = [&](char tag) {
        return [&, tag](const JobProgress&) {
            std::lock_guard<std::mutex> lock(mutex);
            order.push_back(tag);
        };
    };

    const int tasks = 12;
    SubmitResult a = service.submit(
        randomRequest(syntheticNet("tenant-a", tasks, 16), 3000,
                      JobPriority::Batch),
        recorder('a'));
    SubmitResult b = service.submit(
        randomRequest(syntheticNet("tenant-b", tasks, 200), 3000,
                      JobPriority::Batch),
        recorder('b'));
    ASSERT_TRUE(a.accepted());
    ASSERT_TRUE(b.accepted());
    a.takeJob().wait();
    b.takeJob().wait();

    ASSERT_EQ(order.size(), static_cast<std::size_t>(2 * tasks));
    // Equal weights: the single worker alternates between the tenants
    // at task granularity, so B's first completion lands well inside
    // A's stream (strict job-FIFO would put it at index >= tasks).
    std::size_t first_b = order.size();
    for (std::size_t i = 0; i < order.size(); ++i) {
        if (order[i] == 'b') {
            first_b = i;
            break;
        }
    }
    EXPECT_LT(first_b, 8u);
    // And the executor's steal counter recorded the cross-job
    // migrations that interleaving implies.
    EXPECT_GT(service.stats().executor.steals, 0);
}

TEST(SchedulerService, FairShareWeightsSkewTaskSlots)
{
    ServiceConfig config;
    config.num_threads = 1;
    SchedulerService service(config);

    std::mutex mutex;
    std::vector<char> order;
    auto recorder = [&](char tag) {
        return [&, tag](const JobProgress&) {
            std::lock_guard<std::mutex> lock(mutex);
            order.push_back(tag);
        };
    };

    const int tasks = 12;
    ScheduleRequest heavy = randomRequest(
        syntheticNet("heavy", tasks, 16), 3000, JobPriority::Batch);
    heavy.weight = 3.0;
    ScheduleRequest light = randomRequest(
        syntheticNet("light", tasks, 200), 3000, JobPriority::Batch);
    light.weight = 1.0;
    SubmitResult a = service.submit(std::move(heavy), recorder('h'));
    SubmitResult b = service.submit(std::move(light), recorder('l'));
    ASSERT_TRUE(a.accepted());
    ASSERT_TRUE(b.accepted());
    a.takeJob().wait();
    b.takeJob().wait();

    ASSERT_EQ(order.size(), static_cast<std::size_t>(2 * tasks));
    // Weight 3 vs 1: the heavy tenant receives ~3 task slots per light
    // slot while both run, so it drains well before the merged stream
    // ends and the tail is all-light.
    std::size_t last_h = 0;
    for (std::size_t i = 0; i < order.size(); ++i) {
        if (order[i] == 'h')
            last_h = i;
    }
    EXPECT_LT(last_h, order.size() - 4);
}

TEST(SchedulerService, DeadlineAutoCancelKeepsSolvedPrefix)
{
    ServiceConfig config;
    config.num_threads = 1;
    SchedulerService service(config);

    const int tasks = 20;
    ScheduleRequest request = randomRequest(
        syntheticNet("deadline", tasks, 16), 4000, JobPriority::Normal);
    request.deadline_sec = 0.06; // well under the ~20-task runtime
    SubmitResult submitted = service.submit(std::move(request));
    ASSERT_TRUE(submitted.accepted());
    ScheduleJob job = submitted.takeJob();
    const NetworkResult result = job.wait().front();

    EXPECT_TRUE(job.cancelled());
    EXPECT_TRUE(result.cancelled);
    EXPECT_TRUE(result.deadline_expired);
    EXPECT_EQ(result.num_unique, tasks);
    EXPECT_EQ(result.num_solved + result.num_cancelled, tasks);
    EXPECT_GT(result.num_cancelled, 0);
    EXPECT_FALSE(result.all_found);
    // The solved prefix keeps complete results; skipped problems are
    // flagged and empty — never a half-written schedule.
    for (const LayerScheduleResult& lr : result.layers) {
        if (lr.cancelled) {
            EXPECT_FALSE(lr.result.found);
        } else {
            EXPECT_TRUE(lr.result.found);
            EXPECT_GT(lr.result.eval.cycles, 0.0);
        }
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.deadline_expired, 1);
    EXPECT_EQ(stats.cancelled, 1);
}

// Queue wait is submit -> prologue start: the time a job waits for a
// worker. On a one-worker service, a job submitted behind a slow one
// waits for about the slow job's whole run.
TEST(SchedulerService, QueueWaitIsTheWaitForAWorker)
{
    ServiceConfig config;
    config.num_threads = 1;
    SchedulerService service(config);

    // The slow job is Interactive so that its solve outranks the fast
    // job's prologue: at equal tiers, stride scheduling breaks the tie
    // by set id, and the fast prologue was submitted first.
    SubmitResult slow = service.submit(randomRequest(
        syntheticNet("slow", 1, 16), 20000, JobPriority::Interactive));
    ASSERT_TRUE(slow.accepted());
    SubmitResult fast =
        service.submit(randomRequest(syntheticNet("fast", 1, 64), 10));
    ASSERT_TRUE(fast.accepted());
    const NetworkResult slow_result = slow.takeJob().wait().front();
    fast.takeJob().wait();

    const ServiceStats stats = service.stats();
    const ServiceStats::TierStats& normal =
        stats.tiers[static_cast<int>(JobPriority::Normal)];
    const ServiceStats::TierStats& interactive =
        stats.tiers[static_cast<int>(JobPriority::Interactive)];
    EXPECT_GE(normal.max_queue_wait_sec, 0.5 * slow_result.wall_time_sec)
        << "the fast job waited for the only worker";
    EXPECT_DOUBLE_EQ(normal.meanQueueWaitSec(), normal.max_queue_wait_sec);
    EXPECT_LT(interactive.max_queue_wait_sec, normal.max_queue_wait_sec);
    EXPECT_EQ(stats.completed, 2);
    EXPECT_EQ(stats.queued_now, 0);
    EXPECT_EQ(stats.inflight_now, 0);
}

TEST(SchedulerService, SharedCacheIsOptInPerRequest)
{
    ServiceConfig config;
    config.num_threads = 2;
    SchedulerService service(config);
    const Workload net = syntheticNet("cache-net", 4, 16);

    // Private caches (the default): the same query twice solves twice.
    ScheduleRequest first = randomRequest(net, 300);
    ScheduleRequest second = randomRequest(net, 300);
    const NetworkResult r1 =
        service.submit(std::move(first)).takeJob().wait().front();
    const NetworkResult r2 =
        service.submit(std::move(second)).takeJob().wait().front();
    EXPECT_EQ(r1.num_solved, 4);
    EXPECT_EQ(r2.num_solved, 4);
    EXPECT_EQ(r2.num_cache_hits, 0);

    // Opting into a shared cache memoizes across queries and tenants.
    auto cache = std::make_shared<ScheduleCache>();
    ScheduleRequest warm = randomRequest(net, 300);
    warm.cache = cache;
    ScheduleRequest reuse = randomRequest(net, 300);
    reuse.cache = cache;
    const NetworkResult r3 =
        service.submit(std::move(warm)).takeJob().wait().front();
    const NetworkResult r4 =
        service.submit(std::move(reuse)).takeJob().wait().front();
    EXPECT_EQ(r3.num_solved, 4);
    EXPECT_EQ(r4.num_cache_hits, 4);
    EXPECT_EQ(r4.num_solved, 0);
    expectIdenticalResults(r1, r3); // same request, same solves
}

/**
 * The concurrent-tenants stress test the ThreadSanitizer CI job runs:
 * many tenant threads hammer one service with mixed priorities,
 * weights, deadlines, mid-flight cancels and a shared cache while
 * introspection polls from outside.
 */
TEST(SchedulerService, ConcurrentTenantStress)
{
    ServiceConfig config;
    config.num_threads = 4;
    SchedulerService service(config);
    auto shared_cache = std::make_shared<ScheduleCache>();

    const int tenants = 5;
    const int jobs_per_tenant = 3;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < tenants; ++t) {
        threads.emplace_back([&, t] {
            for (int j = 0; j < jobs_per_tenant; ++j) {
                ScheduleRequest request = randomRequest(
                    syntheticNet("stress-" + std::to_string(t), 6,
                                 16 + 8 * t),
                    300,
                    static_cast<JobPriority>((t + j) % kNumJobPriorities));
                request.weight = 1.0 + t % 3;
                if (t == 1)
                    request.cache = shared_cache;
                if (t == 2 && j == 1)
                    request.deadline_sec = 0.002;
                ScheduleJob::ProgressCallback cancel_cb;
                if (t == 3 && j == 2) {
                    cancel_cb = [](const JobProgress& p) {
                        if (p.completed == 2)
                            p.requestCancel();
                    };
                }
                SubmitResult submitted =
                    service.submit(std::move(request), cancel_cb);
                if (!submitted.accepted()) {
                    ++failures;
                    continue;
                }
                const std::vector<NetworkResult> results =
                    submitted.takeJob().wait();
                if (results.size() != 1)
                    ++failures;
                for (const NetworkResult& r : results) {
                    if (r.num_solved + r.num_cache_hits +
                            r.num_cancelled != r.num_unique)
                        ++failures;
                }
            }
        });
    }
    // Poll introspection concurrently — it must never tear or crash.
    std::atomic<bool> stop{false};
    std::thread poller([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            service.stats();
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    });
    for (std::thread& thread : threads)
        thread.join();
    stop.store(true, std::memory_order_relaxed);
    poller.join();

    EXPECT_EQ(failures.load(), 0);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, tenants * jobs_per_tenant);
    EXPECT_EQ(stats.completed, tenants * jobs_per_tenant);
    EXPECT_EQ(stats.rejected, 0);
    EXPECT_EQ(stats.queued_now, 0);
    EXPECT_EQ(stats.inflight_now, 0);
}

} // namespace
} // namespace cosa
