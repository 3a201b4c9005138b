#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "common/trace.hpp"
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
        net.layers.push_back(LayerSpec::fromLabel(
            "1_7_32_" + std::to_string(base_k + i) + "_1"));
    }
    return net;
}

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

/**
 * Every deterministic field of a NetworkResult, including the solver
 * work counters: equal lp_iterations and mip_nodes per layer means the
 * two runs walked the same pivot sequences and search trees. Times are
 * deliberately excluded (wall clock, not part of the contract).
 */
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
        EXPECT_EQ(a.layers[l].result.stats.lp_iterations,
                  b.layers[l].result.stats.lp_iterations);
        EXPECT_EQ(a.layers[l].result.stats.mip_nodes,
                  b.layers[l].result.stats.mip_nodes);
        EXPECT_EQ(a.layers[l].result.stats.lu_factorizations,
                  b.layers[l].result.stats.lu_factorizations);
        EXPECT_EQ(a.layers[l].result.stats.lu_eta_updates,
                  b.layers[l].result.stats.lu_eta_updates);
        EXPECT_EQ(a.layers[l].from_cache, b.layers[l].from_cache);
        EXPECT_EQ(a.layers[l].unique_index, b.layers[l].unique_index);
    }
    EXPECT_EQ(a.total_cycles, b.total_cycles);
    EXPECT_EQ(a.total_energy_pj, b.total_energy_pj);
    EXPECT_EQ(a.num_unique, b.num_unique);
    EXPECT_EQ(a.num_solved, b.num_solved);
    EXPECT_EQ(a.search.lp_iterations, b.search.lp_iterations);
    EXPECT_EQ(a.search.mip_nodes, b.search.mip_nodes);
    EXPECT_EQ(a.search.lu_factorizations, b.search.lu_factorizations);
    EXPECT_EQ(a.search.lu_eta_updates, b.search.lu_eta_updates);
    EXPECT_EQ(a.search.warm_starts_installed, b.search.warm_starts_installed);
    EXPECT_EQ(a.search.warm_start_hits, b.search.warm_start_hits);
}

/** One full CoSA ResNet-50 solve on a fresh service + private cache. */
NetworkResult
runResNet50(std::int64_t work_limit)
{
    ScheduleRequest request;
    request.workloads.push_back(workloads::resNet50Full());
    request.arch = ArchSpec::simbaBaseline();
    request.scheduler = SchedulerKind::Cosa;
    request.cosa.mip.work_limit = work_limit;

    ServiceConfig config;
    config.num_threads = 4;
    SchedulerService service(config);
    SubmitResult submitted = service.submit(std::move(request));
    EXPECT_TRUE(submitted.accepted());
    return submitted.takeJob().wait().front();
}

/**
 * The hard observability constraint: results and pivot sequences are
 * bit-identical with tracing off and on at full detail. Spans only
 * read the steady clock and append to side buffers, so the solver must
 * not be able to tell the difference.
 */
TEST(Observability, TraceOnAndOffResultsAreBitIdentical)
{
    trace::Tracer& tracer = trace::Tracer::global();
    tracer.setEnabled(false);
    tracer.clear();

    const std::int64_t work_limit = 1500;
    const NetworkResult off = runResNet50(work_limit);
    ASSERT_GT(off.num_solved, 0);
    EXPECT_EQ(tracer.recordedEvents(), 0);

    tracer.setEnabled(true);
    tracer.setFineDetail(true);
    const NetworkResult on = runResNet50(work_limit);
    EXPECT_GT(tracer.recordedEvents(), 0); // instrumentation did fire
    expectIdenticalResults(off, on);

    tracer.setEnabled(false);
    tracer.setFineDetail(false);
    tracer.clear();
}

TEST(Observability, ServiceCountersSumUnderConcurrentMultiTenantLoad)
{
    metrics::MetricsRegistry& registry = metrics::MetricsRegistry::global();
    const JobPriority tiers[] = {JobPriority::Interactive,
                                 JobPriority::Normal, JobPriority::Batch};
    std::int64_t submitted_before[3];
    std::int64_t completed_before[3];
    // Admission counters are labeled per (tenant, tier); these requests
    // carry no explicit tenant, so they land on "default".
    for (int t = 0; t < 3; ++t) {
        const metrics::Labels labels = {
            {"tenant", "default"}, {"tier", jobPriorityName(tiers[t])}};
        submitted_before[t] =
            registry
                .counter("cosa_service_jobs_submitted_total", "", labels)
                .value();
        completed_before[t] =
            registry
                .counter("cosa_service_jobs_completed_total", "", labels)
                .value();
    }
    metrics::Counter& layers_counter =
        registry.counter("cosa_job_layers_completed_total");
    const std::int64_t layers_before = layers_counter.value();

    constexpr int kJobsPerTier = 2;
    constexpr int kLayersPerJob = 4;
    ServiceConfig config;
    config.num_threads = 4;
    SchedulerService service(config);

    // One submitting thread per tier, all racing the shared service:
    // the sharded counters still have to account for every event.
    std::vector<std::thread> tenants;
    for (int t = 0; t < 3; ++t) {
        tenants.emplace_back([&service, &tiers, t] {
            std::vector<ScheduleJob> jobs;
            for (int j = 0; j < kJobsPerTier; ++j) {
                SubmitResult submitted = service.submit(randomRequest(
                    syntheticNet("tenant-" + std::to_string(t) + "-" +
                                     std::to_string(j),
                                 kLayersPerJob, 16 + 32 * j),
                    300, tiers[t]));
                ASSERT_TRUE(submitted.accepted());
                jobs.push_back(submitted.takeJob());
            }
            for (ScheduleJob& job : jobs)
                job.wait();
        });
    }
    for (std::thread& tenant : tenants)
        tenant.join();

    for (int t = 0; t < 3; ++t) {
        const metrics::Labels labels = {
            {"tenant", "default"}, {"tier", jobPriorityName(tiers[t])}};
        EXPECT_EQ(registry
                          .counter("cosa_service_jobs_submitted_total",
                                   "", labels)
                          .value() -
                      submitted_before[t],
                  kJobsPerTier)
            << "tier " << jobPriorityName(tiers[t]);
        EXPECT_EQ(registry
                          .counter("cosa_service_jobs_completed_total",
                                   "", labels)
                          .value() -
                      completed_before[t],
                  kJobsPerTier)
            << "tier " << jobPriorityName(tiers[t]);
    }
    // Private caches and distinct shapes: every layer is a real solve.
    EXPECT_EQ(layers_counter.value() - layers_before,
              3 * kJobsPerTier * kLayersPerJob);
}

TEST(Observability, MetricsTextExposesTheTaxonomy)
{
    ServiceConfig config;
    config.num_threads = 2;
    SchedulerService service(config);
    SubmitResult submitted =
        service.submit(randomRequest(syntheticNet("metrics-text", 3), 200));
    ASSERT_TRUE(submitted.accepted());
    submitted.takeJob().wait();

    const std::string text = service.metricsText();
    for (const char* needle :
         {"# TYPE cosa_service_jobs_submitted_total counter",
          "# TYPE cosa_service_queue_wait_seconds histogram",
          "cosa_service_queue_wait_seconds_bucket",
          "# TYPE cosa_solve_layers_total counter",
          "# TYPE cosa_solve_time_seconds histogram",
          "# TYPE cosa_service_inflight_jobs gauge",
          "cosa_executor_tasks_executed",
          "cosa_job_layers_completed_total",
          "tier=\"normal\""}) {
        EXPECT_NE(text.find(needle), std::string::npos)
            << "missing: " << needle;
    }
    // The live-state gauges were refreshed by this service's collector:
    // nothing is running anymore.
    EXPECT_NE(text.find("cosa_service_inflight_jobs 0\n"),
              std::string::npos);
}

} // namespace
} // namespace cosa
