#pragma once

/**
 * @file
 * Shared helpers for the per-figure benchmark harnesses: requests with
 * paper-default scheduler configurations, submission to the process-wide
 * SchedulerService, speedup tables and geometric means. Each bench
 * binary regenerates the rows/series of one paper exhibit; absolute
 * numbers differ from the paper (different energy tables / DRAM timing)
 * but the comparative shape is the target.
 *
 * Environment knobs:
 *   COSA_BENCH_QUICK=1   subsample layers for a fast smoke run
 *   COSA_TIME_LIMIT=<s>  per-layer CoSA solver budget (default 5s)
 */

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/flag_value.hpp"
#include "common/logging.hpp"
#include "common/math_utils.hpp"
#include "common/table.hpp"
#include "cosa/scheduler.hpp"
#include "engine/scheduler_service.hpp"
#include "mapper/hybrid_mapper.hpp"
#include "mapper/random_mapper.hpp"
#include "problem/workloads.hpp"

namespace cosa::bench {

inline bool
quickMode()
{
    const char* env = std::getenv("COSA_BENCH_QUICK");
    return env && env[0] == '1';
}

inline double
timeLimit()
{
    return envValue("COSA_TIME_LIMIT", 5.0, 0.0,
                    CosaConfig::kMaxBudgetSeconds);
}

inline CosaConfig
defaultCosaConfig()
{
    CosaConfig config;
    // COSA_TIME_LIMIT expresses dense-core-equivalent seconds, mapped
    // onto the deterministic work budget so bench results are machine-
    // and load-independent; the wall clock stays as a safety net.
    config.mip.work_limit = CosaConfig::workLimitFromSeconds(timeLimit());
    config.mip.time_limit_sec =
        CosaConfig::timeSafetyNetFromSeconds(timeLimit());
    return config;
}

inline RandomMapperConfig
defaultRandomConfig(SearchObjective objective = SearchObjective::Latency)
{
    RandomMapperConfig config;
    config.objective = objective;
    return config;
}

inline HybridMapperConfig
defaultHybridConfig(SearchObjective objective = SearchObjective::Latency)
{
    HybridMapperConfig config;
    config.objective = objective;
    if (quickMode())
        config.victory_condition = 100;
    return config;
}

/** Subsample a workload's layers in quick mode (every third layer). */
inline std::vector<LayerSpec>
layersOf(const Workload& workload)
{
    if (!quickMode())
        return workload.layers;
    std::vector<LayerSpec> subset;
    for (std::size_t i = 0; i < workload.layers.size(); i += 3)
        subset.push_back(workload.layers[i]);
    return subset;
}

/** The quick-mode subset of a workload, as a schedulable Workload. */
inline Workload
subsetOf(const Workload& workload)
{
    Workload subset;
    subset.name = workload.name;
    subset.layers = layersOf(workload);
    return subset;
}

/**
 * Submit @p request to the process-wide service and block for its
 * results. @p on_progress is installed at submit, so it observes every
 * event live.
 */
inline std::vector<NetworkResult>
schedule(ScheduleRequest request,
         ScheduleJob::ProgressCallback on_progress = {})
{
    SubmitResult submitted = SchedulerService::defaultService().submit(
        std::move(request), std::move(on_progress));
    // The default service has unlimited admission.
    COSA_ASSERT(submitted.accepted(), "default service rejected a job");
    return submitted.takeJob().wait();
}

/**
 * Schedule @p workloads on @p arch with @p request's scheduler, stream
 * per-problem progress lines to stderr under @p tag (long bench runs
 * would otherwise sit silent for minutes), and block for the results.
 */
inline std::vector<NetworkResult>
runWithProgress(const std::string& tag, ScheduleRequest request,
                const std::vector<Workload>& workloads, const ArchSpec& arch)
{
    request.workloads = workloads;
    request.arch = arch;
    return schedule(std::move(request), [tag](const JobProgress& p) {
        std::cerr << "[" << tag << "] " << p.completed << "/" << p.total
                  << " " << p.layer << (p.from_cache ? " (cached)" : "")
                  << "\n";
    });
}

/**
 * A request with the paper-default tunables of @p kind (no workloads or
 * arch yet). Caching/dedup stay on: the figure benches compare schedule
 * *quality*, which memoization cannot change. Benches that measure
 * per-layer time-to-solution (Table VI) must disable both so every
 * instance pays its real solve cost.
 */
inline ScheduleRequest
defaultRequest(SchedulerKind kind,
               SearchObjective objective = SearchObjective::Latency)
{
    ScheduleRequest request;
    request.scheduler = kind;
    request.objective = objective;
    request.cosa = defaultCosaConfig();
    request.random = defaultRandomConfig(objective);
    request.hybrid = defaultHybridConfig(objective);
    return request;
}

} // namespace cosa::bench
