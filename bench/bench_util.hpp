#pragma once

/**
 * @file
 * Shared helpers for the per-figure benchmark harnesses: the settings a
 * bench runs at, requests with paper-default scheduler configurations
 * and submission to the process-wide SchedulerService (the benches that
 * compare Random, TLH and CoSA share comparison_sweep.hpp). Each bench
 * binary regenerates the rows/series of one paper exhibit; absolute
 * numbers differ from the paper (different energy tables / DRAM timing)
 * but the comparative shape is the target.
 *
 * Environment knobs, read by the bench mains only:
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

/**
 * The effort a bench runs at. The defaults are full mode at the paper-
 * default budget; a bench main reads its own from the environment
 * (fromEnv()), while a test passes fixed settings.
 */
struct BenchSettings
{
    /** Every third layer, and Hybrid's shorter victory condition. */
    bool quick = false;
    /** Per-layer CoSA budget in dense-core-equivalent seconds. */
    double time_limit = 5.0;

    /** COSA_BENCH_QUICK and COSA_TIME_LIMIT. */
    static BenchSettings fromEnv() { return {quickMode(), timeLimit()}; }
};

inline CosaConfig
defaultCosaConfig(double time_limit = timeLimit())
{
    CosaConfig config;
    // The time limit expresses dense-core-equivalent seconds, mapped
    // onto the deterministic work budget so bench results are machine-
    // and load-independent; the wall clock stays as a safety net.
    config.mip.work_limit = CosaConfig::workLimitFromSeconds(time_limit);
    config.mip.time_limit_sec =
        CosaConfig::timeSafetyNetFromSeconds(time_limit);
    return config;
}

/** Subsample a workload's layers in quick mode (every third layer). */
inline std::vector<LayerSpec>
layersOf(const Workload& workload, bool quick = quickMode())
{
    if (!quick)
        return workload.layers;
    std::vector<LayerSpec> subset;
    for (std::size_t i = 0; i < workload.layers.size(); i += 3)
        subset.push_back(workload.layers[i]);
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
 * A request with the paper-default tunables of @p kind (no workloads or
 * arch yet); the service applies @p objective to every scheduler.
 * Caching/dedup stay on: the figure benches compare schedule *quality*,
 * which memoization cannot change. Benches that measure per-layer
 * time-to-solution (Table VI) must disable both so every instance pays
 * its real solve cost.
 */
inline ScheduleRequest
defaultRequest(SchedulerKind kind,
               SearchObjective objective = SearchObjective::Latency,
               const BenchSettings& settings = BenchSettings::fromEnv())
{
    ScheduleRequest request;
    request.scheduler = kind;
    request.objective = objective;
    request.cosa = defaultCosaConfig(settings.time_limit);
    if (settings.quick)
        request.hybrid.victory_condition = 100;
    return request;
}

} // namespace cosa::bench
