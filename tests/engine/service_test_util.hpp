#pragma once

/**
 * @file
 * Helpers for tests that run whole queries through the process-wide
 * SchedulerService: a cheap deterministic request, and submissions of
 * one network or one layer on one arch.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "engine/scheduler_service.hpp"

namespace cosa::test {

/** Cheap deterministic Random-scheduler request for fast tests. */
inline ScheduleRequest
fastRandomRequest(int max_parallelism)
{
    ScheduleRequest request;
    request.scheduler = SchedulerKind::Random;
    request.max_parallelism = max_parallelism;
    request.random.max_samples = 500;
    request.random.target_valid = 1;
    return request;
}

/** Submit @p request for @p net on @p arch to the default service. */
inline ScheduleJob
submit(ScheduleRequest request, const Workload& net, const ArchSpec& arch,
       ScheduleJob::ProgressCallback on_progress = {})
{
    request.workloads = {net};
    request.arch = arch;
    SubmitResult submitted = SchedulerService::defaultService().submit(
        std::move(request), std::move(on_progress));
    EXPECT_TRUE(submitted.accepted());
    return submitted.takeJob();
}

/** Blocking: submit(...).wait() for one network. */
inline NetworkResult
scheduleNetwork(ScheduleRequest request, const Workload& net,
                const ArchSpec& arch)
{
    return submit(std::move(request), net, arch).wait().front();
}

/** Blocking: schedule @p layer as a one-layer workload. */
inline SearchResult
scheduleLayer(ScheduleRequest request, const LayerSpec& layer,
              const ArchSpec& arch)
{
    const Workload net{"layer:" + layer.name, {layer}};
    return scheduleNetwork(std::move(request), net, arch)
        .layers.front()
        .result;
}

} // namespace cosa::test
