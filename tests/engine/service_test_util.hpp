#pragma once

/**
 * @file
 * Helpers for tests that run whole queries through the process-wide
 * SchedulerService: a cheap deterministic request, and submissions of
 * one network or one layer on one arch. Tests that drive an Executor
 * directly wait for its task sets through SetLatch.
 */

#include <gtest/gtest.h>

#include <condition_variable>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "engine/executor.hpp"
#include "engine/scheduler_service.hpp"

namespace cosa::test {

/**
 * Waits for executor task sets through their on_complete continuation,
 * the executor's one completion path: submit each set with track() and
 * call wait(). The count lives in shared state the continuations hold,
 * so a latch may go out of scope before a worker has left one.
 */
class SetLatch
{
  public:
    /** @p options with an on_complete that counts one more set done. */
    Executor::TaskSetOptions track(Executor::TaskSetOptions options = {})
    {
        {
            std::lock_guard<std::mutex> lock(state_->mutex);
            ++state_->pending;
        }
        options.on_complete = [state = state_] {
            std::lock_guard<std::mutex> lock(state->mutex);
            --state->pending;
            state->cv.notify_all();
        };
        return options;
    }

    /** Block until every tracked set has completed. */
    void wait()
    {
        std::unique_lock<std::mutex> lock(state_->mutex);
        state_->cv.wait(lock, [&] { return state_->pending == 0; });
    }

  private:
    struct State
    {
        std::mutex mutex;
        std::condition_variable cv;
        int pending = 0;
    };
    std::shared_ptr<State> state_ = std::make_shared<State>();
};

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
