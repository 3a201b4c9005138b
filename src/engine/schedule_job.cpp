#include "engine/schedule_job.hpp"

namespace cosa {

ScheduleJob::~ScheduleJob()
{
    waitFinished(); // never abandon the job's in-flight executor work
}

ScheduleJob&
ScheduleJob::operator=(ScheduleJob&& other)
{
    if (this != &other) {
        waitFinished();
        state_ = std::move(other.state_);
    }
    return *this;
}

std::vector<NetworkResult>
ScheduleJob::wait()
{
    if (!state_)
        return {};
    waitFinished();
    return state_->results;
}

void
ScheduleJob::waitFinished() const
{
    if (!state_)
        return;
    // No job — queued or running — owns a thread: completion is purely
    // the `finished` condition, set by the service's epilogue
    // continuation under the state mutex. Waiting therefore costs one
    // blocked caller thread and nothing on the service side, which is
    // what lets thousands of queued jobs sit on a fixed-size executor.
    if (!state_->finished.load(std::memory_order_acquire)) {
        std::unique_lock<std::mutex> lock(state_->mutex);
        state_->done_cv.wait(lock, [&] {
            return state_->finished.load(std::memory_order_acquire);
        });
    }
}

void
ScheduleJob::cancel()
{
    if (state_)
        state_->cancel.store(true, std::memory_order_relaxed);
}

bool
ScheduleJob::done() const
{
    return state_ && state_->finished.load(std::memory_order_acquire);
}

bool
ScheduleJob::cancelled() const
{
    return state_ && state_->cancel.load(std::memory_order_relaxed);
}

void
ScheduleJob::onProgress(ProgressCallback callback)
{
    if (!state_ || !callback)
        return;
    std::lock_guard<std::mutex> lock(state_->mutex);
    // Replay under the same lock that emits, so the subscriber sees
    // every event exactly once, in order.
    for (const JobProgress& event : state_->events)
        callback(event);
    state_->listeners.push_back(std::move(callback));
}

void
ScheduleJob::onDone(std::function<void()> callback)
{
    if (!state_ || !callback)
        return;
    std::lock_guard<std::mutex> lock(state_->mutex);
    if (state_->finished.load(std::memory_order_acquire)) {
        callback(); // already done: fire now, on the subscriber
        return;
    }
    state_->done_listeners.push_back(std::move(callback));
}

} // namespace cosa
