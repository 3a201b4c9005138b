#pragma once

/**
 * @file
 * The asynchronous job handle of the scheduler service (the
 * session-style submit -> observe -> cancel -> collect protocol).
 *
 * `SchedulerService::submit()` returns immediately with a ScheduleJob
 * handle; the batch advances continuation-style on the service's
 * shared work-stealing executor (prologue task → solve task set →
 * epilogue continuation), so a queued or waiting job holds *no*
 * thread of its own — thousands of queued jobs cost queue entries, not
 * runner threads. The handle exposes:
 *
 *  - wait()        block until the batch finishes (or has been
 *                  cancelled) and collect the results;
 *  - cancel()      cooperative cancellation, honored between per-layer
 *                  tasks — tasks already executing complete, every
 *                  not-yet-started task is skipped;
 *  - onProgress()  subscribe to per-unique-problem progress events.
 *
 * Progress determinism: events are emitted in unique-problem index
 * order — event i always reports problem i, carrying the cumulative
 * completed count — regardless of which worker finishes which solve
 * when. For a fixed (workloads, arch, config) an uncancelled job
 * therefore produces an identical event sequence at any thread count
 * (only wall_time_sec varies); a cancelled job produces a prefix of
 * that sequence. A subscriber attached after events already fired
 * receives them first (replayed, in order), so registration timing
 * cannot drop events.
 *
 * Callbacks run on executor worker threads with the job lock held:
 * calling cancel() from a callback is supported (that is how tests
 * cancel deterministically mid-batch); calling wait() or onProgress()
 * from a callback deadlocks.
 */

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/network_result.hpp"

namespace cosa {

/** One per-unique-problem progress event of a ScheduleJob. */
struct JobProgress
{
    std::int64_t completed = 0; //!< problems finished, this one included
    std::int64_t total = 0;     //!< unique problems in the batch
    int unique_index = -1;      //!< the problem this event reports
    std::string layer;          //!< its first occurrence's layer name
    bool from_cache = false;    //!< served by the ScheduleCache
    bool found = false;         //!< a valid schedule exists
    /** Wall seconds since submit; the only nondeterministic field. */
    double wall_time_sec = 0.0;

    /**
     * Cancel the emitting job from inside a progress callback — the
     * same cooperative request as ScheduleJob::cancel(), available
     * before the caller even holds the handle (a callback passed to
     * submit() sees every event live, so "cancel after the Nth
     * problem" is deterministic). No-op after the job's state is gone.
     */
    void requestCancel() const
    {
        if (cancel_hook)
            cancel_hook();
    }

    /** Job-bound cancellation hook behind requestCancel(). */
    std::function<void()> cancel_hook;
};

/**
 * Handle to one submitted batch. Move-only; the destructor waits for
 * the batch (like std::future from std::async), so dropping a handle
 * never abandons its in-flight executor work. The service must outlive
 * every job submitted on it.
 */
class ScheduleJob
{
  public:
    using ProgressCallback = std::function<void(const JobProgress&)>;

    ScheduleJob() = default;
    ~ScheduleJob();
    ScheduleJob(ScheduleJob&&) = default;
    /** Waits for the currently held job (like the destructor) before
     *  adopting @p other — dropping a live job must never abandon its
     *  in-flight work. */
    ScheduleJob& operator=(ScheduleJob&& other);
    ScheduleJob(const ScheduleJob&) = delete;
    ScheduleJob& operator=(const ScheduleJob&) = delete;

    /** Block until the batch finishes and return its results, one
     *  NetworkResult per submitted workload. Idempotent. */
    std::vector<NetworkResult> wait();

    /**
     * Request cooperative cancellation: checked between per-layer
     * tasks, so the job stops within one task per worker. Problems
     * already solved keep their results (and cache entries); skipped
     * problems report found=false with LayerScheduleResult::cancelled.
     * Safe from any thread, including a progress callback.
     */
    void cancel();

    /** True once the batch finished (normally or cancelled). */
    bool done() const;

    /** True when cancel() was requested. */
    bool cancelled() const;

    /**
     * Subscribe to progress events. Events that already fired are
     * replayed synchronously (in order) before the call returns, so a
     * late subscriber still observes the full deterministic sequence.
     */
    void onProgress(ProgressCallback callback);

    /**
     * Subscribe to job completion: @p callback runs exactly once, when
     * the batch finishes (normally or cancelled) — immediately (on the
     * caller) if it already has, else on the executor worker running the
     * job's epilogue. Like progress callbacks it runs with the job
     * lock held: cancel() is safe inside it, wait() deadlocks. This is
     * what lets an observer (e.g. a daemon's event stream) learn of
     * completion without parking a thread in wait().
     */
    void onDone(std::function<void()> callback);

    /** Shared state between the handle and the service's executor-side
     *  continuations (service-internal; use the member functions).
     *  Note there is no thread here: a job — queued or running — owns
     *  no runner, and wait() is purely a condition on
     *  `finished`/`done_cv` advanced by the epilogue continuation. */
    struct State
    {
        std::mutex mutex;
        std::atomic<bool> cancel{false};
        std::atomic<bool> finished{false};
        std::condition_variable done_cv; //!< signaled (under mutex) at finish
        std::vector<NetworkResult> results;  //!< set before `finished`
        std::vector<JobProgress> events;     //!< replay buffer
        std::vector<ProgressCallback> listeners;
        /** Completion subscribers; drained (and cleared) by the
         *  epilogue under `mutex`. */
        std::vector<std::function<void()>> done_listeners;
    };

  private:
    friend class SchedulerService;
    explicit ScheduleJob(std::shared_ptr<State> state)
        : state_(std::move(state))
    {
    }

    /** Block until the batch finishes; unlike wait(), copies nothing
     *  (what the destructor and move-assignment need). */
    void waitFinished() const;

    std::shared_ptr<State> state_;
};

} // namespace cosa
