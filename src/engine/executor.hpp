#pragma once

/**
 * @file
 * The shared work executor behind the multi-tenant SchedulerService.
 *
 * `Executor` owns a fixed crew of long-lived worker threads and
 * multiplexes *task sets* — indexed batches [0, n) of per-layer solves,
 * one set per job — from many concurrent jobs onto them:
 *
 *  - strict priority tiers, one per `JobPriority`: a task from tier t
 *    is never dispatched while any tier < t has a *claimable* task —
 *    one that is unclaimed and whose set is under its max_parallelism
 *    cap (a capped set yields its surplus workers to lower tiers
 *    rather than idling them). Preemption happens at task boundaries —
 *    running solves always complete;
 *  - weighted fair share within a tier: co-tenant sets are interleaved
 *    at single-task granularity by stride scheduling (each dispatch
 *    advances the set's virtual pass by 1/weight; the lowest pass runs
 *    next, ties to the earlier-submitted set), so a weight-2 tenant
 *    receives twice the task slots of a weight-1 tenant while both are
 *    runnable;
 *  - per-set parallelism caps (`max_parallelism`) bound how many tasks
 *    of one set run concurrently — cap 1 serializes a set in index
 *    order even on a wide shared executor;
 *  - work stealing across jobs: a worker whose set has no claimable
 *    task immediately migrates to the best runnable co-tenant set
 *    instead of idling; the `steals` counter tracks those cross-set
 *    migrations (it is also the observable of fair-share interleaving).
 *
 * Completion is continuation-only: submit() returns nothing, and a
 * set's `on_complete` runs once its last task has returned. Nothing
 * blocks on a set, so a queued job holds no thread.
 *
 * Determinism contract: the executor only decides *which worker runs
 * which task when*; callers write task i's output into a pre-sized
 * slot i, so a set's results are identical for any worker count, any
 * co-tenant mix and any dispatch interleaving as long as each task is
 * a pure function of its index.
 */

#include <array>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace cosa {

/** Strict priority tier of a job; lower tiers always run first. */
enum class JobPriority {
    Interactive = 0, //!< latency-sensitive user queries
    Normal = 1,      //!< default traffic
    Batch = 2,       //!< arch sweeps, offline exploration, maintenance
};

/** Number of priorities, and of the executor's strict tiers. */
inline constexpr int kNumJobPriorities = 3;

/** Lifetime counters of one Executor (monotonic). */
struct ExecutorStats
{
    std::int64_t tasks_executed = 0; //!< tasks dispatched to workers
    /**
     * Cross-set worker migrations: dispatches whose task came from a
     * different set than the worker's previous task. This is the
     * executor's work stealing — a worker whose job ran dry takes a
     * co-tenant's task instead of idling — and, symmetrically, the
     * visible trace of fair-share interleaving between same-tier jobs.
     */
    std::int64_t steals = 0;
    std::int64_t sets_submitted = 0;
    std::int64_t sets_completed = 0;
    /** Claimable (not yet dispatched) tasks right now, per tier. */
    std::array<std::int64_t, kNumJobPriorities> queue_depth{};
};

/**
 * Long-lived shared executor for indexed task sets. Thread-safe:
 * submit() may be called from any thread, including a worker running a
 * task or a continuation of another set.
 * The destructor drains every submitted set, then joins the workers.
 */
class Executor
{
  public:
    /** Scheduling knobs of one task set. */
    struct TaskSetOptions
    {
        /** Strict priority tier; lower runs first. */
        JobPriority tier = JobPriority::Normal;
        /** Fair-share weight against same-tier sets (> 0). */
        double weight = 1.0;
        /** Max concurrently running tasks of this set; 0 = unlimited.
         *  1 serializes the set in index order. */
        int max_parallelism = 0;
        /**
         * Completion continuation: invoked exactly once when every task
         * of the set has returned — on the worker thread that finished
         * the last task, outside the executor lock (so it may submit()
         * further sets, including on this same executor). An empty set
         * runs it inline from submit(). This is what lets a queued job
         * hold no thread: the continuation advances the job's state
         * machine.
         */
        std::function<void()> on_complete;
    };

    /** @param num_threads worker count (clamped to >= 1). */
    explicit Executor(int num_threads);
    ~Executor();

    /**
     * Enqueue @p task(i) for every i in [0, num_tasks) and return
     * immediately. The callable must stay valid until the set's
     * on_complete has run. An empty set completes immediately. Tasks
     * should contain their own exceptions; one that throws anyway is
     * caught by the executor's last-resort firewall (logged + counted
     * in `cosa_executor_task_failures_total`), its index counts as
     * completed with whatever its result slot already held, and the
     * set, its siblings and the workers proceed — a leaked exception
     * never aborts the process.
     */
    void submit(std::size_t num_tasks, std::function<void(std::size_t)> task,
                TaskSetOptions options);

    ExecutorStats stats() const;

  private:
    struct TaskSet;

    void workerLoop(int worker_id);
    /** Best claimable set: the first tier with one, then the lowest
     *  (pass, id) within it; caller holds mutex_. */
    std::shared_ptr<TaskSet> pickRunnable() const;

    int num_threads_ = 1;
    mutable std::mutex mutex_;
    std::condition_variable work_cv_;
    /** Per-tier active sets (submitted, not yet fully completed). */
    std::array<std::vector<std::shared_ptr<TaskSet>>, kNumJobPriorities>
        active_;
    std::vector<std::uint64_t> worker_last_set_; //!< steal detection
    std::uint64_t next_set_id_ = 1;
    bool stop_ = false;
    std::int64_t tasks_executed_ = 0;
    std::int64_t steals_ = 0;
    std::int64_t sets_submitted_ = 0;
    std::int64_t sets_completed_ = 0;
    std::vector<std::thread> workers_;
};

} // namespace cosa
