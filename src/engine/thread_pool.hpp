#pragma once

/**
 * @file
 * The shared work executor behind the multi-tenant SchedulerService.
 *
 * `Executor` owns a fixed crew of long-lived worker threads and
 * multiplexes *task sets* — indexed batches [0, n) of per-layer solves,
 * one set per job — from many concurrent jobs onto them:
 *
 *  - strict priority tiers: a task from tier t is never dispatched
 *    while any tier < t has a *claimable* task — one that is unclaimed
 *    and whose set is under its max_parallelism cap (a capped set
 *    yields its surplus workers to lower tiers rather than idling
 *    them). Preemption happens at task boundaries — running solves
 *    always complete;
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
 * Determinism contract: the executor only decides *which worker runs
 * which task when*; callers write task i's output into a pre-sized
 * slot i, so a set's results are identical for any worker count, any
 * co-tenant mix and any dispatch interleaving as long as each task is
 * a pure function of its index.
 */

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace cosa {

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
    std::vector<std::int64_t> queue_depth;
};

/**
 * Long-lived shared executor for indexed task sets. Thread-safe:
 * submit() may be called from any thread, including a worker running a
 * task of another set (but a *task* must never block on its own set).
 * The destructor drains every submitted set, then joins the workers.
 */
class Executor
{
  public:
    /** Scheduling knobs of one task set. */
    struct TaskSetOptions
    {
        /** Strict priority tier; lower runs first. Clamped to the
         *  executor's tier range. */
        int tier = 1;
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
         * hold no thread: instead of a runner blocking on wait(), the
         * continuation advances the job's state machine.
         */
        std::function<void()> on_complete;
    };

    /**
     * Handle to one submitted task set. Tasks are claimed in index
     * order; done() flips once every task returned.
     */
    class TaskSet
    {
      public:
        /** Block until every task of this set completed. Safe from any
         *  thread except a task of this same set, but must not race
         *  the executor's destruction: every wait() must have returned
         *  before the executor is destroyed. (A set that has already
         *  been observed done() stays safely waitable afterwards.) */
        void wait();

        bool done() const { return done_.load(std::memory_order_acquire); }
        std::size_t numTasks() const { return num_tasks_; }

      private:
        friend class Executor;

        Executor* owner_ = nullptr;
        std::function<void(std::size_t)> task_;
        std::function<void()> on_complete_;
        std::size_t num_tasks_ = 0;
        std::size_t next_ = 0;      //!< next unclaimed index
        std::size_t completed_ = 0; //!< tasks finished
        int inflight_ = 0;          //!< tasks currently running
        int tier_ = 1;
        int max_parallelism_ = 0;
        double stride_ = 1.0;       //!< 1 / weight
        double pass_ = 0.0;         //!< stride-scheduling virtual time
        double last_dispatch_sec_ = 0.0; //!< aging reference instant
        std::uint64_t id_ = 0;      //!< submission order (FIFO ties)
        std::atomic<bool> done_{false};
        std::condition_variable done_cv_; //!< paired with owner mutex
    };

    /**
     * @param num_threads worker count (clamped to >= 1).
     * @param num_tiers   number of strict priority tiers.
     */
    explicit Executor(int num_threads, int num_tiers = 3);
    ~Executor();

    /**
     * Enqueue @p task(i) for every i in [0, num_tasks) and return
     * immediately. The callable must stay valid until the set is done
     * (hold results/captures alive across wait()). An empty set
     * completes immediately. Tasks should contain their own
     * exceptions; one that throws anyway is caught by the executor's
     * last-resort firewall (logged + counted in
     * `cosa_executor_task_failures_total`), its index counts as
     * completed with whatever its result slot already held, and the
     * set, its siblings and the workers proceed — a leaked exception
     * never aborts the process.
     */
    std::shared_ptr<TaskSet> submit(std::size_t num_tasks,
                                    std::function<void(std::size_t)> task,
                                    TaskSetOptions options);

    /** submit() with default options (tier 1, weight 1, no cap). */
    std::shared_ptr<TaskSet> submit(std::size_t num_tasks,
                                    std::function<void(std::size_t)> task);

    ExecutorStats stats() const;
    int numThreads() const { return num_threads_; }
    int numTiers() const { return num_tiers_; }

    /**
     * Cross-tier aging (the anti-starvation knob): when > 0, a set that
     * has not had a task dispatched for `aging_sec` seconds is treated
     * as one tier better for dispatch, two tiers after 2x aging_sec,
     * and so on — so under a sustained flood of tier-0 work a starving
     * tier-2 set ages into tier 0 and is guaranteed a task slot within
     * `tier * aging_sec` of its last dispatch. 0 (the default) keeps
     * the historical strict-tier behavior. Aging permutes dispatch
     * *order* only, which the determinism contract already ignores.
     */
    void setAgingSec(double aging_sec);
    double agingSec() const;

  private:
    void workerLoop(int worker_id);
    /** Best runnable set under (effective tier, pass, id); caller
     *  holds mutex_. @p now_sec feeds the aging computation. */
    std::shared_ptr<TaskSet> pickRunnable(double now_sec) const;
    /** Tier after aging credit for @p set at time @p now_sec. */
    int effectiveTier(const TaskSet& set, double now_sec) const;

    int num_threads_ = 1;
    int num_tiers_ = 3;
    double aging_sec_ = 0.0; //!< guarded by mutex_
    mutable std::mutex mutex_;
    std::condition_variable work_cv_;
    /** Per-tier active sets (submitted, not yet fully completed). */
    std::vector<std::vector<std::shared_ptr<TaskSet>>> active_;
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
