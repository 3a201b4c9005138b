#include "engine/executor.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>

#include "common/failpoint.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace cosa {

namespace {

/**
 * The executor's last-resort firewall: tasks are expected to contain
 * their own exceptions (the service's solve tasks do), but one that
 * leaks must terminate neither the worker nor the process — other
 * sets, jobs and tenants proceed. The task's slot simply stays at its
 * default value; producers see it as not-found.
 */
void
runTaskContained(const std::function<void(std::size_t)>& task,
                 std::size_t index)
{
    const char* what = nullptr;
    std::string text;
    try {
        COSA_FAILPOINT("executor.task", ErrorCode::kInternal);
        task(index);
        return;
    } catch (const std::exception& e) {
        text = e.what();
        what = text.c_str();
    } catch (...) {
        what = "non-std exception";
    }
    metrics::MetricsRegistry::global()
        .counter("cosa_executor_task_failures_total",
                 "Exceptions that leaked out of an executor task")
        .inc();
    warn("executor: task ", index, " threw (", what,
         "); contained, set continues");
}

std::size_t
tierIndex(JobPriority tier)
{
    return static_cast<std::size_t>(tier);
}

} // namespace

/** One submitted task set; tasks are claimed in index order. */
struct Executor::TaskSet
{
    std::function<void(std::size_t)> task;
    std::function<void()> on_complete;
    std::size_t num_tasks = 0;
    std::size_t next = 0;      //!< next unclaimed index
    std::size_t completed = 0; //!< tasks finished
    int inflight = 0;          //!< tasks currently running
    JobPriority tier = JobPriority::Normal;
    int max_parallelism = 0;
    double stride = 1.0;       //!< 1 / weight
    double pass = 0.0;         //!< stride-scheduling virtual time
    std::uint64_t id = 0;      //!< submission order (FIFO ties)
};

// --- Executor ------------------------------------------------------------

Executor::Executor(int num_threads)
    : num_threads_(std::max(num_threads, 1)),
      worker_last_set_(static_cast<std::size_t>(num_threads_), 0)
{
    workers_.reserve(static_cast<std::size_t>(num_threads_));
    for (int t = 0; t < num_threads_; ++t)
        workers_.emplace_back(&Executor::workerLoop, this, t);
}

Executor::~Executor()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    // Workers drain every claimable task before honoring stop_, so
    // destruction waits for submitted work instead of abandoning it.
    work_cv_.notify_all();
    for (std::thread& worker : workers_)
        worker.join();
}

void
Executor::submit(std::size_t num_tasks, std::function<void(std::size_t)> task,
                 TaskSetOptions options)
{
    auto set = std::make_shared<TaskSet>();
    set->task = std::move(task);
    set->on_complete = std::move(options.on_complete);
    set->num_tasks = num_tasks;
    set->tier = options.tier;
    set->max_parallelism = std::max(options.max_parallelism, 0);
    set->stride = 1.0 / std::max(options.weight, 1e-9);

    std::unique_lock<std::mutex> lock(mutex_);
    ++sets_submitted_;
    set->id = next_set_id_++;
    if (num_tasks == 0) {
        ++sets_completed_;
        lock.unlock();
        // Inline, outside the lock: the continuation may submit().
        if (set->on_complete)
            set->on_complete();
        return;
    }
    // Join the tier at its current virtual time: a newcomer shares from
    // now on instead of monopolizing workers until its pass catches up
    // with long-running co-tenants.
    auto& tier = active_[tierIndex(set->tier)];
    double min_pass = 0.0;
    for (std::size_t i = 0; i < tier.size(); ++i) {
        if (i == 0 || tier[i]->pass < min_pass)
            min_pass = tier[i]->pass;
    }
    set->pass = min_pass;
    tier.push_back(std::move(set));
    work_cv_.notify_all();
}

std::shared_ptr<Executor::TaskSet>
Executor::pickRunnable() const
{
    for (const auto& tier : active_) {
        std::shared_ptr<TaskSet> best;
        for (const auto& set : tier) {
            if (set->next >= set->num_tasks)
                continue; // fully claimed; lingers until completed
            if (set->max_parallelism > 0 &&
                set->inflight >= set->max_parallelism)
                continue;
            if (!best || set->pass < best->pass ||
                (set->pass == best->pass && set->id < best->id))
                best = set;
        }
        if (best)
            return best; // strict tiers: never look past a runnable one
    }
    return nullptr;
}

void
Executor::workerLoop(int worker_id)
{
    const auto self = static_cast<std::size_t>(worker_id);
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        std::shared_ptr<TaskSet> set = pickRunnable();
        if (!set) {
            if (stop_)
                return;
            work_cv_.wait(lock);
            continue;
        }
        const std::size_t index = set->next++;
        set->pass += set->stride;
        ++set->inflight;
        ++tasks_executed_;
        if (worker_last_set_[self] != 0 && worker_last_set_[self] != set->id)
            ++steals_;
        worker_last_set_[self] = set->id;

        lock.unlock();
        {
            trace::Span span("executor.task", "executor");
            char detail[32];
            std::snprintf(detail, sizeof(detail), "tier=%d set=%lld",
                          static_cast<int>(set->tier),
                          static_cast<long long>(set->id));
            span.arg(detail);
            runTaskContained(set->task, index);
        }
        lock.lock();

        --set->inflight;
        ++set->completed;
        if (set->completed == set->num_tasks) {
            auto& tier = active_[tierIndex(set->tier)];
            tier.erase(std::find(tier.begin(), tier.end(), set));
            ++sets_completed_;
            if (set->on_complete) {
                // The continuation runs outside the lock so it may
                // submit() follow-up sets (job epilogues do). It is
                // exception-contained like a task but bypasses the
                // executor.task failpoint: a continuation advances a
                // job's state machine, and chaos runs must not be able
                // to wedge completion itself.
                lock.unlock();
                try {
                    set->on_complete();
                } catch (const std::exception& e) {
                    warn("executor: set ", set->id,
                         " completion continuation threw (", e.what(),
                         "); contained");
                } catch (...) {
                    warn("executor: set ", set->id,
                         " completion continuation threw (non-std "
                         "exception); contained");
                }
                lock.lock();
            }
        } else if (set->max_parallelism > 0 &&
                   set->next < set->num_tasks) {
            // Dropped below the set's cap: a sleeping worker may now
            // claim the next task.
            work_cv_.notify_one();
        }
    }
}

ExecutorStats
Executor::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    ExecutorStats stats;
    stats.tasks_executed = tasks_executed_;
    stats.steals = steals_;
    stats.sets_submitted = sets_submitted_;
    stats.sets_completed = sets_completed_;
    for (std::size_t t = 0; t < active_.size(); ++t) {
        for (const auto& set : active_[t]) {
            stats.queue_depth[t] +=
                static_cast<std::int64_t>(set->num_tasks - set->next);
        }
    }
    return stats;
}

} // namespace cosa
