#include "engine/executor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
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

/** Monotonic seconds for the aging clock (kept local so the executor
 *  has no dependency on the mapper layer's wallTimeSec). */
double
monotonicSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

// --- Executor::TaskSet ---------------------------------------------------

void
Executor::TaskSet::wait()
{
    if (done_.load(std::memory_order_acquire))
        return;
    // The slow path touches the owning executor, so wait() must not
    // race its destruction (see the header contract); the destructor
    // does drain every set, but a waiter has no way to know the mutex
    // it would block on is still alive.
    COSA_ASSERT(owner_ != nullptr, "waiting on an unsubmitted task set");
    std::unique_lock<std::mutex> lock(owner_->mutex_);
    done_cv_.wait(lock, [&] {
        return done_.load(std::memory_order_acquire);
    });
}

// --- Executor ------------------------------------------------------------

Executor::Executor(int num_threads, int num_tiers)
    : num_threads_(std::max(num_threads, 1)),
      num_tiers_(std::max(num_tiers, 1)),
      active_(static_cast<std::size_t>(num_tiers_)),
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

std::shared_ptr<Executor::TaskSet>
Executor::submit(std::size_t num_tasks, std::function<void(std::size_t)> task)
{
    return submit(num_tasks, std::move(task), TaskSetOptions());
}

std::shared_ptr<Executor::TaskSet>
Executor::submit(std::size_t num_tasks, std::function<void(std::size_t)> task,
                 TaskSetOptions options)
{
    auto set = std::make_shared<TaskSet>();
    set->owner_ = this;
    set->task_ = std::move(task);
    set->on_complete_ = std::move(options.on_complete);
    set->num_tasks_ = num_tasks;
    set->tier_ = std::clamp(options.tier, 0, num_tiers_ - 1);
    set->max_parallelism_ = std::max(options.max_parallelism, 0);
    set->stride_ = 1.0 / std::max(options.weight, 1e-9);
    set->last_dispatch_sec_ = monotonicSec();

    std::unique_lock<std::mutex> lock(mutex_);
    ++sets_submitted_;
    set->id_ = next_set_id_++;
    if (num_tasks == 0) {
        ++sets_completed_;
        set->done_.store(true, std::memory_order_release);
        if (set->on_complete_) {
            // Inline, outside the lock: the continuation may submit().
            std::function<void()> continuation =
                std::move(set->on_complete_);
            lock.unlock();
            continuation();
        }
        return set;
    }
    // Join the tier at its current virtual time: a newcomer shares from
    // now on instead of monopolizing workers until its pass catches up
    // with long-running co-tenants.
    double min_pass = 0.0;
    bool have_pass = false;
    for (const auto& other : active_[static_cast<std::size_t>(set->tier_)]) {
        if (!have_pass || other->pass_ < min_pass) {
            min_pass = other->pass_;
            have_pass = true;
        }
    }
    set->pass_ = have_pass ? min_pass : 0.0;
    active_[static_cast<std::size_t>(set->tier_)].push_back(set);
    work_cv_.notify_all();
    return set;
}

int
Executor::effectiveTier(const TaskSet& set, double now_sec) const
{
    if (aging_sec_ <= 0.0 || set.tier_ == 0)
        return set.tier_;
    const double waited = now_sec - set.last_dispatch_sec_;
    if (waited <= aging_sec_)
        return set.tier_;
    const int credit = static_cast<int>(waited / aging_sec_);
    return std::max(set.tier_ - credit, 0);
}

std::shared_ptr<Executor::TaskSet>
Executor::pickRunnable(double now_sec) const
{
    // With aging on, a starving high-tier set competes at its aged
    // (effective) tier, so strict priority degrades gracefully into
    // bounded starvation instead of unbounded.
    std::shared_ptr<TaskSet> best;
    int best_tier = num_tiers_;
    for (const auto& tier : active_) {
        for (const auto& set : tier) {
            if (set->next_ >= set->num_tasks_)
                continue; // fully claimed; lingers until completed
            if (set->max_parallelism_ > 0 &&
                set->inflight_ >= set->max_parallelism_)
                continue;
            const int eff = effectiveTier(*set, now_sec);
            if (!best || eff < best_tier ||
                (eff == best_tier &&
                 (set->pass_ < best->pass_ ||
                  (set->pass_ == best->pass_ && set->id_ < best->id_)))) {
                best = set;
                best_tier = eff;
            }
        }
        // Strict-tier fast path: with aging off, never look past a
        // runnable tier (identical to the historical scan).
        if (best && aging_sec_ <= 0.0)
            return best;
    }
    return best;
}

void
Executor::setAgingSec(double aging_sec)
{
    std::lock_guard<std::mutex> lock(mutex_);
    aging_sec_ = std::max(aging_sec, 0.0);
}

double
Executor::agingSec() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return aging_sec_;
}

void
Executor::workerLoop(int worker_id)
{
    const auto self = static_cast<std::size_t>(worker_id);
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        std::shared_ptr<TaskSet> set = pickRunnable(monotonicSec());
        if (!set) {
            if (stop_)
                return;
            if (aging_sec_ > 0.0) {
                // Aging changes which set is runnable as time passes,
                // so parked workers must re-check periodically instead
                // of sleeping until a submit/completion notification.
                work_cv_.wait_for(
                    lock, std::chrono::duration<double>(aging_sec_ * 0.5));
            } else {
                work_cv_.wait(lock);
            }
            continue;
        }
        const std::size_t index = set->next_++;
        set->pass_ += set->stride_;
        set->last_dispatch_sec_ = monotonicSec();
        ++set->inflight_;
        ++tasks_executed_;
        if (worker_last_set_[self] != 0 && worker_last_set_[self] != set->id_)
            ++steals_;
        worker_last_set_[self] = set->id_;

        lock.unlock();
        {
            trace::Span span("executor.task", "executor");
            char detail[32];
            std::snprintf(detail, sizeof(detail), "tier=%d set=%lld",
                          set->tier_,
                          static_cast<long long>(set->id_));
            span.arg(detail);
            runTaskContained(set->task_, index);
        }
        lock.lock();

        --set->inflight_;
        ++set->completed_;
        if (set->completed_ == set->num_tasks_) {
            auto& tier = active_[static_cast<std::size_t>(set->tier_)];
            tier.erase(std::find(tier.begin(), tier.end(), set));
            ++sets_completed_;
            set->done_.store(true, std::memory_order_release);
            set->done_cv_.notify_all();
            if (set->on_complete_) {
                // The continuation runs outside the lock so it may
                // submit() follow-up sets (job epilogues do). It is
                // exception-contained like a task but bypasses the
                // executor.task failpoint: a continuation advances a
                // job's state machine, and chaos runs must not be able
                // to wedge completion itself.
                std::function<void()> continuation =
                    std::move(set->on_complete_);
                lock.unlock();
                try {
                    continuation();
                } catch (const std::exception& e) {
                    warn("executor: set ", set->id_,
                         " completion continuation threw (", e.what(),
                         "); contained");
                } catch (...) {
                    warn("executor: set ", set->id_,
                         " completion continuation threw (non-std "
                         "exception); contained");
                }
                lock.lock();
            }
        } else if (set->max_parallelism_ > 0 &&
                   set->next_ < set->num_tasks_) {
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
    stats.queue_depth.resize(static_cast<std::size_t>(num_tiers_), 0);
    for (int t = 0; t < num_tiers_; ++t) {
        for (const auto& set : active_[static_cast<std::size_t>(t)]) {
            stats.queue_depth[static_cast<std::size_t>(t)] +=
                static_cast<std::int64_t>(set->num_tasks_ - set->next_);
        }
    }
    return stats;
}

} // namespace cosa
