#pragma once

/**
 * @file
 * SchedulerService — the process-wide multi-tenant front door for
 * scheduling queries.
 *
 * One service owns one shared work-stealing `Executor`; every job
 * submitted by every tenant runs its per-layer solve tasks on that one
 * crew of workers instead of spinning a private pool (N tenants no
 * longer oversubscribe the machine N-fold). The whole query is one
 * value type, `ScheduleRequest` — workloads, arch, scheduler kind and
 * tunables, evaluation backend, objective, budgets, priority, fair-
 * share weight, optional deadline — and `submit(ScheduleRequest)` is
 * the one entry point.
 *
 * Scheduling semantics — the executor is the one scheduler of jobs:
 *  - strict priority tiers (`JobPriority`): no Batch task is
 *    dispatched while an Interactive job has a claimable task;
 *    running solves always finish (preemption at task boundaries);
 *  - weighted fair share across same-tier jobs at per-layer-task
 *    granularity (`ScheduleRequest::weight`, stride scheduling);
 *  - deadlines: a job whose `deadline_sec` elapses (measured from
 *    submit, queue wait included) is auto-cancelled cooperatively —
 *    exactly like `ScheduleJob::cancel()`, the solved prefix keeps its
 *    results and the rest is flagged.
 *
 * submit() admits every job while the service lives; bounds on
 * admission belong to the caller (cosad's per-tenant quota). Tiers are
 * strict: a sustained Interactive flood postpones Batch work until it
 * drains. Dispatch order never reaches a result (see the determinism
 * contract below).
 *
 * Execution model (threadless queued jobs): a job never owns a thread.
 * submit() enqueues a *prologue* task (canonicalize + memoize) on the
 * shared executor at the job's tier and weight; the prologue submits
 * the per-layer solve task set; the set's completion continuation runs
 * the *epilogue* (scatter, aggregate, finish the handle). A job is
 * queued until its prologue starts, and a queued or waiting job is
 * just heap state — 1000 queued jobs hold zero runner threads, and
 * `ScheduleJob::wait()` is a condition wait on the handle, not a join.
 *
 * Determinism under multi-tenancy: a fixed `ScheduleRequest` produces
 * a bit-identical `NetworkResult` (mappings, evaluations, counters) at
 * any executor width and under any co-tenant mix, because tasks are
 * pure functions of their index and the executor only permutes
 * execution order. The one sharing channel that could leak co-tenant
 * state — the cross-query `ScheduleCache` — is therefore *opt-in* per
 * request: a null `ScheduleRequest::cache` gives the job a private
 * cache (dedup still collapses duplicates within the batch). Passing a
 * shared cache (e.g. one shared by an arch sweep or a sequence of
 * per-layer queries) trades that guarantee for cross-query memoization
 * and cross-layer warm starts, whose outcome then depends on cache
 * history: determinism is per query *sequence*. Deadlines are
 * inherently wall-clock: an expired job's result is a *prefix* of the
 * deterministic one.
 *
 * Failure containment (docs/robustness.md): every layer solve runs
 * behind an exception firewall. A typed fault (`cosa::Status`) or a
 * thrown exception is caught, retried unchanged up to
 * `ScheduleRequest::max_solve_retries` times, then handed to a
 * degradation ladder (greedy schedule, then random search); the
 * layer's `LayerOutcome` records which path served it. One poisoned
 * layer therefore degrades one layer — never the job, the tenant or
 * the process. With no faults injected and healthy inputs the
 * firewall is pass-through and results are bit-identical to the
 * pre-firewall engine.
 *
 * Introspection: `stats()` reports queue depths, per-priority queue
 * waits (submit -> prologue start: the time a job waits for a worker)
 * and the executor's task/steal counters.
 */

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cosa/scheduler.hpp"
#include "engine/network_result.hpp"
#include "engine/schedule_cache.hpp"
#include "engine/schedule_job.hpp"
#include "engine/executor.hpp"
#include "mapper/hybrid_mapper.hpp"
#include "mapper/random_mapper.hpp"
#include "problem/workloads.hpp"

namespace cosa {

/** Which scheduler a request drives. */
enum class SchedulerKind {
    Cosa,   //!< one-shot MIP (the paper's contribution)
    Random, //!< random-search baseline
    Hybrid, //!< Timeloop-Hybrid baseline
};

/** Display name of a scheduler kind. */
const char* schedulerKindName(SchedulerKind kind);

/** Display name ("interactive" / "normal" / "batch"). */
const char* jobPriorityName(JobPriority priority);

/** Parse a priority name; false (and @p out untouched) on unknown. */
bool parseJobPriority(const std::string& text, JobPriority* out);

/**
 * CLI helper shared by the examples: consumes "--priority <name>"
 * (advancing @p a) like parseObjectiveFlag; a missing or unknown value
 * is fatal.
 */
bool parsePriorityFlag(int argc, char** argv, int* a, JobPriority* priority);

/**
 * One scheduling query, self-contained: what to schedule, on which
 * arch, with which scheduler and tunables, and how the job competes
 * on the shared executor. Value type — copy it, stash it, replay it; a
 * fixed request is the unit of the determinism contract above.
 */
struct ScheduleRequest
{
    /** The batch: one or more networks scheduled as a single query
     *  (shared canonicalization, dedup and task set). */
    std::vector<Workload> workloads;
    ArchSpec arch;

    SchedulerKind scheduler = SchedulerKind::Cosa;
    /** Objective for the search baselines and CoSA's final candidate
     *  pick. */
    SearchObjective objective = SearchObjective::Latency;
    /** Evaluation backend scoring every schedule; null selects the
     *  shared analytical model. */
    std::shared_ptr<const Evaluator> evaluator;

    // Per-scheduler tunables (budgets live in cosa.mip).
    CosaConfig cosa;
    RandomMapperConfig random;
    HybridMapperConfig hybrid;

    /** Collapse identical layer shapes within this query. */
    bool deduplicate = true;
    /**
     * Cross-query memoization: null keeps the job on a private cache
     * (the deterministic default); pass a shared ScheduleCache to
     * reuse solves across queries and tenants.
     */
    std::shared_ptr<ScheduleCache> cache;
    /** Probe @p cache for exact hits (and insert solves). */
    bool use_cache = true;
    /** Seed cold CoSA solves with the cache's nearest-neighbor
     *  schedule (requires use_cache and a warm shared cache). */
    bool warm_start_hints = true;

    /** Strict scheduling tier of this job. */
    JobPriority priority = JobPriority::Normal;
    /** Fair-share weight against running same-tier jobs (> 0): a
     *  weight-2 job receives twice the task slots of a weight-1 one. */
    double weight = 1.0;
    /**
     * Auto-cancel deadline in seconds from submit (queue wait
     * included); 0 = none. Checked cooperatively before each task:
     * solves already finished keep their results, the rest is flagged
     * cancelled and `NetworkResult::deadline_expired` is set.
     */
    double deadline_sec = 0.0;
    /** Max concurrently running layer solves of this job on the shared
     *  executor (a Hybrid solve's helper walks queue beside them at the
     *  job's tier); 0 = unlimited. 1 solves in unique-problem order. */
    int max_parallelism = 0;
    /**
     * Retries the failure firewall grants a layer solve that fails
     * with a *retriable* typed fault (numeric trouble, a singular
     * basis) before falling down the degradation ladder; a retry
     * re-runs the same solve, so it recovers transient faults only.
     * Clamped to [0, 8]. Irrelevant on fault-free runs — results there
     * are bit-identical at any setting.
     */
    int max_solve_retries = 2;
    /** Display label: the detail of the job's trace spans and the
     *  `tag` of cosad's job listing. Defaults to the first workload's
     *  name. */
    std::string tag;
    /**
     * Tenant identity for accounting: the `tenant` label on the
     * service's admission/queue-wait/completion metrics (and on every
     * label the daemon's wire layer adds). Purely observational — it
     * never influences scheduling or results; isolation knobs are
     * priority/weight here and auth/quota in the serving daemon.
     * Empty normalizes to "default".
     */
    std::string tenant;
};

/**
 * Serialization of every scheduler tunable of @p request that can
 * change a solve's outcome — the third component of the cache key
 * (byte-stable across releases, so stored cache entries stay valid).
 */
std::string schedulerConfigKey(const ScheduleRequest& request);

/** Why a submission was not admitted: the service is being
 *  destroyed. */
struct Rejected
{
    std::string message;
};

/**
 * Outcome of SchedulerService::submit(): an admitted job handle or,
 * while the service is being destroyed, a rejection. Move-only (it
 * may own the job).
 */
class SubmitResult
{
  public:
    /*implicit*/ SubmitResult(ScheduleJob job) : job_(std::move(job)) {}
    /*implicit*/ SubmitResult(Rejected rejected)
        : rejected_(std::move(rejected))
    {
    }

    bool accepted() const { return job_.has_value(); }
    explicit operator bool() const { return accepted(); }

    /** The admitted job (valid only when accepted()). */
    ScheduleJob& job() { return *job_; }
    /** Move the admitted job out (valid only when accepted()). */
    ScheduleJob takeJob() { return std::move(*job_); }

    /** The rejection (valid only when !accepted()). */
    const Rejected& rejection() const { return *rejected_; }

  private:
    std::optional<ScheduleJob> job_;
    std::optional<Rejected> rejected_;
};

/** Executor sizing of a service. */
struct ServiceConfig
{
    /** Shared executor width; 0 = hardware concurrency. */
    int num_threads = 0;
};

/** Aggregate service counters (monotonic unless noted). */
struct ServiceStats
{
    std::int64_t submitted = 0; //!< admitted jobs
    std::int64_t rejected = 0;
    std::int64_t completed = 0;
    /** Completed jobs that finished with the cancel flag set (user
     *  cancels and expired deadlines). */
    std::int64_t cancelled = 0;
    std::int64_t deadline_expired = 0;
    /** Completed jobs with at least one layer served by the
     *  degradation ladder (a job can count as both degraded and
     *  failed when different layers hit different paths). */
    std::int64_t degraded = 0;
    /** Completed jobs with at least one layer left unscheduled by a
     *  fault (LayerOutcome::kFailed). */
    std::int64_t failed = 0;
    /** Submitted jobs whose prologue has not started (snapshot). */
    std::int64_t queued_now = 0;
    /** Started, unfinished jobs (snapshot). */
    std::int64_t inflight_now = 0;

    /** Per-priority-tier accounting. */
    struct TierStats
    {
        std::int64_t submitted = 0;
        std::int64_t completed = 0;
        std::int64_t degraded = 0; //!< see ServiceStats::degraded
        std::int64_t failed = 0;   //!< see ServiceStats::failed
        std::int64_t queued_now = 0; //!< snapshot, see ServiceStats
        /** Summed queue wait (submit -> prologue start) of started
         *  jobs: the time they waited for a worker. */
        double total_queue_wait_sec = 0.0;
        double max_queue_wait_sec = 0.0;
        /** Claimable solve tasks on the executor right now. */
        std::int64_t pending_tasks = 0; //!< snapshot

        double
        meanQueueWaitSec() const
        {
            const std::int64_t started = submitted - queued_now;
            return started <= 0 ? 0.0
                                : total_queue_wait_sec /
                                      static_cast<double>(started);
        }
    };
    std::array<TierStats, kNumJobPriorities> tiers;

    /** The shared executor's counters (tasks, steals, depths). */
    ExecutorStats executor;
};

/**
 * The multi-tenant scheduling service. Thread-safe: submit/stats may
 * race freely. The service must outlive every ScheduleJob it admitted;
 * destruction waits for every admitted job to finish, then joins the
 * executor. Do not submit from inside a solve task (the workers are
 * the resource being requested).
 */
class SchedulerService
{
  public:
    explicit SchedulerService(ServiceConfig config = {});
    ~SchedulerService();

    SchedulerService(const SchedulerService&) = delete;
    SchedulerService& operator=(const SchedulerService&) = delete;

    /**
     * Admit @p request and enqueue its prologue at the request's tier;
     * rejected only while the service is being destroyed. @p
     * on_progress is installed before the job can start, so it
     * observes every event live.
     */
    SubmitResult submit(ScheduleRequest request,
                        ScheduleJob::ProgressCallback on_progress = {});

    /** Aggregate counters + executor stats. */
    ServiceStats stats() const;

    /**
     * The process-wide metric registry rendered as Prometheus text
     * exposition, with this service's live gauges (queue depths,
     * in-flight jobs, executor counters) refreshed first. The registry
     * is process-global, so the text also carries solver/cache metrics
     * from outside this service. See docs/observability.md.
     */
    std::string metricsText() const;

    const ServiceConfig& config() const { return config_; }

    /**
     * The shared work-stealing executor. Exposed for background
     * maintenance work that should ride the service's worker crew as
     * threadless continuations (e.g. cachestore compaction) instead of
     * owning a thread; submit such sets at `JobPriority::Batch` so
     * they never delay a higher-tier solve. Valid for the service's
     * lifetime.
     */
    Executor& executor() { return *executor_; }

    /**
     * The process-wide default service (hardware-width executor):
     * what in-process callers (the quickstart, the benches) submit to,
     * so their queries share one worker crew.
     */
    static SchedulerService& defaultService();

  private:
    struct JobRecord;
    struct JobPhase;

    /** Fill evaluator/objective defaults and the private cache. */
    void normalize(ScheduleRequest& request) const;
    /** Job-finished accounting. Runs on the worker that completed the
     *  job's last continuation. */
    void onJobFinished(const std::shared_ptr<JobRecord>& record);
    /** Phase 1+2 (canonicalize, memoize) as a single executor task;
     *  it first ends the job's queue wait, and ends by submitting the
     *  solve task set whose completion continuation is jobEpilogue(). */
    void jobPrologue(const std::shared_ptr<JobRecord>& record);
    /** One per-layer solve task of the job's solve set. */
    void jobSolveTask(const std::shared_ptr<JobRecord>& record,
                      std::size_t t);
    /** Phase 4 (cache insert, scatter, aggregate, finish the handle);
     *  the solve set's completion continuation. */
    void jobEpilogue(const std::shared_ptr<JobRecord>& record);
    /** Mark unique problem @p u complete and emit frontier-ordered
     *  progress events. */
    void completeProblem(const std::shared_ptr<JobRecord>& record,
                         std::size_t u);
    /** Refresh this service's registry gauges (queue depths, in-flight
     *  jobs, executor counters); the registered collector callback. */
    void publishGauges() const;

    ServiceConfig config_;
    std::unique_ptr<Executor> executor_;
    /** Registry collector id (removed before shutdown so renders never
     *  call into a dying service). */
    std::uint64_t collector_id_ = 0;

    mutable std::mutex mutex_;
    std::condition_variable drained_cv_; //!< signaled as jobs finish
    bool shutting_down_ = false;

    // Counters behind stats().
    std::int64_t submitted_ = 0;
    std::int64_t rejected_ = 0;
    std::int64_t completed_ = 0;
    std::int64_t cancelled_ = 0;
    std::int64_t deadline_expired_ = 0;
    std::int64_t degraded_ = 0;
    std::int64_t failed_ = 0;
    std::int64_t inflight_ = 0;
    struct TierCounters
    {
        std::int64_t submitted = 0;
        std::int64_t queued_now = 0;
        std::int64_t completed = 0;
        std::int64_t degraded = 0;
        std::int64_t failed = 0;
        double total_queue_wait_sec = 0.0;
        double max_queue_wait_sec = 0.0;
    };
    std::array<TierCounters, kNumJobPriorities> tier_counters_;
};

} // namespace cosa
