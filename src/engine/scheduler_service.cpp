#include "engine/scheduler_service.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <exception>
#include <limits>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "cosa/greedy.hpp"

namespace cosa {

const char*
schedulerKindName(SchedulerKind kind)
{
    switch (kind) {
      case SchedulerKind::Cosa: return "CoSA";
      case SchedulerKind::Random: return "Random";
      case SchedulerKind::Hybrid: return "TimeloopHybrid";
    }
    panic("invalid scheduler kind");
}

const char*
jobPriorityName(JobPriority priority)
{
    switch (priority) {
      case JobPriority::Interactive: return "interactive";
      case JobPriority::Normal: return "normal";
      case JobPriority::Batch: return "batch";
    }
    panic("invalid job priority");
}

bool
parseJobPriority(const std::string& text, JobPriority* out)
{
    for (JobPriority p : {JobPriority::Interactive, JobPriority::Normal,
                          JobPriority::Batch}) {
        if (text == jobPriorityName(p)) {
            *out = p;
            return true;
        }
    }
    return false;
}

bool
parsePriorityFlag(int argc, char** argv, int* a, JobPriority* priority)
{
    if (std::strcmp(argv[*a], "--priority") != 0)
        return false;
    if (*a + 1 >= argc)
        fatal("--priority needs a value (interactive, normal, batch)");
    const std::string value = argv[++*a];
    if (!parseJobPriority(value, priority))
        fatal("unknown --priority \"", value,
              "\" (expected interactive, normal or batch)");
    return true;
}

// --- scheduler config key ------------------------------------------------
// Byte-stable across releases so existing cachestore directories keep
// hitting.

namespace {

void
appendCosaKey(std::ostringstream& oss, const CosaConfig& c)
{
    oss << "cosa(" << static_cast<int>(c.objective_mode) << ","
        << c.w_util << "," << c.w_comp << "," << c.w_traf << ","
        << c.tie_break << ",[";
    for (const auto& level : c.capacity_fraction) {
        for (double f : level)
            oss << f << ";";
        oss << "/";
    }
    // The trailing 1 is the retired MIP seed's default, written
    // literally so stored records keep hitting.
    oss << "]," << c.mip.time_limit_sec << "," << c.mip.work_limit << ","
        << c.mip.rel_gap << "," << c.mip.int_tol << "," << c.mip.node_limit
        << "," << (c.mip.presolve ? 1 : 0) << ",1)";
}

void
appendRandomKey(std::ostringstream& oss, const RandomMapperConfig& c)
{
    oss << "rnd(" << c.max_samples << "," << c.target_valid << ","
        << c.seed << ")";
}

void
appendHybridKey(std::ostringstream& oss, const HybridMapperConfig& c)
{
    oss << "tlh(" << c.num_threads << "," << c.victory_condition << ","
        << c.max_perms_per_factorization << ","
        << c.max_samples_per_thread << "," << c.seed << ")";
}

} // namespace

std::string
schedulerConfigKey(const ScheduleRequest& request)
{
    std::ostringstream oss;
    // Full double precision, matching ArchSpec::fingerprint(): configs
    // differing in any weight or limit must key distinct cache entries.
    oss.precision(std::numeric_limits<double>::max_digits10);
    oss << schedulerKindName(request.scheduler) << "/"
        << static_cast<int>(request.objective) << "/"
        // Warm-start hints change what a budget-limited solve returns,
        // so requests with and without them must not share entries.
        << (request.warm_start_hints ? "wh1" : "wh0") << "/";
    switch (request.scheduler) {
      case SchedulerKind::Cosa:
        appendCosaKey(oss, request.cosa);
        break;
      case SchedulerKind::Random:
        appendRandomKey(oss, request.random);
        break;
      case SchedulerKind::Hybrid:
        appendHybridKey(oss, request.hybrid);
        break;
    }
    return oss.str();
}

// --- one solve -----------------------------------------------------------

namespace {

/** Per-(tenant, tier) child of a counter family: every admission /
 *  completion / degradation counter is labeled with the submitting
 *  tenant so one tenant's traffic is separable in /metrics. */
metrics::Counter&
tenantTierCounter(const char* name, const char* help,
                  const std::string& tenant, JobPriority priority)
{
    return metrics::MetricsRegistry::global().counter(
        name, help,
        {{"tenant", tenant}, {"tier", jobPriorityName(priority)}});
}

/** The evaluator family ("analytical", "nocsim", "cascade"): the
 *  fingerprint up to its parameter block, a bounded backend label. */
std::string
backendLabel(const Evaluator& evaluator)
{
    std::string fp = evaluator.fingerprint();
    if (const auto cut = fp.find_first_of("/["); cut != std::string::npos)
        fp.resize(cut);
    return fp;
}

/** Fold one finished (non-cached) layer solve into the registry. */
void
recordSolveMetrics(const ScheduleRequest& req, const SearchResult& solved)
{
    auto& registry = metrics::MetricsRegistry::global();
    const metrics::Labels by_sched = {{"scheduler", solved.scheduler},
                                      {"backend",
                                       backendLabel(*req.evaluator)}};
    registry
        .counter("cosa_solve_layers_total",
                 "Unique layer problems solved (cache misses)", by_sched)
        .inc();
    registry
        .histogram("cosa_solve_time_seconds",
                   "Wall time per unique layer solve",
                   {{"scheduler", solved.scheduler}})
        .observe(solved.stats.search_time_sec);

    const SearchStats& s = solved.stats;
    auto solver_counter = [&registry](const char* name, const char* help)
        -> metrics::Counter& { return registry.counter(name, help); };
    solver_counter("cosa_solver_lp_iterations_total",
                   "Simplex iterations across all solves")
        .inc(s.lp_iterations);
    solver_counter("cosa_solver_mip_nodes_total",
                   "Branch-and-bound nodes across all solves")
        .inc(s.mip_nodes);
    solver_counter("cosa_solver_lu_factorizations_total",
                   "Fresh basis LU factorizations")
        .inc(s.lu_factorizations);
    solver_counter("cosa_solver_lu_eta_updates_total",
                   "Product-form eta updates absorbed")
        .inc(s.lu_eta_updates);
    solver_counter("cosa_solver_lu_refactor_requests_total",
                   "Stability- or fill-triggered refactorization requests")
        .inc(s.lu_unstable_updates + s.lu_fill_refactor_requests);
    solver_counter("cosa_solver_warm_starts_installed_total",
                   "Cross-layer warm-start hints installed as MIP starts")
        .inc(s.warm_starts_installed);
    solver_counter("cosa_solver_warm_start_hits_total",
                   "Installed hints the MIP accepted as incumbents")
        .inc(s.warm_start_hits);
}

/** One attempt of the requested scheduler. Hybrid's helper walks queue
 *  on @p executor at the job's tier and weight. */
SearchResult
solveOne(const ScheduleRequest& req, const LayerSpec& layer,
         const ArchSpec& arch, const std::vector<Mapping>& warm_hints,
         Executor& executor)
{
    const Evaluator& evaluator = *req.evaluator;
    switch (req.scheduler) {
      case SchedulerKind::Cosa:
        return CosaScheduler(req.cosa, req.objective)
            .schedule(layer, arch, warm_hints, evaluator);
      case SchedulerKind::Random:
        return RandomMapper(req.random).schedule(layer, arch, evaluator);
      case SchedulerKind::Hybrid:
        return HybridMapper(req.hybrid).schedule(
            layer, arch, evaluator,
            [&](int count, std::function<void()> help) {
                executor.submit(static_cast<std::size_t>(count),
                                [help](std::size_t) { help(); },
                                {.tier = req.priority, .weight = req.weight,
                                 .on_complete = {}});
            });
    }
    panic("invalid scheduler kind");
}

// --- the failure firewall ------------------------------------------------

/** Per-code child of the firewall's fault counter. */
metrics::Counter&
errorCounter(ErrorCode code)
{
    return metrics::MetricsRegistry::global().counter(
        "cosa_errors_total",
        "Typed faults caught by the service's solve firewall",
        {{"code", errorCodeName(code)}});
}

/** Per-rung child of the degradation-ladder counter. */
metrics::Counter&
fallbackCounter(const char* stage)
{
    return metrics::MetricsRegistry::global().counter(
        "cosa_layer_fallbacks_total",
        "Layer solves served by the degradation ladder",
        {{"stage", stage}});
}

/**
 * Reject obviously poisoned inputs before they reach the solver or the
 * evaluator: out-of-range layer dimensions and non-finite architecture
 * constants produce garbage schedules (or NaN objectives, or a
 * factorization that never ends) rather than clean failures, so they
 * fail fast with a typed cause instead. So does a Hybrid walk count
 * outside [1, kMaxHybridThreads]: each walk holds a candidate funnel
 * and queues a helper task.
 */
Status
validateSolveInputs(const ScheduleRequest& req, const LayerSpec& layer,
                    const ArchSpec& arch)
{
    if (Status bounds = layer.checkBounds(); !bounds.ok())
        return bounds;
    if (req.scheduler == SchedulerKind::Hybrid) {
        if (Status threads = req.hybrid.checkBounds(); !threads.ok())
            return threads;
    }
    auto finite = [](double v) { return std::isfinite(v); };
    for (const MemLevelSpec& level : arch.levels) {
        if (!finite(level.energy_pj_per_byte) ||
            !finite(level.bandwidth_bytes_per_cycle) ||
            level.bandwidth_bytes_per_cycle <= 0.0)
            return {ErrorCode::kNumericFailure,
                    "arch level " + level.name +
                        " has a non-finite (or non-positive) constant"};
    }
    if (!finite(arch.noc_hop_energy_pj_per_byte) ||
        !finite(arch.mac_energy_pj))
        return {ErrorCode::kNumericFailure,
                "arch " + arch.name + " has a non-finite energy constant"};
    return Status::Ok();
}

/** What the firewall did for one layer, for provenance plumbing. */
struct FirewallReport
{
    LayerOutcome outcome = LayerOutcome::kOptimal;
    int retries = 0;
    const char* fallback_stage = ""; //!< "greedy"/"random" when degraded
};

/**
 * solveOne() behind the containment boundary: catches typed faults and
 * exceptions, re-runs retriable ones unchanged (solves are
 * deterministic, so a retry that gets past a transient fault is
 * indistinguishable from a fault-free solve, and a deterministic fault
 * fails again), then walks the degradation ladder — the greedy
 * always-constructible schedule first, random search second. Never
 * throws.
 */
SearchResult
solveWithFirewall(const ScheduleRequest& req, const LayerSpec& layer,
                  const ArchSpec& arch,
                  const std::vector<Mapping>& warm_hints,
                  Executor& executor, FirewallReport* report)
{
    auto recordFault = [&](const Status& fault, const char* where) {
        errorCounter(fault.code()).inc();
        warn("firewall: ", where, " fault for layer ", layer.name, ": ",
             fault.toString());
        trace::Tracer& tracer = trace::Tracer::global();
        if (tracer.enabled()) {
            tracer.record("firewall.catch", "engine",
                          trace::Tracer::nowMicros(), 0,
                          std::string(errorCodeName(fault.code())) + " " +
                              layer.name);
        }
    };
    auto observeRetries = [&](int retries) {
        report->retries = retries;
        metrics::MetricsRegistry::global()
            .histogram("cosa_solve_retries",
                       "Typed-fault retries per firewalled layer solve")
            .observe(static_cast<double>(retries));
    };

    auto fail = [&](Status cause) {
        report->outcome = LayerOutcome::kFailed;
        SearchResult failed;
        failed.scheduler = schedulerKindName(req.scheduler);
        failed.status = std::move(cause);
        return failed;
    };

    if (Status guard = validateSolveInputs(req, layer, arch); !guard.ok()) {
        // The problem statement itself is poisoned: retrying or falling
        // back would only launder garbage into a "schedule".
        recordFault(guard, "input-validation");
        observeRetries(0);
        return fail(std::move(guard));
    }

    Status last;
    const int max_attempts = 1 + std::max(req.max_solve_retries, 0);
    int attempt = 0;
    for (; attempt < max_attempts; ++attempt) {
        SearchResult result;
        Status fault;
        try {
            result = solveOne(req, layer, arch, warm_hints, executor);
            fault = result.status;
        } catch (const CosaError& e) {
            fault = e.status();
        } catch (const std::exception& e) {
            fault = {ErrorCode::kInternal, e.what()};
        } catch (...) {
            fault = {ErrorCode::kInternal, "non-std exception"};
        }
        if (fault.ok()) {
            observeRetries(attempt);
            return result;
        }
        last = std::move(fault);
        recordFault(last, attempt == 0 ? "solve" : "retry");
        if (!isRetriable(last.code()) ||
            last.code() == ErrorCode::kCancelled)
            break;
    }
    observeRetries(std::min(attempt, max_attempts - 1));

    // Degradation ladder, rung 1: the greedy schedule is constructible
    // for every well-formed problem; score it on the full evaluator.
    try {
        const Mapping greedy = greedyMapping(layer, arch);
        const auto bound = req.evaluator->bind(layer, arch);
        Evaluation ev = bound->evaluate(greedy);
        if (ev.valid) {
            SearchResult result;
            result.found = true;
            result.mapping = greedy;
            result.eval = std::move(ev);
            result.scheduler = "Greedy[fallback]";
            result.stats.samples = 1;
            result.stats.valid_evaluated = 1;
            report->outcome = LayerOutcome::kDegradedFallback;
            report->fallback_stage = "greedy";
            fallbackCounter("greedy").inc();
            inform("firewall: layer ", layer.name,
                   " degraded to the greedy schedule after ",
                   last.toString());
            return result;
        }
    } catch (const std::exception& e) {
        recordFault({ErrorCode::kEvaluatorFault, e.what()},
                    "greedy-fallback");
    }

    // Rung 2: random search (its own seed, no solver involved).
    try {
        SearchResult result =
            RandomMapper(req.random).schedule(layer, arch, *req.evaluator);
        if (result.found) {
            result.scheduler = "Random[fallback]";
            result.status = Status::Ok();
            report->outcome = LayerOutcome::kDegradedFallback;
            report->fallback_stage = "random";
            fallbackCounter("random").inc();
            inform("firewall: layer ", layer.name,
                   " degraded to random search after ", last.toString());
            return result;
        }
    } catch (const std::exception& e) {
        recordFault({ErrorCode::kEvaluatorFault, e.what()},
                    "random-fallback");
    }

    return fail(last.ok() ? Status(ErrorCode::kInternal,
                                   "solve failed without a typed cause")
                          : std::move(last));
}

} // namespace

// --- service -------------------------------------------------------------

/**
 * Heap state of one job's continuation pipeline, created by the
 * prologue and consumed by the solve tasks and the epilogue — what
 * used to live on the runner thread's stack. A queued job has none;
 * a finished job drops it.
 */
struct SchedulerService::JobPhase
{
    /** One layer instance of the batch. */
    struct Instance
    {
        int net;
        int layer;
        int unique;
        bool deduplicated;
    };

    double start = 0.0;       //!< prologue entry (wallTimeSec)
    double deadline_at = 0.0; //!< absolute deadline; 0 = none
    std::int64_t run_trace_us = 0; //!< job.run span start (trace clock)

    std::vector<Instance> instances;
    std::vector<const LayerSpec*> unique_layers; //!< first occurrences
    std::vector<int> first_net; //!< network owning the first occurrence
    std::string arch_key, sched_key, eval_key;

    std::vector<SearchResult> solved;
    std::vector<char> from_cache;
    std::vector<FirewallReport> firewall;
    std::vector<std::vector<Mapping>> hints;
    std::vector<std::size_t> to_solve;
    std::vector<char> completed; //!< guarded by the job state mutex
    std::vector<char> skipped;
    std::size_t frontier = 0;          //!< guarded by state mutex
    std::int64_t cum_completed = 0;    //!< guarded by state mutex
    std::int64_t solve_trace_us = 0;   //!< job.solve span start

    ScheduleCacheKey
    keyOf(std::size_t u) const
    {
        return ScheduleCacheKey{unique_layers[u]->canonicalKey(),
                                arch_key, sched_key, eval_key};
    }
};

struct SchedulerService::JobRecord
{
    ScheduleRequest request;
    std::shared_ptr<ScheduleJob::State> state;
    std::shared_ptr<JobPhase> phase; //!< set by jobPrologue
    double submit_time = 0.0;
    /** Submit instant on the trace clock, so the queue-wait span can be
     *  emitted retroactively when the prologue starts. */
    std::int64_t submit_trace_us = 0;
    std::atomic<bool> deadline_expired{false};
    /** Set by jobEpilogue (single continuation): at least one layer
     *  was served by the degradation ladder / left failed. */
    bool degraded = false;
    bool failed = false;
};

SchedulerService::SchedulerService(ServiceConfig config)
    : config_(config)
{
    if (config_.num_threads <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        config_.num_threads = hw == 0 ? 1 : static_cast<int>(hw);
    }
    executor_ = std::make_unique<Executor>(config_.num_threads);
    // Live-state gauges refresh at render time, not on every mutation.
    // The gauge cells are process-global: with several services alive,
    // the most recently collected one wins (documented behavior).
    collector_id_ = metrics::MetricsRegistry::global().addCollector(
        [this] { publishGauges(); });
}

SchedulerService::~SchedulerService()
{
    metrics::MetricsRegistry::global().removeCollector(collector_id_);
    publishGauges(); // final snapshot now that renders can't call in
    std::unique_lock<std::mutex> lock(mutex_);
    shutting_down_ = true;
    // Every admitted job finishes normally and keeps its full results.
    drained_cv_.wait(lock, [&] { return completed_ == submitted_; });
    lock.unlock();
    executor_.reset(); // nothing pending; joins the worker crew
}

void
SchedulerService::normalize(ScheduleRequest& request) const
{
    if (!request.evaluator)
        request.evaluator = std::make_shared<AnalyticalEvaluator>();
    // The request-level objective is authoritative for the baselines,
    // so one knob drives every scheduler.
    request.random.objective = request.objective;
    request.hybrid.objective = request.objective;
    // Deterministic default: a private cache (see the header contract).
    if (!request.cache)
        request.cache = std::make_shared<ScheduleCache>();
    if (!(request.weight > 0.0))
        request.weight = 1.0;
    if (request.max_parallelism < 0)
        request.max_parallelism = 0;
    request.max_solve_retries =
        std::clamp(request.max_solve_retries, 0, 8);
    if (request.deadline_sec < 0.0)
        request.deadline_sec = 0.0;
    if (request.tag.empty()) {
        request.tag = request.workloads.empty()
                          ? "empty"
                          : request.workloads.front().name;
    }
    if (request.tenant.empty())
        request.tenant = "default";
}

SubmitResult
SchedulerService::submit(ScheduleRequest request,
                         ScheduleJob::ProgressCallback on_progress)
{
    normalize(request);
    auto record = std::make_shared<JobRecord>();
    record->request = std::move(request);
    record->state = std::make_shared<ScheduleJob::State>();
    if (on_progress)
        record->state->listeners.push_back(std::move(on_progress));

    const auto tier = static_cast<std::size_t>(record->request.priority);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (shutting_down_) {
            ++rejected_;
            metrics::MetricsRegistry::global()
                .counter("cosa_service_jobs_rejected_total",
                         "Jobs refused at admission",
                         {{"tenant", record->request.tenant},
                          {"reason", "shutting_down"}})
                .inc();
            return Rejected{"service is shutting down"};
        }
        record->submit_time = wallTimeSec();
        record->submit_trace_us = trace::Tracer::nowMicros();
        ++submitted_;
        ++tier_counters_[tier].submitted;
        ++tier_counters_[tier].queued_now;
    }
    tenantTierCounter("cosa_service_jobs_submitted_total", "Jobs admitted",
                      record->request.tenant, record->request.priority)
        .inc();
    // No thread is spawned: the job's prologue is one executor task at
    // the job's own tier/weight, and everything after it is
    // continuations. The executor's tiers and fair share are the one
    // queue a job waits in.
    Executor::TaskSetOptions options;
    options.tier = record->request.priority;
    options.weight = record->request.weight;
    executor_->submit(
        1, [this, record](std::size_t) { jobPrologue(record); }, options);
    return ScheduleJob(record->state);
}

void
SchedulerService::onJobFinished(const std::shared_ptr<JobRecord>& record)
{
    std::lock_guard<std::mutex> lock(mutex_);
    --inflight_;
    ++completed_;
    const std::string& tenant = record->request.tenant;
    const auto tier = static_cast<std::size_t>(record->request.priority);
    ++tier_counters_[tier].completed;
    tenantTierCounter("cosa_service_jobs_completed_total", "Jobs finished",
                      tenant, record->request.priority)
        .inc();
    if (record->state->cancel.load(std::memory_order_relaxed)) {
        ++cancelled_;
        metrics::MetricsRegistry::global()
            .counter("cosa_service_jobs_cancelled_total",
                     "Jobs that finished with cancel requested",
                     {{"tenant", tenant}})
            .inc();
    }
    if (record->deadline_expired.load(std::memory_order_relaxed)) {
        ++deadline_expired_;
        metrics::MetricsRegistry::global()
            .counter("cosa_service_deadline_expired_total",
                     "Jobs self-cancelled by their deadline",
                     {{"tenant", tenant}})
            .inc();
    }
    if (record->degraded) {
        ++degraded_;
        ++tier_counters_[tier].degraded;
        tenantTierCounter("cosa_service_jobs_degraded_total",
                          "Jobs with at least one ladder-served layer",
                          tenant, record->request.priority)
            .inc();
    }
    if (record->failed) {
        ++failed_;
        ++tier_counters_[tier].failed;
        tenantTierCounter("cosa_service_jobs_failed_total",
                          "Jobs with at least one fault-failed layer",
                          tenant, record->request.priority)
            .inc();
    }
    drained_cv_.notify_all();
}

ServiceStats
SchedulerService::stats() const
{
    ServiceStats stats;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stats.submitted = submitted_;
        stats.rejected = rejected_;
        stats.completed = completed_;
        stats.cancelled = cancelled_;
        stats.deadline_expired = deadline_expired_;
        stats.degraded = degraded_;
        stats.failed = failed_;
        stats.inflight_now = inflight_;
        for (int t = 0; t < kNumJobPriorities; ++t) {
            const auto tier = static_cast<std::size_t>(t);
            stats.tiers[tier].submitted = tier_counters_[tier].submitted;
            stats.tiers[tier].completed = tier_counters_[tier].completed;
            stats.tiers[tier].degraded = tier_counters_[tier].degraded;
            stats.tiers[tier].failed = tier_counters_[tier].failed;
            stats.tiers[tier].queued_now = tier_counters_[tier].queued_now;
            stats.tiers[tier].total_queue_wait_sec =
                tier_counters_[tier].total_queue_wait_sec;
            stats.tiers[tier].max_queue_wait_sec =
                tier_counters_[tier].max_queue_wait_sec;
            stats.queued_now += stats.tiers[tier].queued_now;
        }
    }
    stats.executor = executor_->stats();
    for (std::size_t tier = 0; tier < stats.tiers.size(); ++tier)
        stats.tiers[tier].pending_tasks = stats.executor.queue_depth[tier];
    return stats;
}

void
SchedulerService::publishGauges() const
{
    const ServiceStats snapshot = stats();
    auto& registry = metrics::MetricsRegistry::global();
    registry
        .gauge("cosa_service_inflight_jobs", "Jobs currently running")
        .set(static_cast<double>(snapshot.inflight_now));
    for (int t = 0; t < kNumJobPriorities; ++t) {
        const auto tier = static_cast<std::size_t>(t);
        const metrics::Labels labels = {
            {"tier", jobPriorityName(static_cast<JobPriority>(t))}};
        registry
            .gauge("cosa_service_queued_jobs",
                   "Submitted jobs waiting for a worker", labels)
            .set(static_cast<double>(snapshot.tiers[tier].queued_now));
        registry
            .gauge("cosa_executor_pending_tasks",
                   "Tasks queued in the shared executor", labels)
            .set(static_cast<double>(snapshot.tiers[tier].pending_tasks));
    }
    // Executor-lifetime counters surface as gauges: the executor owns
    // the canonical count, and mirroring it avoids double bookkeeping.
    registry
        .gauge("cosa_executor_tasks_executed",
               "Tasks the shared executor has run")
        .set(static_cast<double>(snapshot.executor.tasks_executed));
    registry
        .gauge("cosa_executor_steals",
               "Tasks run by workers outside the task's home tier lane")
        .set(static_cast<double>(snapshot.executor.steals));
}

std::string
SchedulerService::metricsText() const
{
    // renderPrometheus() runs every registered collector (including
    // this service's publishGauges) before serializing.
    return metrics::MetricsRegistry::global().renderPrometheus();
}

SchedulerService&
SchedulerService::defaultService()
{
    static SchedulerService service;
    return service;
}

// --- the job body (continuation pipeline) --------------------------------
//
// One job = one prologue task, then a solve task set, then an epilogue
// completion continuation — all on the shared executor at the job's
// tier/weight. Nothing here blocks a thread on the job's behalf: a
// queued or mid-solve job is pure heap state (JobRecord + JobPhase).

void
SchedulerService::jobPrologue(const std::shared_ptr<JobRecord>& record)
{
    const ScheduleRequest& req = record->request;
    const std::vector<Workload>& workloads = req.workloads;
    auto phase = std::make_shared<JobPhase>();
    phase->start = wallTimeSec();

    // The job leaves the queue: submit -> here is the time it waited
    // for a worker.
    const auto tier = static_cast<std::size_t>(req.priority);
    const double wait = phase->start - record->submit_time;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        TierCounters& counters = tier_counters_[tier];
        --counters.queued_now;
        ++inflight_;
        counters.total_queue_wait_sec += wait;
        counters.max_queue_wait_sec =
            std::max(counters.max_queue_wait_sec, wait);
    }
    metrics::MetricsRegistry::global()
        .histogram("cosa_service_queue_wait_seconds",
                   "Wait for a worker per job (submit to prologue start)",
                   {{"tenant", req.tenant},
                    {"tier", jobPriorityName(req.priority)}})
        .observe(wait);
    trace::Tracer& tracer = trace::Tracer::global();
    if (tracer.enabled()) {
        tracer.record("job.queue_wait", "service", record->submit_trace_us,
                      trace::Tracer::nowMicros() - record->submit_trace_us,
                      req.tag);
    }

    phase->deadline_at =
        req.deadline_sec > 0.0 ? record->submit_time + req.deadline_sec
                               : 0.0;
    // The job spans worker threads now, so job.run / job.solve cannot be
    // RAII spans on one stack: record their starts here and emit both
    // retroactively from the epilogue (the job.queue_wait pattern).
    phase->run_trace_us = trace::Tracer::nowMicros();
    record->phase = phase;

    // --- 1. canonicalize: flatten the batch and collapse duplicates. ---
    trace::Span canonicalize_span("job.canonicalize", "service");
    canonicalize_span.arg(req.tag);
    std::unordered_map<std::string, int> key_to_unique;
    for (int n = 0; n < static_cast<int>(workloads.size()); ++n) {
        const auto& layers = workloads[static_cast<std::size_t>(n)].layers;
        for (int l = 0; l < static_cast<int>(layers.size()); ++l) {
            const LayerSpec& layer = layers[static_cast<std::size_t>(l)];
            int unique = -1;
            bool deduplicated = false;
            if (req.deduplicate) {
                const auto [it, inserted] = key_to_unique.try_emplace(
                    layer.canonicalKey(),
                    static_cast<int>(phase->unique_layers.size()));
                unique = it->second;
                deduplicated = !inserted;
            } else {
                unique = static_cast<int>(phase->unique_layers.size());
            }
            if (!deduplicated) {
                phase->unique_layers.push_back(&layer);
                phase->first_net.push_back(n);
            }
            phase->instances.push_back({n, l, unique, deduplicated});
        }
    }
    canonicalize_span.end();

    // --- 2. memoize: probe the cache once per unique problem; misses
    // additionally fetch the nearest-neighbor schedule as a warm-start
    // hint. Both probes run in this sequential phase, so hint content is
    // deterministic for a fixed query sequence at any thread count. ---
    trace::Span memoize_span("job.memoize", "service");
    const std::size_t num_unique = phase->unique_layers.size();
    ScheduleCache& cache = *req.cache;
    phase->arch_key = req.arch.fingerprint();
    phase->sched_key = schedulerConfigKey(req);
    phase->eval_key = req.evaluator->fingerprint();
    const bool want_hints = req.use_cache && req.warm_start_hints &&
                            req.scheduler == SchedulerKind::Cosa;
    phase->solved.resize(num_unique);
    phase->from_cache.assign(num_unique, 0);
    phase->firewall.resize(num_unique);
    phase->hints.resize(num_unique);
    phase->completed.assign(num_unique, 0);
    phase->skipped.assign(num_unique, 0);
    for (std::size_t u = 0; u < num_unique; ++u) {
        if (req.use_cache) {
            if (auto hit = cache.lookup(phase->keyOf(u))) {
                phase->solved[u] = std::move(*hit);
                phase->from_cache[u] = 1;
                continue;
            }
        }
        if (want_hints) {
            if (auto nn = cache.nearestNeighbor(
                    phase->arch_key, phase->sched_key, phase->eval_key,
                    *phase->unique_layers[u]))
                phase->hints[u].push_back(std::move(nn->mapping));
        }
        phase->to_solve.push_back(u);
    }
    memoize_span.end();

    for (std::size_t u = 0; u < num_unique; ++u) {
        if (phase->from_cache[u])
            completeProblem(record, u);
    }

    // --- 3. solve the misses on the service's shared executor. Each
    // task writes slot to_solve[t], so results are positionally
    // deterministic for any worker count and co-tenant mix. The set's
    // completion continuation is the epilogue: no one wait()s, so this
    // worker is free the moment the prologue returns. An all-hits (or
    // empty) batch has zero tasks and the continuation runs inline. ---
    phase->solve_trace_us = trace::Tracer::nowMicros();
    Executor::TaskSetOptions options;
    options.tier = req.priority;
    options.weight = req.weight;
    options.max_parallelism = req.max_parallelism;
    options.on_complete = [this, record] { jobEpilogue(record); };
    executor_->submit(
        phase->to_solve.size(),
        [this, record](std::size_t t) { jobSolveTask(record, t); },
        options);
}

void
SchedulerService::jobSolveTask(const std::shared_ptr<JobRecord>& record,
                               std::size_t t)
{
    const ScheduleRequest& req = record->request;
    const std::shared_ptr<ScheduleJob::State>& state = record->state;
    JobPhase& phase = *record->phase;
    const std::size_t u = phase.to_solve[t];
    // Cancellation (and the deadline, which is just a self-inflicted
    // cancel) is honored between tasks: a worker picking up a task
    // after cancel() skips it immediately, so the set always drains
    // and the epilogue always runs.
    if (phase.deadline_at > 0.0 &&
        !state->cancel.load(std::memory_order_relaxed) &&
        wallTimeSec() >= phase.deadline_at) {
        record->deadline_expired.store(true, std::memory_order_relaxed);
        state->cancel.store(true, std::memory_order_relaxed);
    }
    if (state->cancel.load(std::memory_order_relaxed)) {
        phase.skipped[u] = 1; // no event: the frontier stream stays a prefix
        return;
    }
    {
        trace::Span span("solve.layer", "engine");
        span.arg(phase.unique_layers[u]->name);
        phase.solved[u] =
            solveWithFirewall(req, *phase.unique_layers[u], req.arch,
                              phase.hints[u], *executor_,
                              &phase.firewall[u]);
    }
    recordSolveMetrics(req, phase.solved[u]);
    metrics::MetricsRegistry::global()
        .counter("cosa_job_layers_completed_total",
                 "Per-layer tasks finished across all jobs")
        .inc();
    completeProblem(record, u);
}

void
SchedulerService::completeProblem(const std::shared_ptr<JobRecord>& record,
                                  std::size_t u)
{
    // Progress frontier: events are emitted strictly in unique-problem
    // index order — a problem's event fires once it and every problem
    // before it completed — so the event sequence (and each event's
    // cumulative counters) is identical at any thread count.
    // Cancel-skipped problems never complete: the stream is a prefix.
    const std::shared_ptr<ScheduleJob::State>& state = record->state;
    JobPhase& phase = *record->phase;
    const std::size_t num_unique = phase.unique_layers.size();
    std::lock_guard<std::mutex> lock(state->mutex);
    phase.completed[u] = 1;
    while (phase.frontier < num_unique && phase.completed[phase.frontier]) {
        JobProgress event;
        event.completed = ++phase.cum_completed;
        event.total = static_cast<std::int64_t>(num_unique);
        event.unique_index = static_cast<int>(phase.frontier);
        event.layer = phase.unique_layers[phase.frontier]->name;
        event.from_cache = phase.from_cache[phase.frontier] != 0;
        event.found = phase.solved[phase.frontier].found;
        event.wall_time_sec = wallTimeSec() - phase.start;
        // weak_ptr: replayed events may be copied out and outlive
        // the job state; cancelling then is a silent no-op.
        event.cancel_hook =
            [weak = std::weak_ptr<ScheduleJob::State>(state)] {
                if (auto s = weak.lock())
                    s->cancel.store(true, std::memory_order_relaxed);
            };
        state->events.push_back(event);
        for (const auto& listener : state->listeners)
            listener(state->events.back());
        ++phase.frontier;
    }
}

void
SchedulerService::jobEpilogue(const std::shared_ptr<JobRecord>& record)
{
    const ScheduleRequest& req = record->request;
    const std::vector<Workload>& workloads = req.workloads;
    const std::shared_ptr<ScheduleJob::State>& state = record->state;
    JobPhase& phase = *record->phase;
    const std::size_t num_unique = phase.unique_layers.size();

    if (req.use_cache) {
        for (std::size_t u : phase.to_solve) {
            // Only the requested scheduler's own results are cached: a
            // transient fault's degraded (or failed) result must not
            // poison the shared cache for future fault-free queries.
            if (!phase.skipped[u] &&
                phase.firewall[u].outcome == LayerOutcome::kOptimal)
                req.cache->insert(phase.keyOf(u), phase.solved[u],
                                  *phase.unique_layers[u]);
        }
    }

    // --- 4. scatter back to instances and aggregate per network. ---
    trace::Span aggregate_span("job.aggregate", "service");
    const bool was_cancelled =
        state->cancel.load(std::memory_order_relaxed);
    const bool deadline_hit =
        record->deadline_expired.load(std::memory_order_relaxed);
    const double wall = wallTimeSec() - phase.start;
    std::vector<NetworkResult> results(workloads.size());
    for (std::size_t n = 0; n < workloads.size(); ++n) {
        NetworkResult& net = results[n];
        net.network = workloads[n].name;
        net.arch = req.arch.name;
        net.scheduler = schedulerKindName(req.scheduler);
        net.wall_time_sec = wall; // batch-wide; solves are shared
        net.cancelled = was_cancelled;
        net.deadline_expired = deadline_hit;
        net.layers.reserve(workloads[n].layers.size());
    }
    for (const JobPhase::Instance& inst : phase.instances) {
        NetworkResult& net = results[static_cast<std::size_t>(inst.net)];
        const auto u = static_cast<std::size_t>(inst.unique);
        LayerScheduleResult lr;
        lr.layer = workloads[static_cast<std::size_t>(inst.net)]
                       .layers[static_cast<std::size_t>(inst.layer)];
        lr.result = phase.solved[u];
        lr.from_cache = phase.from_cache[u] != 0;
        lr.deduplicated = inst.deduplicated;
        lr.cancelled = phase.skipped[u] != 0;
        lr.unique_index = inst.unique;
        lr.outcome = phase.firewall[u].outcome;
        lr.solve_retries = phase.firewall[u].retries;
        lr.fallback_stage = phase.firewall[u].fallback_stage;
        ++net.num_layers;
        if (lr.outcome == LayerOutcome::kDegradedFallback)
            ++net.num_degraded;
        else if (lr.outcome == LayerOutcome::kFailed)
            ++net.num_failed;
        if (lr.result.found) {
            net.total_cycles += lr.result.eval.cycles;
            net.total_energy_pj += lr.result.eval.energy_pj;
        } else {
            net.all_found = false;
        }
        net.layers.push_back(std::move(lr));
    }
    // Unique-problem accounting goes to the network owning the first
    // occurrence, so batch-wide sums match the work actually performed.
    for (std::size_t u = 0; u < num_unique; ++u) {
        NetworkResult& net =
            results[static_cast<std::size_t>(phase.first_net[u])];
        ++net.num_unique;
        if (phase.from_cache[u]) {
            ++net.num_cache_hits;
        } else if (phase.skipped[u]) {
            ++net.num_cancelled;
        } else {
            ++net.num_solved;
            net.search.add(phase.solved[u].stats);
            if (phase.solved[u].stats.warm_starts_installed > 0)
                ++net.num_warm_hints;
            if (phase.solved[u].stats.warm_start_hits > 0)
                ++net.num_warm_hits;
        }
    }

    for (std::size_t u = 0; u < num_unique; ++u) {
        if (phase.firewall[u].outcome == LayerOutcome::kDegradedFallback)
            record->degraded = true;
        else if (phase.firewall[u].outcome == LayerOutcome::kFailed)
            record->failed = true;
    }
    aggregate_span.end();

    // Retroactive job.solve / job.run spans (see jobPrologue).
    trace::Tracer& tracer = trace::Tracer::global();
    if (tracer.enabled()) {
        const std::int64_t now_us = trace::Tracer::nowMicros();
        tracer.record("job.solve", "service", phase.solve_trace_us,
                      now_us - phase.solve_trace_us, req.tag);
        tracer.record("job.run", "service", phase.run_trace_us,
                      now_us - phase.run_trace_us, req.tag);
    }

    // Accounting first, handle-resolution second: a thread returning
    // from wait() must observe this job already counted
    // (stats().completed includes it), exactly as the old thread-join
    // wait() guaranteed.
    record->phase.reset(); // the pipeline state dies with the job
    onJobFinished(record);
    {
        std::lock_guard<std::mutex> lock(state->mutex);
        state->results = std::move(results);
        state->finished.store(true, std::memory_order_release);
        state->done_cv.notify_all();
        // Completion subscribers fire under the job lock, like
        // progress listeners (see ScheduleJob::onDone).
        std::vector<std::function<void()>> done_listeners =
            std::move(state->done_listeners);
        state->done_listeners.clear();
        for (const auto& listener : done_listeners)
            listener();
    }
}

} // namespace cosa
