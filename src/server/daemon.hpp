#pragma once

/**
 * @file
 * cosad — the scheduling engine as a network daemon.
 *
 * One poll()-driven event-loop thread owns every socket (listener +
 * connections) and does nothing but IO: reads feed each connection's
 * incremental HTTP parser, complete requests are dispatched to a
 * bounded handler pool, and responses stream back through
 * per-connection ordered outboxes (pipelined requests answer in
 * order; a chunked event stream holds its slot open until the job
 * finishes). Handlers never touch sockets; engine worker threads
 * never block on them either — a progress listener just appends a
 * chunk to the subscribed outbox and wakes the loop via the self-pipe.
 *
 * Nothing in the daemon holds a thread per job or per stream: jobs
 * are the engine's continuation-driven ScheduleJob (queued jobs are
 * heap state), and stream completion rides ScheduleJob::onDone. The
 * thread census is exactly: 1 event loop + num_handler_threads +
 * the engine's fixed executor crew. That crew runs jobs in strict
 * priority tiers (a request's "priority"), and the
 * persistent cache's online compaction rides it as a Batch-tier task.
 *
 * Routes (see docs/serving-daemon.md for the wire reference):
 *
 *   POST   /v1/jobs              submit  -> 202 {"id": n}
 *   GET    /v1/jobs              list this tenant's jobs
 *   GET    /v1/jobs/{id}         status; includes "results" (canonical
 *                                bytes) + "provenance" when done
 *   DELETE /v1/jobs/{id}         cooperative cancel
 *   GET    /v1/jobs/{id}/events  chunked JSON-lines progress stream
 *   GET    /v1/cache/stats       persistent cache tier stats (when
 *                                mounted via cache_dir)
 *   GET    /metrics              Prometheus text (engine + daemon)
 *   GET    /healthz              liveness
 *
 * Authentication/quota is the TenantRegistry (open mode when no
 * tenants are configured). Every error is a structured JSON body
 * carrying the typed taxonomy ({"error":{"code":...,"message":...}}).
 */

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cachestore/store.hpp"
#include "common/metrics.hpp"
#include "engine/scheduler_service.hpp"
#include "server/auth.hpp"
#include "server/http.hpp"

namespace cosa {
namespace server {

/** Everything cosad needs to come up. */
struct DaemonConfig
{
    std::string host = "127.0.0.1";
    int port = 0; //!< 0 = ephemeral; read the bound port from port()
    /** Request handler pool size (routing + JSON work, no IO). */
    int num_handler_threads = 4;
    int max_connections = 256;
    std::size_t max_body_bytes = 4 * 1024 * 1024;
    /** Finished jobs retained for GET and late events calls, each as
     *  its compact record (oldest evicted beyond this). */
    std::size_t max_finished_jobs = 1024;
    /** Engine sizing (executor width). */
    ServiceConfig service;
    /** Auth + quota; empty = open mode. */
    std::vector<TenantSpec> tenants;
    /**
     * Persistent schedule-cache tier: when non-empty, start() mounts
     * (or creates) a cachestore::PersistentScheduleCache on this
     * directory and every submitted job with use_cache shares it —
     * solves survive daemon restarts. Empty = per-job private caches
     * (the pre-cachestore behavior).
     */
    std::string cache_dir;
    /** Exact LRU entry bound of the cache_dir store (0 = unbounded);
     *  start() fails kInvalidInput on a negative value, or a nonzero
     *  one without cache_dir. */
    std::int64_t cache_capacity = 0;
};

/**
 * The daemon. start() binds and spawns the loop + handler threads;
 * stop() (or destruction) drains them. The embedded SchedulerService
 * lives as long as the daemon, so in-process submits (tests, benches)
 * can share the same engine the wire uses.
 */
class Daemon
{
  public:
    explicit Daemon(DaemonConfig config);
    ~Daemon();

    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /** Bind + listen + spawn threads. kIoError on bind failure. */
    Status start();
    /** Stop accepting, close connections, join threads. Idempotent. */
    void stop();

    /** The actually bound port (after start()). */
    int port() const { return port_; }
    const std::string& host() const { return config_.host; }

    /** The embedded engine (shared with in-process callers). */
    SchedulerService& service() { return *service_; }

    /** The mounted persistent cache tier (null without cache_dir). */
    const std::shared_ptr<cachestore::PersistentScheduleCache>& cache() const
    {
        return cache_;
    }

  private:
    /** One response slot of a connection's ordered outbox. */
    struct PendingResponse
    {
        std::string bytes;    //!< unwritten wire bytes (may grow)
        bool ready = false;   //!< complete: pop once bytes drained
        bool streaming = false; //!< chunked: stays until stream_done
        bool stream_done = false;
    };

    /** One live connection (owned by the loop; outbox shared with
     *  handlers and engine-side stream listeners). */
    struct Connection
    {
        int fd = -1;
        HttpRequestParser parser;
        std::mutex mutex; //!< guards responses/close_after_flush
        std::deque<std::shared_ptr<PendingResponse>> responses;
        bool close_after_flush = false;
        std::atomic<bool> dead{false};
    };

    /**
     * One submitted job as the wire sees it. While it runs, the entry
     * holds its ScheduleJob; when it finishes, compactFinished() swaps
     * the handle for the job's compact record (encodeJobRecord()), and
     * every later GET, events call, list and DELETE answers from that.
     */
    struct JobEntry
    {
        std::uint64_t id = 0;
        std::string tenant;
        std::string tag;
        JobPriority priority = JobPriority::Normal;

        /** Guards the three members below. It is held only to copy
         *  them, never while calling into the job, so a job callback
         *  that takes it never waits behind the job's own lock. */
        std::mutex mutex;
        std::shared_ptr<ScheduleJob> job; //!< null once compacted
        std::shared_ptr<const std::string> record; //!< null while running
        /** A DELETE arrived, or (once compacted) the job had been
         *  cancelled by then — its deadline's auto-cancel included. */
        bool cancel_requested = false;
    };

    /** What a handler reads of an entry, copied under its lock. */
    struct JobSnapshot
    {
        std::shared_ptr<ScheduleJob> job;
        std::shared_ptr<const std::string> record;
        bool cancel_requested = false;

        bool done() const { return record || job->done(); }
        bool cancelRequested() const
        {
            return cancel_requested || (job && job->cancelled());
        }
    };

    struct HandlerTask
    {
        std::shared_ptr<Connection> connection;
        std::shared_ptr<PendingResponse> slot;
        HttpRequest request;
    };

    void eventLoop();
    void handlerLoop();
    void wake();
    void acceptReady();
    /** Read + parse + dispatch; false = drop the connection. */
    bool readReady(const std::shared_ptr<Connection>& connection);
    /** Flush the ordered outbox; false = drop the connection. */
    bool writeReady(const std::shared_ptr<Connection>& connection);
    bool wantsWrite(const std::shared_ptr<Connection>& connection);

    void handle(HandlerTask task);
    void finishResponse(const std::shared_ptr<Connection>& connection,
                        const std::shared_ptr<PendingResponse>& slot,
                        HttpResponse response);
    void handleSubmit(const HandlerTask& task, const std::string& tenant);
    void handleJobGet(const HandlerTask& task, const std::string& tenant,
                      std::uint64_t id);
    void handleJobList(const HandlerTask& task, const std::string& tenant);
    void handleCancel(const HandlerTask& task, const std::string& tenant,
                      std::uint64_t id);
    void handleEvents(const HandlerTask& task, const std::string& tenant,
                      std::uint64_t id);
    void handleCacheStats(const HandlerTask& task,
                          const std::string& tenant);

    std::shared_ptr<JobEntry> findJob(std::uint64_t id,
                                      const std::string& tenant);
    static JobSnapshot snapshot(JobEntry& entry);
    /** Completion hook of a submitted job: swap its handle for its
     *  compact record, then apply retention. Runs under the job lock. */
    void compactFinished(JobEntry& entry, std::string_view event_log);
    void evictFinishedLocked();
    /** Drop the handles compactFinished() retired (outside any job
     *  callback: a handle must not die inside its own callback). */
    void dropRetiredJobs();
    metrics::Counter& requestCounter(const std::string& tenant,
                                     int status);

    DaemonConfig config_;
    std::unique_ptr<SchedulerService> service_;
    /** Shared persistent cache. Teardown is safe in any order:
     *  compaction continuations on the service executor hold weak_ptrs
     *  (no-ops once the store is gone) and a running one holds a
     *  strong ref for its duration. */
    std::shared_ptr<cachestore::PersistentScheduleCache> cache_;
    TenantRegistry registry_;

    int listen_fd_ = -1;
    int wake_pipe_[2] = {-1, -1};
    int port_ = 0;
    std::atomic<bool> running_{false};

    std::thread loop_thread_;
    std::vector<std::thread> handler_threads_;

    std::mutex queue_mutex_;
    std::condition_variable queue_cv_;
    std::deque<HandlerTask> handler_queue_;

    std::mutex connections_mutex_;
    std::vector<std::shared_ptr<Connection>> connections_;

    std::mutex jobs_mutex_;
    std::unordered_map<std::uint64_t, std::shared_ptr<JobEntry>> jobs_;
    /** Eviction FIFO of finished jobs: id and record size. */
    std::deque<std::pair<std::uint64_t, std::size_t>> finished_order_;
    std::size_t finished_bytes_ = 0; //!< sum of the retained records
    std::uint64_t next_job_id_ = 1;
    metrics::Gauge& finished_jobs_gauge_;
    metrics::Gauge& finished_bytes_gauge_;

    /** Compacted jobs' handles, dropped by the event loop. */
    std::mutex retired_mutex_;
    std::vector<std::shared_ptr<ScheduleJob>> retired_jobs_;
};

} // namespace server
} // namespace cosa
