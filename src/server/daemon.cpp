#include "server/daemon.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstring>

#include "common/logging.hpp"
#include "common/trace.hpp"
#include "mapper/mapper.hpp"
#include "server/wire.hpp"

namespace cosa {
namespace server {

namespace {

bool
setNonBlocking(int fd)
{
    const int flags = fcntl(fd, F_GETFL, 0);
    return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/** "/v1/jobs/17/events" -> {17, "events"}; id_ok false on no match. */
struct JobPath
{
    bool id_ok = false;
    std::uint64_t id = 0;
    std::string rest; //!< "" or the sub-resource ("events")
};

JobPath
parseJobPath(std::string_view target)
{
    JobPath path;
    constexpr std::string_view kPrefix = "/v1/jobs/";
    if (target.substr(0, kPrefix.size()) != kPrefix)
        return path;
    std::string_view tail = target.substr(kPrefix.size());
    const std::size_t slash = tail.find('/');
    const std::string_view id_text =
        slash == std::string_view::npos ? tail : tail.substr(0, slash);
    if (slash != std::string_view::npos)
        path.rest = std::string(tail.substr(slash + 1));
    const auto [ptr, ec] = std::from_chars(
        id_text.data(), id_text.data() + id_text.size(), path.id);
    path.id_ok =
        ec == std::errc() && ptr == id_text.data() + id_text.size() &&
        !id_text.empty();
    return path;
}

HttpResponse
jsonResponse(int status, std::string body, bool keep_alive)
{
    HttpResponse response;
    response.status = status;
    response.set("Content-Type", "application/json");
    response.body = std::move(body);
    response.keep_alive = keep_alive;
    return response;
}

} // namespace

// --- lifecycle -----------------------------------------------------------

Daemon::Daemon(DaemonConfig config)
    : config_(std::move(config)),
      service_(std::make_unique<SchedulerService>(config_.service)),
      registry_(config_.tenants),
      finished_jobs_gauge_(metrics::MetricsRegistry::global().gauge(
          "cosad_finished_jobs", "Finished jobs cosad retains")),
      finished_bytes_gauge_(metrics::MetricsRegistry::global().gauge(
          "cosad_finished_job_bytes",
          "Bytes of the compact records of the retained finished jobs"))
{
}

Daemon::~Daemon()
{
    stop();
    // A job's completion hooks can still be running on an executor
    // worker after its handle returned from waiting; the service joins
    // those workers before any member they touch goes away.
    service_.reset();
    for (int& fd : wake_pipe_) {
        if (fd >= 0)
            ::close(fd);
    }
}

Status
Daemon::start()
{
    if (running_.load(std::memory_order_relaxed))
        return Status::Ok();

    // Mount the persistent cache tier before the first connection: a
    // bad store directory must fail startup, not the first job.
    if (config_.cache_capacity != 0 && config_.cache_dir.empty())
        return {ErrorCode::kInvalidInput,
                "cache_capacity (--cache-capacity) bounds the store and "
                "needs cache_dir (--cache-dir)"};
    if (!config_.cache_dir.empty() && !cache_) {
        cachestore::StoreConfig store_config;
        store_config.dir = config_.cache_dir;
        store_config.capacity = config_.cache_capacity;
        auto opened =
            cachestore::PersistentScheduleCache::open(store_config);
        if (!opened.ok())
            return opened.status();
        cache_ = std::move(opened).value();
        // Online compaction rides the engine's executor as a Batch-tier
        // threadless task — no thread of its own, and no Interactive or
        // Normal solve delayed.
        SchedulerService* service = service_.get();
        cache_->setAsyncRunner([service](std::function<void()> work) {
            Executor::TaskSetOptions options;
            options.tier = JobPriority::Batch;
            service->executor().submit(
                1, [work = std::move(work)](std::size_t) { work(); },
                std::move(options));
        });
    }

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0)
        return {ErrorCode::kIoError, "socket() failed"};
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port =
        htons(static_cast<std::uint16_t>(std::max(config_.port, 0)));
    if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        return {ErrorCode::kInvalidInput,
                "bad listen address \"" + config_.host + "\""};
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
        const std::string why = std::strerror(errno);
        ::close(listen_fd_);
        listen_fd_ = -1;
        return {ErrorCode::kIoError,
                "bind(" + config_.host + ":" +
                    std::to_string(config_.port) + ") failed: " + why};
    }
    if (::listen(listen_fd_, 128) != 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        return {ErrorCode::kIoError, "listen() failed"};
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    setNonBlocking(listen_fd_);

    // The wake pipe lives until the destructor: job completion hooks
    // wake the loop from executor workers, and one may still be running
    // when stop() returns.
    if (wake_pipe_[0] < 0) {
        if (::pipe(wake_pipe_) != 0) {
            ::close(listen_fd_);
            listen_fd_ = -1;
            return {ErrorCode::kIoError, "pipe() failed"};
        }
        setNonBlocking(wake_pipe_[0]);
        setNonBlocking(wake_pipe_[1]);
    }

    running_.store(true, std::memory_order_release);
    loop_thread_ = std::thread(&Daemon::eventLoop, this);
    const int handlers = std::max(config_.num_handler_threads, 1);
    handler_threads_.reserve(static_cast<std::size_t>(handlers));
    for (int i = 0; i < handlers; ++i)
        handler_threads_.emplace_back(&Daemon::handlerLoop, this);
    inform("cosad: listening on ", config_.host, ":", port_,
           registry_.open() ? " (open mode: no tenants configured)" : "");
    return Status::Ok();
}

void
Daemon::stop()
{
    if (!running_.exchange(false, std::memory_order_acq_rel))
        return;
    wake();
    {
        // A handler between its predicate check and its wait holds
        // queue_mutex_; taking it here orders the store before that
        // wait, so the notify below cannot be lost.
        std::lock_guard<std::mutex> lock(queue_mutex_);
    }
    queue_cv_.notify_all();
    if (loop_thread_.joinable())
        loop_thread_.join();
    for (std::thread& handler : handler_threads_)
        handler.join();
    handler_threads_.clear();
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    {
        std::lock_guard<std::mutex> lock(connections_mutex_);
        for (const auto& connection : connections_) {
            connection->dead.store(true, std::memory_order_relaxed);
            ::close(connection->fd);
        }
        connections_.clear();
    }
    // Destroying an entry waits for its job (ScheduleJob dtor), and a
    // finishing job's onDone listener locks jobs_mutex_ — so the
    // destruction must happen with the mutex released.
    std::unordered_map<std::uint64_t, std::shared_ptr<JobEntry>> doomed;
    {
        std::lock_guard<std::mutex> lock(jobs_mutex_);
        doomed.swap(jobs_);
        finished_order_.clear();
        finished_bytes_ = 0;
        finished_jobs_gauge_.set(0.0);
        finished_bytes_gauge_.set(0.0);
    }
    doomed.clear();
    dropRetiredJobs();
}

void
Daemon::wake()
{
    if (wake_pipe_[1] >= 0) {
        const char byte = 1;
        [[maybe_unused]] const ssize_t n =
            ::write(wake_pipe_[1], &byte, 1);
    }
}

// --- event loop ----------------------------------------------------------

void
Daemon::eventLoop()
{
    while (running_.load(std::memory_order_acquire)) {
        std::vector<pollfd> fds;
        std::vector<std::shared_ptr<Connection>> polled;
        fds.push_back({wake_pipe_[0], POLLIN, 0});
        fds.push_back({listen_fd_, POLLIN, 0});
        {
            std::lock_guard<std::mutex> lock(connections_mutex_);
            for (const auto& connection : connections_) {
                short events = POLLIN;
                if (wantsWrite(connection))
                    events |= POLLOUT;
                fds.push_back({connection->fd, events, 0});
                polled.push_back(connection);
            }
        }
        const int n = ::poll(fds.data(),
                             static_cast<nfds_t>(fds.size()), 500);
        if (!running_.load(std::memory_order_acquire))
            break;
        if (n < 0) {
            if (errno == EINTR)
                continue;
            warn("cosad: poll failed: ", std::strerror(errno));
            break;
        }
        if (fds[0].revents & POLLIN) {
            char drain[256];
            while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
            }
            dropRetiredJobs();
        }
        if (fds[1].revents & POLLIN)
            acceptReady();

        std::vector<std::shared_ptr<Connection>> drop;
        for (std::size_t i = 0; i < polled.size(); ++i) {
            const pollfd& pfd = fds[i + 2];
            const std::shared_ptr<Connection>& connection = polled[i];
            bool alive = true;
            if (pfd.revents & (POLLERR | POLLHUP | POLLNVAL))
                alive = false;
            if (alive && (pfd.revents & POLLIN))
                alive = readReady(connection);
            if (alive && (pfd.revents & POLLOUT))
                alive = writeReady(connection);
            // A completed non-keep-alive exchange closes from our side.
            if (alive) {
                std::lock_guard<std::mutex> lock(connection->mutex);
                if (connection->close_after_flush &&
                    connection->responses.empty())
                    alive = false;
            }
            if (!alive)
                drop.push_back(connection);
        }
        if (!drop.empty()) {
            std::lock_guard<std::mutex> lock(connections_mutex_);
            for (const auto& connection : drop) {
                connection->dead.store(true, std::memory_order_relaxed);
                ::close(connection->fd);
                connections_.erase(std::find(connections_.begin(),
                                             connections_.end(),
                                             connection));
            }
        }
    }
}

void
Daemon::acceptReady()
{
    for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0)
            return; // EAGAIN or transient
        std::lock_guard<std::mutex> lock(connections_mutex_);
        if (connections_.size() >=
            static_cast<std::size_t>(std::max(config_.max_connections, 1))) {
            // Over the cap: answer 503 and close rather than stall the
            // accept queue.
            HttpResponse busy = jsonResponse(
                503, errorBody("overloaded", "connection limit reached"),
                false);
            const std::string bytes = busy.serialize();
            [[maybe_unused]] const ssize_t n =
                ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
            ::close(fd);
            continue;
        }
        setNonBlocking(fd);
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        auto connection = std::make_shared<Connection>();
        connection->fd = fd;
        connection->parser.max_body_bytes = config_.max_body_bytes;
        connections_.push_back(std::move(connection));
    }
}

bool
Daemon::readReady(const std::shared_ptr<Connection>& connection)
{
    char buffer[16 * 1024];
    for (;;) {
        const ssize_t n = ::recv(connection->fd, buffer, sizeof(buffer), 0);
        if (n == 0)
            return false; // peer closed
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            return false;
        }
        connection->parser.feed(
            std::string_view(buffer, static_cast<std::size_t>(n)));
    }
    // Drain every complete pipelined request into ordered slots.
    for (;;) {
        HttpRequest request;
        const HttpRequestParser::Result result =
            connection->parser.next(&request);
        if (result == HttpRequestParser::Result::NeedMore)
            break;
        if (result == HttpRequestParser::Result::Error) {
            // One structured error response, then close: framing is
            // gone, nothing further on this connection is parseable.
            HttpResponse response = jsonResponse(
                connection->parser.errorStatus(),
                errorBody("bad_request", connection->parser.errorText()),
                false);
            auto slot = std::make_shared<PendingResponse>();
            slot->bytes = response.serialize();
            slot->ready = true;
            std::lock_guard<std::mutex> lock(connection->mutex);
            connection->responses.push_back(std::move(slot));
            connection->close_after_flush = true;
            break;
        }
        auto slot = std::make_shared<PendingResponse>();
        {
            std::lock_guard<std::mutex> lock(connection->mutex);
            connection->responses.push_back(slot);
            if (!request.keepAlive())
                connection->close_after_flush = true;
        }
        {
            std::lock_guard<std::mutex> lock(queue_mutex_);
            handler_queue_.push_back(
                HandlerTask{connection, slot, std::move(request)});
        }
        queue_cv_.notify_one();
    }
    return true;
}

bool
Daemon::wantsWrite(const std::shared_ptr<Connection>& connection)
{
    std::lock_guard<std::mutex> lock(connection->mutex);
    if (connection->responses.empty())
        return false;
    const PendingResponse& front = *connection->responses.front();
    return !front.bytes.empty() ||
           (front.ready && !front.streaming) ||
           (front.streaming && front.stream_done);
}

bool
Daemon::writeReady(const std::shared_ptr<Connection>& connection)
{
    for (;;) {
        std::string chunk;
        {
            std::lock_guard<std::mutex> lock(connection->mutex);
            if (connection->responses.empty())
                return true;
            PendingResponse& front = *connection->responses.front();
            if (front.bytes.empty()) {
                const bool complete =
                    (front.ready && !front.streaming) ||
                    (front.streaming && front.stream_done);
                if (!complete)
                    return true; // head-of-line still being produced
                connection->responses.pop_front();
                continue;
            }
            chunk.swap(front.bytes);
        }
        std::size_t written = 0;
        while (written < chunk.size()) {
            const ssize_t n =
                ::send(connection->fd, chunk.data() + written,
                       chunk.size() - written, MSG_NOSIGNAL);
            if (n > 0) {
                written += static_cast<std::size_t>(n);
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                // Push back the unwritten tail, preserving order.
                std::lock_guard<std::mutex> lock(connection->mutex);
                if (connection->responses.empty())
                    return true;
                PendingResponse& front = *connection->responses.front();
                front.bytes.insert(0, chunk, written,
                                   chunk.size() - written);
                return true;
            }
            return false; // hard write error
        }
    }
}

// --- handler pool --------------------------------------------------------

void
Daemon::handlerLoop()
{
    for (;;) {
        HandlerTask task;
        {
            std::unique_lock<std::mutex> lock(queue_mutex_);
            queue_cv_.wait(lock, [&] {
                return !handler_queue_.empty() ||
                       !running_.load(std::memory_order_acquire);
            });
            if (handler_queue_.empty())
                return; // stopping
            task = std::move(handler_queue_.front());
            handler_queue_.pop_front();
        }
        try {
            handle(std::move(task));
        } catch (const std::exception& e) {
            warn("cosad: handler threw: ", e.what());
        } catch (...) {
            warn("cosad: handler threw a non-std exception");
        }
    }
}

void
Daemon::finishResponse(const std::shared_ptr<Connection>& connection,
                       const std::shared_ptr<PendingResponse>& slot,
                       HttpResponse response)
{
    {
        std::lock_guard<std::mutex> lock(connection->mutex);
        if (!response.keep_alive)
            connection->close_after_flush = true;
        slot->bytes += response.serialize();
        slot->ready = true;
    }
    wake();
}

metrics::Counter&
Daemon::requestCounter(const std::string& tenant, int status)
{
    return metrics::MetricsRegistry::global().counter(
        "cosad_http_requests_total",
        "HTTP requests served by cosad",
        {{"tenant", tenant.empty() ? "unknown" : tenant},
         {"code", std::to_string(status)}});
}

void
Daemon::handle(HandlerTask task)
{
    trace::Span span("http.request", "server");
    span.arg(task.request.method + " " + task.request.target);

    const HttpRequest& request = task.request;
    const std::string target = request.target;
    const bool keep_alive = request.keepAlive();

    auto reply = [&](int status, std::string body,
                     const std::string& tenant,
                     std::vector<std::pair<std::string, std::string>>
                         extra_headers = {}) {
        HttpResponse response =
            jsonResponse(status, std::move(body), keep_alive);
        for (auto& header : extra_headers)
            response.headers.push_back(std::move(header));
        requestCounter(tenant, status).inc();
        finishResponse(task.connection, task.slot, std::move(response));
    };

    // Unauthenticated liveness probe.
    if (target == "/healthz") {
        if (request.method != "GET")
            return reply(405, errorBody("method_not_allowed",
                                        "healthz is GET-only"),
                         "");
        return reply(200, "{\"ok\":true}", "");
    }

    // Everything else authenticates first (metrics included: it leaks
    // per-tenant traffic shapes).
    const std::string api_key = apiKeyOf(request.header("Authorization"),
                                         request.header("X-Api-Key"));
    const AdmissionDecision auth = registry_.authenticate(api_key);
    if (auth.verdict != AdmissionDecision::Verdict::Allow) {
        return reply(401,
                     errorBody("unauthorized",
                               "missing or unknown API key"),
                     "");
    }
    const std::string& tenant = auth.tenant;

    if (target == "/metrics") {
        if (request.method != "GET")
            return reply(405, errorBody("method_not_allowed",
                                        "metrics is GET-only"),
                         tenant);
        HttpResponse response;
        response.status = 200;
        response.set("Content-Type",
                     "text/plain; version=0.0.4; charset=utf-8");
        response.body = service_->metricsText();
        response.keep_alive = keep_alive;
        requestCounter(tenant, 200).inc();
        return finishResponse(task.connection, task.slot,
                              std::move(response));
    }

    if (target == "/v1/cache/stats") {
        if (request.method != "GET")
            return reply(405, errorBody("method_not_allowed",
                                        "cache stats is GET-only"),
                         tenant);
        return handleCacheStats(task, tenant);
    }

    if (target == "/v1/jobs") {
        if (request.method == "POST")
            return handleSubmit(task, tenant);
        if (request.method == "GET")
            return handleJobList(task, tenant);
        return reply(405, errorBody("method_not_allowed",
                                    "jobs supports GET and POST"),
                     tenant);
    }

    const JobPath path = parseJobPath(target);
    if (path.id_ok && path.rest.empty()) {
        if (request.method == "GET")
            return handleJobGet(task, tenant, path.id);
        if (request.method == "DELETE")
            return handleCancel(task, tenant, path.id);
        return reply(405, errorBody("method_not_allowed",
                                    "job supports GET and DELETE"),
                     tenant);
    }
    if (path.id_ok && path.rest == "events") {
        if (request.method != "GET")
            return reply(405, errorBody("method_not_allowed",
                                        "events is GET-only"),
                         tenant);
        return handleEvents(task, tenant, path.id);
    }

    reply(404, errorBody("not_found",
                         "no route for " + request.method + " " + target),
          tenant);
}

// --- routes --------------------------------------------------------------

void
Daemon::handleSubmit(const HandlerTask& task, const std::string& tenant)
{
    const bool keep_alive = task.request.keepAlive();
    auto reply = [&](int status, std::string body,
                     std::vector<std::pair<std::string, std::string>>
                         extra_headers = {}) {
        HttpResponse response =
            jsonResponse(status, std::move(body), keep_alive);
        for (auto& header : extra_headers)
            response.headers.push_back(std::move(header));
        requestCounter(tenant, status).inc();
        finishResponse(task.connection, task.slot, std::move(response));
    };

    // Quota charge (token bucket + inflight cap).
    const std::string api_key =
        apiKeyOf(task.request.header("Authorization"),
                 task.request.header("X-Api-Key"));
    const AdmissionDecision admission =
        registry_.admit(api_key, wallTimeSec());
    if (admission.verdict != AdmissionDecision::Verdict::Allow) {
        const char* code =
            admission.verdict == AdmissionDecision::Verdict::RateLimited
                ? "rate_limited"
                : "too_many_inflight";
        const int retry_after = std::max(
            1, static_cast<int>(admission.retry_after_sec + 0.999));
        metrics::MetricsRegistry::global()
            .counter("cosad_quota_rejections_total",
                     "Submissions refused by per-tenant quota",
                     {{"tenant", admission.tenant},
                      {"reason", code}})
            .inc();
        return reply(429,
                     errorBody(code, "per-tenant quota exhausted; retry "
                                     "after the indicated delay"),
                     {{"Retry-After", std::to_string(retry_after)}});
    }

    StatusOr<json::Value> body = json::Value::parse(task.request.body);
    if (!body.ok()) {
        registry_.release(tenant);
        return reply(httpStatusForError(body.status().code()),
                     errorBody(body.status().code(),
                               body.status().message()));
    }
    StatusOr<ScheduleRequest> decoded =
        requestFromJson(body.value(), registry_.open() ? "" : tenant);
    if (!decoded.ok()) {
        registry_.release(tenant);
        return reply(httpStatusForError(decoded.status().code()),
                     errorBody(decoded.status().code(),
                               decoded.status().message()));
    }
    // Mount the shared persistent tier (unless the request opted out
    // of caching, which keeps its private throwaway cache).
    if (cache_ && decoded.value().use_cache)
        decoded.value().cache = cache_;

    auto entry = std::make_shared<JobEntry>();
    entry->tenant = tenant;
    entry->tag = decoded.value().tag;
    entry->priority = decoded.value().priority;

    // The job's events, kept compact for its record. Installed before
    // the job can start, so it sees every event; it runs under the job
    // lock, as does the completion hook below that reads the log.
    auto event_log = std::make_shared<std::string>();
    SubmitResult submitted = service_->submit(
        std::move(decoded).value(), [event_log](const JobProgress& event) {
            appendEventRecord(*event_log, event);
        });
    if (!submitted.accepted()) {
        registry_.release(tenant);
        return reply(503,
                     errorBody("shutting_down",
                               submitted.rejection().message),
                     {{"Retry-After", "1"}});
    }
    const auto job = std::make_shared<ScheduleJob>(submitted.takeJob());
    entry->job = job;

    std::uint64_t id = 0;
    {
        std::lock_guard<std::mutex> lock(jobs_mutex_);
        id = next_job_id_++;
        entry->id = id;
        jobs_.emplace(id, entry);
    }
    // Quota release, compaction and retention on completion: on the
    // engine worker finishing the job, or inline here if it already
    // has (then `job` keeps the handle alive through the call). The job
    // state owns the hook, so it holds the entry weakly.
    job->onDone([this, weak_entry = std::weak_ptr<JobEntry>(entry), tenant,
                 event_log] {
        registry_.release(tenant);
        if (const std::shared_ptr<JobEntry> finished = weak_entry.lock())
            compactFinished(*finished, *event_log);
    });

    json::Value response = json::Value::object();
    response.set("id", static_cast<std::int64_t>(id));
    response.set("tenant", tenant);
    reply(202, response.dump());
}

std::shared_ptr<Daemon::JobEntry>
Daemon::findJob(std::uint64_t id, const std::string& tenant)
{
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return nullptr;
    // Tenant isolation: another tenant's job id answers 404, not 403 —
    // existence itself is private.
    if (!registry_.open() && it->second->tenant != tenant)
        return nullptr;
    return it->second;
}

Daemon::JobSnapshot
Daemon::snapshot(JobEntry& entry)
{
    std::lock_guard<std::mutex> lock(entry.mutex);
    return {entry.job, entry.record, entry.cancel_requested};
}

void
Daemon::compactFinished(JobEntry& entry, std::string_view event_log)
{
    std::shared_ptr<ScheduleJob> job = snapshot(entry).job;
    // The job is finished, so wait() returns its results without taking
    // the job lock this hook runs under.
    auto record = std::make_shared<const std::string>(
        encodeJobRecord(job->wait(), event_log));
    const bool cancelled = job->cancelled();
    {
        std::lock_guard<std::mutex> lock(entry.mutex);
        entry.record = record;
        entry.cancel_requested = entry.cancel_requested || cancelled;
        entry.job.reset();
    }
    // Hand this last reference to the event loop rather than dropping it
    // here, inside the job's own callback.
    {
        std::lock_guard<std::mutex> lock(retired_mutex_);
        retired_jobs_.push_back(std::move(job));
    }
    wake();
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    finished_order_.emplace_back(entry.id, record->size());
    finished_bytes_ += record->size();
    evictFinishedLocked();
}

void
Daemon::evictFinishedLocked()
{
    while (finished_order_.size() > config_.max_finished_jobs) {
        jobs_.erase(finished_order_.front().first);
        finished_bytes_ -= finished_order_.front().second;
        finished_order_.pop_front();
    }
    finished_jobs_gauge_.set(static_cast<double>(finished_order_.size()));
    finished_bytes_gauge_.set(static_cast<double>(finished_bytes_));
}

void
Daemon::dropRetiredJobs()
{
    std::vector<std::shared_ptr<ScheduleJob>> retired;
    {
        std::lock_guard<std::mutex> lock(retired_mutex_);
        retired.swap(retired_jobs_);
    }
}

void
Daemon::handleJobGet(const HandlerTask& task, const std::string& tenant,
                     std::uint64_t id)
{
    const bool keep_alive = task.request.keepAlive();
    const std::shared_ptr<JobEntry> entry = findJob(id, tenant);
    if (!entry) {
        requestCounter(tenant, 404).inc();
        return finishResponse(
            task.connection, task.slot,
            jsonResponse(404,
                         errorBody("not_found",
                                   "no job " + std::to_string(id)),
                         keep_alive));
    }
    const JobSnapshot job = snapshot(*entry);
    json::Value v = json::Value::object();
    v.set("id", static_cast<std::int64_t>(id));
    v.set("tenant", entry->tenant);
    v.set("tag", entry->tag);
    v.set("priority", jobPriorityName(entry->priority));
    v.set("cancel_requested", job.cancelRequested());
    if (!job.done()) {
        v.set("state", "running");
        requestCounter(tenant, 200).inc();
        return finishResponse(task.connection, task.slot,
                              jsonResponse(200, v.dump(), keep_alive));
    }
    v.set("state", "done");
    // Render the canonical result bytes on every GET, from the record
    // (or, until the completion hook has swapped it in, from the done
    // job, whose wait() only copies): the record keeps every field the
    // renderers read, and rendering is deterministic, so every GET sends
    // the same bytes. Provenance is rendered separately: it carries the
    // cold-vs-warm accounting that must never leak into the canonical
    // results.
    StatusOr<std::vector<NetworkResult>> results =
        job.record ? decodeRecordResults(*job.record) : job.job->wait();
    if (!results.ok()) {
        requestCounter(tenant, 500).inc();
        return finishResponse(
            task.connection, task.slot,
            jsonResponse(500,
                         errorBody(results.status().code(),
                                   results.status().message()),
                         keep_alive));
    }
    std::string body = v.dump();
    body.pop_back(); // '}'
    body += ",\"results\":";
    body += resultsToJson(results.value()).dump();
    body += ",\"provenance\":";
    body += provenanceToJson(results.value()).dump();
    body += "}";
    requestCounter(tenant, 200).inc();
    finishResponse(task.connection, task.slot,
                   jsonResponse(200, std::move(body), keep_alive));
}

void
Daemon::handleJobList(const HandlerTask& task, const std::string& tenant)
{
    const bool keep_alive = task.request.keepAlive();
    std::vector<std::pair<std::uint64_t, std::shared_ptr<JobEntry>>> sorted;
    {
        std::lock_guard<std::mutex> lock(jobs_mutex_);
        for (const auto& [id, entry] : jobs_) {
            if (registry_.open() || entry->tenant == tenant)
                sorted.emplace_back(id, entry);
        }
    }
    // Ascending id order so the listing is stable.
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    json::Value list = json::Value::array();
    for (const auto& [id, entry] : sorted) {
        const JobSnapshot job = snapshot(*entry);
        json::Value v = json::Value::object();
        v.set("id", static_cast<std::int64_t>(id));
        v.set("tenant", entry->tenant);
        v.set("tag", entry->tag);
        v.set("priority", jobPriorityName(entry->priority));
        v.set("state", job.done() ? "done" : "running");
        v.set("cancel_requested", job.cancelRequested());
        list.push(std::move(v));
    }
    json::Value v = json::Value::object();
    v.set("jobs", std::move(list));
    requestCounter(tenant, 200).inc();
    finishResponse(task.connection, task.slot,
                   jsonResponse(200, v.dump(), keep_alive));
}

void
Daemon::handleCacheStats(const HandlerTask& task, const std::string& tenant)
{
    const bool keep_alive = task.request.keepAlive();
    if (!cache_) {
        requestCounter(tenant, 404).inc();
        return finishResponse(
            task.connection, task.slot,
            jsonResponse(404,
                         errorBody("not_found",
                                   "no persistent cache mounted (start "
                                   "cosad with --cache-dir)"),
                         keep_alive));
    }
    const cachestore::StoreStats stats = cache_->storeStats();
    json::Value v = json::Value::object();
    v.set("dir", stats.dir);
    v.set("capacity", stats.capacity);
    v.set("entries", stats.cache.entries);
    v.set("hits", stats.cache.hits);
    v.set("misses", stats.cache.misses);
    v.set("neighbor_hits", stats.cache.neighbor_hits);
    v.set("evictions", stats.cache.evictions);
    v.set("hit_rate", stats.cache.hitRate());
    json::Value shards = json::Value::array();
    for (const cachestore::ShardStats& shard : stats.shards) {
        json::Value s = json::Value::object();
        s.set("entries", shard.entries);
        s.set("hits", shard.hits);
        s.set("misses", shard.misses);
        s.set("inserts", shard.inserts);
        s.set("evictions", shard.evictions);
        s.set("compactions", shard.compactions);
        s.set("records_recovered", shard.records_recovered);
        s.set("records_skipped", shard.records_skipped);
        s.set("log_bytes", static_cast<std::int64_t>(shard.log_bytes));
        s.set("live_bytes", static_cast<std::int64_t>(shard.live_bytes));
        s.set("torn_tail_recovered", shard.torn_tail_recovered);
        shards.push(std::move(s));
    }
    v.set("shards", std::move(shards));
    requestCounter(tenant, 200).inc();
    finishResponse(task.connection, task.slot,
                   jsonResponse(200, v.dump(), keep_alive));
}

void
Daemon::handleCancel(const HandlerTask& task, const std::string& tenant,
                     std::uint64_t id)
{
    const bool keep_alive = task.request.keepAlive();
    const std::shared_ptr<JobEntry> entry = findJob(id, tenant);
    if (!entry) {
        requestCounter(tenant, 404).inc();
        return finishResponse(
            task.connection, task.slot,
            jsonResponse(404,
                         errorBody("not_found",
                                   "no job " + std::to_string(id)),
                         keep_alive));
    }
    std::shared_ptr<ScheduleJob> job;
    {
        std::lock_guard<std::mutex> lock(entry->mutex);
        entry->cancel_requested = true;
        job = entry->job;
    }
    if (job)
        job->cancel();
    json::Value v = json::Value::object();
    v.set("id", static_cast<std::int64_t>(id));
    v.set("cancel_requested", true);
    requestCounter(tenant, 200).inc();
    finishResponse(task.connection, task.slot,
                   jsonResponse(200, v.dump(), keep_alive));
}

void
Daemon::handleEvents(const HandlerTask& task, const std::string& tenant,
                     std::uint64_t id)
{
    const std::shared_ptr<JobEntry> entry = findJob(id, tenant);
    if (!entry) {
        requestCounter(tenant, 404).inc();
        return finishResponse(
            task.connection, task.slot,
            jsonResponse(404,
                         errorBody("not_found",
                                   "no job " + std::to_string(id)),
                         task.request.keepAlive()));
    }
    const JobSnapshot job = snapshot(*entry);
    StatusOr<std::vector<JobProgress>> recorded = std::vector<JobProgress>{};
    if (job.record)
        recorded = decodeRecordEvents(*job.record);
    if (!recorded.ok()) {
        requestCounter(tenant, 500).inc();
        return finishResponse(
            task.connection, task.slot,
            jsonResponse(500,
                         errorBody(recorded.status().code(),
                                   recorded.status().message()),
                         task.request.keepAlive()));
    }
    // Open the chunked stream: headers go out now, each progress event
    // is one JSON-line chunk, completion appends the terminal summary
    // line and the chunked trailer. The slot keeps its outbox position
    // so pipelined requests behind it stay ordered.
    HttpResponse head;
    head.status = 200;
    head.set("Content-Type", "application/x-ndjson");
    head.chunked = true;
    head.keep_alive = task.request.keepAlive();
    {
        std::lock_guard<std::mutex> lock(task.connection->mutex);
        task.slot->streaming = true;
        task.slot->bytes += head.serialize();
    }
    requestCounter(tenant, 200).inc();
    wake();
    json::Value done_line = json::Value::object();
    done_line.set("done", true);

    // Engine workers append chunks; weak_ptrs keep a dropped
    // connection from being written to (and from leaking).
    std::weak_ptr<Connection> weak_connection = task.connection;
    std::weak_ptr<PendingResponse> weak_slot = task.slot;
    auto push = [this, weak_connection, weak_slot](std::string payload,
                                                   bool done) {
        const std::shared_ptr<Connection> connection =
            weak_connection.lock();
        const std::shared_ptr<PendingResponse> slot = weak_slot.lock();
        if (!connection || !slot ||
            connection->dead.load(std::memory_order_relaxed))
            return;
        {
            std::lock_guard<std::mutex> lock(connection->mutex);
            if (!payload.empty())
                slot->bytes += chunkEncode(payload);
            if (done) {
                slot->bytes += kChunkedEnd;
                slot->stream_done = true;
            }
        }
        wake();
    };
    if (job.record) {
        // A finished job replays its recorded events, recorded wall
        // times included, through the same line renderer.
        for (const JobProgress& event : recorded.value())
            push(progressEventLine(event), false);
        return push(done_line.dump() + "\n", true);
    }
    job.job->onProgress([push](const JobProgress& event) {
        push(progressEventLine(event), false);
    });
    job.job->onDone([push, done = done_line.dump() + "\n"] {
        push(done, true);
    });
}

} // namespace server
} // namespace cosa
