#include "common/trace.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/logging.hpp"

namespace cosa::trace {

namespace {

/** Steady-clock origin shared by every event in the process. */
std::chrono::steady_clock::time_point traceBase()
{
    static const auto base = std::chrono::steady_clock::now();
    return base;
}

void appendEscaped(std::string& out, std::string_view s)
{
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c) & 0xff);
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

void dumpGlobalTrace()
{
    Tracer& tracer = Tracer::global();
    const std::string path = tracer.outputPath();
    if (path.empty()) return;
    if (!tracer.writeChromeTrace(path))
        warn("trace: failed to write Chrome trace to '" + path + "'");
}

} // namespace

/**
 * One thread's span buffer. The owning thread appends under `mutex`;
 * the lock is uncontended except while an export or clear is in
 * flight, which keeps recording cheap and the whole structure clean
 * under TSan.
 */
struct Tracer::ThreadLog
{
    std::mutex mutex;
    std::vector<Event> events;    //!< bounded by `capacity`
    std::int64_t capacity = 0;
    std::int64_t dropped = 0;     //!< events rejected because full
    int tid = 0;                  //!< stable export thread id (1-based)
};

Tracer::Tracer()
    : registry_mutex_(new std::mutex),
      logs_(new std::vector<std::unique_ptr<ThreadLog>>),
      output_path_(new std::string)
{
    traceBase(); // pin the time origin before any spans exist

    if (const char* env = std::getenv("COSA_TRACE"); env && *env) {
        const std::string value(env);
        if (value == "0") {
            // explicit off
        } else if (value == "1") {
            setEnabled(true);
        } else {
            setOutputPath(value);
        }
    }
    if (const char* env = std::getenv("COSA_TRACE_DETAIL"); env && *env) {
        const std::string value(env);
        setFineDetail(value == "fine" || value == "1");
    }
    if (const char* env = std::getenv("COSA_TRACE_BUFFER"); env && *env) {
        // Like COSA_LOG_LEVEL, a bad value warns and keeps the default:
        // the tracer is built lazily, possibly on an executor worker.
        const char* const end = env + std::strlen(env);
        std::int64_t capacity = 0;
        const auto [ptr, ec] = std::from_chars(env, end, capacity);
        if (ec == std::errc() && ptr == end && capacity >= 16) {
            setBufferCapacity(capacity);
        } else {
            warn("trace: COSA_TRACE_BUFFER '", env,
                 "' is not a whole number >= 16; keeping ",
                 bufferCapacity(), " events per thread");
        }
    }
}

Tracer& Tracer::global()
{
    static Tracer* instance = new Tracer; // leaked: survives static dtors
    return *instance;
}

void Tracer::setBufferCapacity(std::int64_t capacity)
{
    buffer_capacity_.store(capacity < 16 ? 16 : capacity,
                           std::memory_order_relaxed);
}

void Tracer::setOutputPath(std::string path)
{
    bool install_hook = false;
    {
        std::lock_guard<std::mutex> lock(*registry_mutex_);
        install_hook = output_path_->empty() && !path.empty();
        *output_path_ = std::move(path);
    }
    setEnabled(true);
    if (install_hook) {
        // One hook for the process lifetime; re-pointing the path later
        // just changes where the single dump goes.
        static const bool registered = [] {
            std::atexit(dumpGlobalTrace);
            return true;
        }();
        (void)registered;
    }
}

std::string Tracer::outputPath() const
{
    std::lock_guard<std::mutex> lock(*registry_mutex_);
    return *output_path_;
}

std::int64_t Tracer::nowMicros()
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - traceBase())
        .count();
}

Tracer::ThreadLog& Tracer::threadLog()
{
    thread_local ThreadLog* cached = nullptr;
    if (cached) return *cached;

    auto log = std::make_unique<ThreadLog>();
    log->capacity = bufferCapacity();
    log->events.reserve(static_cast<std::size_t>(
        std::min<std::int64_t>(log->capacity, 1024)));
    cached = log.get();

    std::lock_guard<std::mutex> lock(*registry_mutex_);
    cached->tid = static_cast<int>(logs_->size()) + 1;
    logs_->push_back(std::move(log));
    return *cached;
}

void Tracer::record(const char* name, const char* cat, std::int64_t ts_us,
                    std::int64_t dur_us, std::string_view arg)
{
    ThreadLog& log = threadLog();
    std::lock_guard<std::mutex> lock(log.mutex);
    if (static_cast<std::int64_t>(log.events.size()) >= log.capacity) {
        ++log.dropped;
        return;
    }
    Event ev;
    ev.name = name;
    ev.cat = cat;
    ev.ts_us = ts_us;
    ev.dur_us = dur_us;
    const std::size_t n = std::min(arg.size(), sizeof(ev.arg) - 1);
    if (n > 0) std::memcpy(ev.arg, arg.data(), n);
    ev.arg[n] = '\0';
    log.events.push_back(ev);
}

std::int64_t Tracer::recordedEvents() const
{
    std::int64_t total = 0;
    std::lock_guard<std::mutex> lock(*registry_mutex_);
    for (const auto& log : *logs_) {
        std::lock_guard<std::mutex> log_lock(log->mutex);
        total += static_cast<std::int64_t>(log->events.size());
    }
    return total;
}

std::int64_t Tracer::droppedEvents() const
{
    std::int64_t total = 0;
    std::lock_guard<std::mutex> lock(*registry_mutex_);
    for (const auto& log : *logs_) {
        std::lock_guard<std::mutex> log_lock(log->mutex);
        total += log->dropped;
    }
    return total;
}

std::string Tracer::chromeTraceJson() const
{
    struct Snapshot
    {
        int tid;
        std::vector<Event> events;
        std::int64_t dropped;
    };
    std::vector<Snapshot> snaps;
    {
        std::lock_guard<std::mutex> lock(*registry_mutex_);
        snaps.reserve(logs_->size());
        for (const auto& log : *logs_) {
            std::lock_guard<std::mutex> log_lock(log->mutex);
            snaps.push_back({log->tid, log->events, log->dropped});
        }
    }
    std::sort(snaps.begin(), snaps.end(),
              [](const Snapshot& a, const Snapshot& b) {
                  return a.tid < b.tid;
              });

    std::int64_t dropped_total = 0;
    std::string out;
    out += "{\"traceEvents\":[";
    bool first = true;
    for (const Snapshot& snap : snaps) {
        dropped_total += snap.dropped;
        if (!first) out += ',';
        first = false;
        out += "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":";
        out += std::to_string(snap.tid);
        out += ",\"args\":{\"name\":\"cosa-thread-";
        out += std::to_string(snap.tid);
        out += "\"}}";
        // Per-thread buffers append in time order already; sort anyway
        // so exports stay deterministic even for hand-recorded events.
        std::vector<Event> events = snap.events;
        std::stable_sort(events.begin(), events.end(),
                         [](const Event& a, const Event& b) {
                             return a.ts_us < b.ts_us;
                         });
        for (const Event& ev : events) {
            out += ",{\"ph\":\"X\",\"name\":\"";
            appendEscaped(out, ev.name ? ev.name : "?");
            out += "\",\"cat\":\"";
            appendEscaped(out, ev.cat ? ev.cat : "cosa");
            out += "\",\"ts\":";
            out += std::to_string(ev.ts_us);
            out += ",\"dur\":";
            out += std::to_string(ev.dur_us);
            out += ",\"pid\":1,\"tid\":";
            out += std::to_string(snap.tid);
            if (ev.arg[0] != '\0') {
                out += ",\"args\":{\"detail\":\"";
                appendEscaped(out, ev.arg);
                out += "\"}";
            }
            out += '}';
        }
    }
    out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{"
           "\"tool\":\"cosa\",\"droppedEvents\":";
    out += std::to_string(dropped_total);
    out += "}}";
    return out;
}

bool Tracer::writeChromeTrace(const std::string& path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out) return false;
    out << chromeTraceJson() << '\n';
    return static_cast<bool>(out);
}

void Tracer::clear()
{
    std::lock_guard<std::mutex> lock(*registry_mutex_);
    for (const auto& log : *logs_) {
        std::lock_guard<std::mutex> log_lock(log->mutex);
        log->events.clear();
        log->dropped = 0;
    }
}

Span::Span(const char* name, const char* cat, bool fine)
{
    Tracer& tracer = Tracer::global();
    if (!tracer.enabled()) return;
    if (fine && !tracer.fineDetail()) return;

    name_ = name;
    cat_ = cat;
    start_us_ = Tracer::nowMicros();
    active_ = true;
}

void Span::arg(std::string_view detail)
{
    if (!active_) return;
    const std::size_t n = std::min(detail.size(), sizeof(arg_) - 1);
    if (n > 0) std::memcpy(arg_, detail.data(), n);
    arg_[n] = '\0';
}

void
Span::end()
{
    if (!active_) return;
    active_ = false;
    const std::int64_t end_us = Tracer::nowMicros();
    Tracer::global().record(name_, cat_, start_us_, end_us - start_us_,
                            arg_);
}

} // namespace cosa::trace
