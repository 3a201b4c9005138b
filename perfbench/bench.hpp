#pragma once

/**
 * @file
 * Shared pieces of the benchmark binary: run options, the span
 * recorder behind the traced run, and small process probes.
 *
 * Spans are recorded only by the benchmark's own code, around its calls
 * into the program's public entry points; the program's own tracer
 * stays off. Each span carries a name, start, end, the id of the span
 * that caused it and a request id, is kept in memory, and is written
 * out once, at exit, as Chrome trace JSON.
 */

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace perfbench {

/** Seconds on the monotonic clock. */
inline double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Command-line settings shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Seconds-long setting for the benchmark's own tests: fewer set-up
     *  repetitions, smaller pools, a tiny CoSA budget on the cold path. */
    bool smoke = false;
    std::string work_dir;   //!< scratch directory inside the checkout
    std::string raw_path;   //!< where the measurement report goes
    std::string trace_path; //!< Chrome trace output (traced runs)
};

/** In-memory span recorder. Disabled recorders make spans no-ops. */
class Spans
{
  public:
    struct Record
    {
        std::string name;
        double start_us = 0.0;
        double end_us = 0.0;
        std::int64_t id = 0;
        std::int64_t parent = 0;
        std::int64_t request = 0;
        cosa::json::Value args;
    };

    static Spans& global();

    bool enabled() const { return enabled_; }
    /** Turn recording on or off; call only while no spans are open. */
    void setEnabled(bool enabled) { enabled_ = enabled; }

    /** Microseconds from the recorder's epoch to @p sec (nowSec()). */
    double microsAt(double sec) const { return (sec - epoch_) * 1e6; }

    std::int64_t nextId();
    void add(Record record);
    std::size_t size() const;

    /** Write every span as Chrome trace JSON; false on IO failure. */
    bool writeChromeTrace(const std::string& path) const;

  private:
    bool enabled_ = false;
    double epoch_ = nowSec();
    mutable std::mutex mutex_;
    std::vector<Record> records_;
    std::int64_t next_id_ = 1;
};

/**
 * RAII span over [construction, end()). It always times itself; it is
 * recorded only when the global recorder is on.
 */
class Span
{
  public:
    Span(const char* name, std::int64_t parent = 0, std::int64_t request = 0);
    ~Span() { end(); }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /** Close the span now (idempotent). */
    void end();
    /** Id for child spans (0 when recording is off). */
    std::int64_t id() const { return id_; }
    /** Duration in seconds (valid after end()). */
    double seconds() const { return seconds_; }
    void arg(const char* key, cosa::json::Value value);

  private:
    Spans::Record record_;
    std::int64_t id_ = 0;
    double start_sec_ = 0.0;
    double seconds_ = 0.0;
    bool open_ = true;
    bool recording_ = false;
};

/** Peak resident set (VmHWM) of this process in MB. */
double peakRssMb();

/** Kernel count of TCP connections this network namespace opened
 *  (Tcp ActiveOpens of /proc/net/snmp); -1 when unreadable. */
std::int64_t tcpActiveOpens();

/** Run one workload and fill @p report; returns false on a setup or
 *  IO failure that leaves no result to print. */
bool runResnet50Cold(const Options& options, cosa::json::Value& report);
bool runServe(const Options& options, bool novel_mix,
              cosa::json::Value& report);

} // namespace perfbench
