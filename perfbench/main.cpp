/**
 * @file
 * perfbench_bin: the measuring half of the benchmark. It hosts the
 * program in-process (a SchedulerService, or a loopback cosad Daemon
 * with its clients), runs one workload, and writes a JSON report of raw
 * measurements that perfbench/run.py turns into the printed metrics.
 *
 *   perfbench_bin --workload {resnet50_cold,serve_warm_hits,
 *                                serve_novel_mix}
 *       --seed N --seconds S --trace {0,1} --work-dir DIR --raw PATH
 *       [--trace-out PATH] [--smoke]
 *
 * Exit codes: 0 with a report written, 1 on a run failure, 2 on bad
 * arguments.
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.hpp"

namespace perfbench {

Spans&
Spans::global()
{
    static Spans spans;
    return spans;
}

std::int64_t
Spans::nextId()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return next_id_++;
}

void
Spans::add(Record record)
{
    std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(std::move(record));
}

std::size_t
Spans::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return records_.size();
}

bool
Spans::writeChromeTrace(const std::string& path) const
{
    using cosa::json::Value;
    Value events = Value::array();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const Record& r : records_) {
            Value e = Value::object();
            e.set("name", r.name);
            e.set("ph", "X");
            e.set("ts", r.start_us);
            e.set("dur", r.end_us - r.start_us);
            e.set("pid", 1);
            // One lane per request keeps concurrent clients apart in
            // trace viewers; replay spans share lane 0.
            e.set("tid", r.request);
            Value args = r.args.isObject() ? r.args : Value::object();
            args.set("id", r.id);
            args.set("parent", r.parent);
            args.set("request", r.request);
            e.set("args", std::move(args));
            events.push(std::move(e));
        }
    }
    Value doc = Value::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << doc.dump();
    return static_cast<bool>(out.flush());
}

Span::Span(const char* name, std::int64_t parent, std::int64_t request)
{
    Spans& spans = Spans::global();
    recording_ = spans.enabled();
    if (recording_) {
        record_.name = name;
        record_.id = id_ = spans.nextId();
        record_.parent = parent;
        record_.request = request;
    }
    start_sec_ = nowSec();
}

void
Span::end()
{
    if (!open_)
        return;
    open_ = false;
    const double end_sec = nowSec();
    seconds_ = end_sec - start_sec_;
    if (!recording_)
        return;
    Spans& spans = Spans::global();
    record_.start_us = spans.microsAt(start_sec_);
    record_.end_us = spans.microsAt(end_sec);
    spans.add(std::move(record_));
}

void
Span::arg(const char* key, cosa::json::Value value)
{
    if (!open_ || !recording_)
        return;
    if (!record_.args.isObject())
        record_.args = cosa::json::Value::object();
    record_.args.set(key, std::move(value));
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

std::int64_t
tcpActiveOpens()
{
    // Two "Tcp:" lines: field names, then values.
    std::ifstream snmp("/proc/net/snmp");
    std::string line;
    std::vector<std::string> names;
    while (std::getline(snmp, line)) {
        if (line.rfind("Tcp:", 0) != 0)
            continue;
        std::istringstream fields(line.substr(4));
        std::vector<std::string> tokens;
        for (std::string t; fields >> t;)
            tokens.push_back(t);
        if (names.empty()) {
            names = std::move(tokens);
            continue;
        }
        for (std::size_t i = 0; i < names.size() && i < tokens.size(); ++i) {
            if (names[i] == "ActiveOpens")
                return std::stoll(tokens[i]);
        }
    }
    return -1;
}

} // namespace perfbench

namespace {

int
usage(const char* why)
{
    std::cerr << "perfbench_bin: " << why
              << "\nusage: perfbench_bin --workload NAME --seed N "
                 "--seconds S --trace {0,1} --work-dir DIR --raw PATH "
                 "[--trace-out PATH] [--smoke]\n";
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace perfbench;
    Options options;
    for (int a = 1; a < argc; ++a) {
        const std::string flag = argv[a];
        if (flag == "--smoke") {
            options.smoke = true;
            continue;
        }
        if (a + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const std::string value = argv[++a];
        try {
            if (flag == "--workload")
                options.workload = value;
            else if (flag == "--seed")
                options.seed = std::stoull(value);
            else if (flag == "--seconds")
                options.seconds = std::stod(value);
            else if (flag == "--trace")
                options.trace = std::stoi(value) != 0;
            else if (flag == "--work-dir")
                options.work_dir = value;
            else if (flag == "--raw")
                options.raw_path = value;
            else if (flag == "--trace-out")
                options.trace_path = value;
            else
                return usage(("unknown flag " + flag).c_str());
        } catch (const std::exception&) {
            return usage(("bad value for " + flag).c_str());
        }
    }
    if (options.work_dir.empty() || options.raw_path.empty())
        return usage("--work-dir and --raw are required");
    if (!(options.seconds > 0.0))
        return usage("--seconds must be > 0");
    if (options.trace && options.trace_path.empty())
        return usage("--trace 1 needs --trace-out");

    cosa::json::Value report = cosa::json::Value::object();
    bool ok = false;
    if (options.workload == "resnet50_cold")
        ok = runResnet50Cold(options, report);
    else if (options.workload == "serve_warm_hits")
        ok = runServe(options, false, report);
    else if (options.workload == "serve_novel_mix")
        ok = runServe(options, true, report);
    else
        return usage(("unknown workload " + options.workload).c_str());
    if (!ok)
        return 1;

    report.set("peak_rss_mb", peakRssMb());
    if (options.trace) {
        report.set("spans_recorded",
                   static_cast<std::int64_t>(Spans::global().size()));
        if (!Spans::global().writeChromeTrace(options.trace_path)) {
            std::cerr << "perfbench_bin: cannot write "
                      << options.trace_path << "\n";
            return 1;
        }
    }
    std::ofstream out(options.raw_path, std::ios::binary | std::ios::trunc);
    out << report.dump() << "\n";
    if (!out.flush()) {
        std::cerr << "perfbench_bin: cannot write " << options.raw_path
                  << "\n";
        return 1;
    }
    return 0;
}
