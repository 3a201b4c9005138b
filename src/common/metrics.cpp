#include "common/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <variant>

#include "common/logging.hpp"

namespace cosa::metrics {

namespace {

/** Canonical label signature: `key="escaped value",...` sorted by key.
 *  Doubles as the map key and the Prometheus label block body. */
std::string labelSignature(Labels labels)
{
    std::sort(labels.begin(), labels.end());
    std::string out;
    for (const auto& [key, value] : labels) {
        if (!out.empty()) out += ',';
        out += key;
        out += "=\"";
        for (char c : value) {
            if (c == '\\') out += "\\\\";
            else if (c == '"') out += "\\\"";
            else if (c == '\n') out += "\\n";
            else out += c;
        }
        out += '"';
    }
    return out;
}

std::string formatDouble(double v)
{
    if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
    if (std::isnan(v)) return "NaN";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    // Trim to the shortest representation that round-trips.
    for (int prec = 1; prec < 17; ++prec) {
        char trial[64];
        std::snprintf(trial, sizeof(trial), "%.*g", prec, v);
        if (std::strtod(trial, nullptr) == v) {
            return trial;
        }
    }
    return buf;
}

void dumpGlobalMetrics()
{
    MetricsRegistry& registry = MetricsRegistry::global();
    const std::string path = registry.outputPath();
    if (path.empty()) return;
    const std::string text = registry.renderPrometheus();
    if (path == "-") {
        std::cerr << text;
        return;
    }
    std::ofstream out(path, std::ios::binary);
    if (!out || !(out << text))
        warn("metrics: failed to write metrics to '" + path + "'");
}

} // namespace

int Counter::shardIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local const int index = static_cast<int>(
        next.fetch_add(1, std::memory_order_relaxed) % kShards);
    return index;
}

std::uint64_t Gauge::pack(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

double Gauge::unpack(std::uint64_t bits)
{
    return std::bit_cast<double>(bits);
}

Histogram::Histogram(const Spec& spec) : spec_(spec)
{
    COSA_ASSERT(spec_.step > 0 && spec_.max_exp >= spec_.min_exp,
                "histogram spec must have step > 0 and max_exp >= min_exp");
    for (int e = spec_.min_exp; e <= spec_.max_exp; e += spec_.step)
        bounds_.push_back(std::ldexp(1.0, e));
    buckets_ = std::vector<std::atomic<std::int64_t>>(bounds_.size() + 1);
}

void Histogram::observe(double v)
{
    // Bucket of the first upper bound >= v. frexp gives v = m * 2^e
    // with m in [0.5, 1), so v <= 2^e exactly, and v == 2^e only when
    // m == 0.5 (then v <= 2^(e-1) too). Exponent arithmetic only — the
    // index is exact, never off by a ULP of a log().
    std::size_t index;
    if (!(v > 0.0)) { // v <= 0 and NaN land in the first bucket
        index = 0;
    } else if (std::isinf(v)) {
        index = bounds_.size();
    } else {
        int e = 0;
        const double m = std::frexp(v, &e);
        if (m == 0.5) --e; // exact power of two: v == 2^(e-1)
        // v <= 2^e; the bound with exponent b covers v when b >= e.
        if (e <= spec_.min_exp) {
            index = 0;
        } else if (e > spec_.max_exp) {
            index = bounds_.size();
        } else {
            const int steps_up = (e - spec_.min_exp + spec_.step - 1)
                                 / spec_.step;
            index = static_cast<std::size_t>(steps_up);
        }
    }
    buckets_[index].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t expected = sum_bits_.load(std::memory_order_relaxed);
    while (!sum_bits_.compare_exchange_weak(
        expected, Gauge::pack(Gauge::unpack(expected) + v),
        std::memory_order_relaxed, std::memory_order_relaxed)) {
    }
}

std::vector<std::int64_t> Histogram::bucketCounts() const
{
    std::vector<std::int64_t> counts(buckets_.size());
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        counts[i] = buckets_[i].load(std::memory_order_relaxed);
    return counts;
}

/** One metric family: a name with a type, help text, and its children
 *  keyed by label signature. std::map keeps render order deterministic. */
struct MetricsRegistry::Family
{
    enum class Type { Counter, Gauge, Histogram };

    Type type = Type::Counter;
    std::string help;
    // unique_ptr children give handles stable addresses forever.
    std::map<std::string,
             std::variant<std::unique_ptr<Counter>, std::unique_ptr<Gauge>,
                          std::unique_ptr<Histogram>>>
        children;
};

struct MetricsRegistry::Impl
{
    std::mutex mutex; //!< guards families and output_path
    std::map<std::string, Family> families;
    std::string output_path;

    std::mutex collector_mutex;
    std::uint64_t next_collector_id = 1;
    std::vector<std::pair<std::uint64_t, std::function<void()>>> collectors;
};

MetricsRegistry::MetricsRegistry() : impl_(new Impl)
{
    if (const char* env = std::getenv("COSA_METRICS"); env && *env) {
        const std::string value(env);
        if (value != "0") setOutputPath(value);
    }
}

MetricsRegistry& MetricsRegistry::global()
{
    static MetricsRegistry* instance = new MetricsRegistry; // leaked
    return *instance;
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  std::string_view help,
                                  const Labels& labels)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    Family& family = impl_->families[std::string(name)];
    if (family.children.empty()) {
        family.type = Family::Type::Counter;
        family.help = std::string(help);
    }
    COSA_ASSERT(family.type == Family::Type::Counter,
                "metric family re-registered with a different type");
    auto& slot = family.children[labelSignature(labels)];
    if (std::holds_alternative<std::unique_ptr<Counter>>(slot) &&
        std::get<std::unique_ptr<Counter>>(slot)) {
        return *std::get<std::unique_ptr<Counter>>(slot);
    }
    slot = std::unique_ptr<Counter>(new Counter);
    return *std::get<std::unique_ptr<Counter>>(slot);
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help,
                              const Labels& labels)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    Family& family = impl_->families[std::string(name)];
    if (family.children.empty()) {
        family.type = Family::Type::Gauge;
        family.help = std::string(help);
    }
    COSA_ASSERT(family.type == Family::Type::Gauge,
                "metric family re-registered with a different type");
    auto& slot = family.children[labelSignature(labels)];
    if (std::holds_alternative<std::unique_ptr<Gauge>>(slot) &&
        std::get<std::unique_ptr<Gauge>>(slot)) {
        return *std::get<std::unique_ptr<Gauge>>(slot);
    }
    slot = std::unique_ptr<Gauge>(new Gauge);
    return *std::get<std::unique_ptr<Gauge>>(slot);
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::string_view help,
                                      const Labels& labels,
                                      const Histogram::Spec& spec)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    Family& family = impl_->families[std::string(name)];
    if (family.children.empty()) {
        family.type = Family::Type::Histogram;
        family.help = std::string(help);
    }
    COSA_ASSERT(family.type == Family::Type::Histogram,
                "metric family re-registered with a different type");
    auto& slot = family.children[labelSignature(labels)];
    if (std::holds_alternative<std::unique_ptr<Histogram>>(slot) &&
        std::get<std::unique_ptr<Histogram>>(slot)) {
        return *std::get<std::unique_ptr<Histogram>>(slot);
    }
    slot = std::unique_ptr<Histogram>(new Histogram(spec));
    return *std::get<std::unique_ptr<Histogram>>(slot);
}

std::uint64_t MetricsRegistry::addCollector(std::function<void()> fn)
{
    std::lock_guard<std::mutex> lock(impl_->collector_mutex);
    const std::uint64_t id = impl_->next_collector_id++;
    impl_->collectors.emplace_back(id, std::move(fn));
    return id;
}

void MetricsRegistry::removeCollector(std::uint64_t id)
{
    std::lock_guard<std::mutex> lock(impl_->collector_mutex);
    std::erase_if(impl_->collectors,
                  [id](const auto& entry) { return entry.first == id; });
}

void MetricsRegistry::collect()
{
    // Copy the callbacks out so a collector can (un)register others —
    // and so callbacks never run under the registry's structural lock.
    std::vector<std::function<void()>> fns;
    {
        std::lock_guard<std::mutex> lock(impl_->collector_mutex);
        fns.reserve(impl_->collectors.size());
        for (const auto& [id, fn] : impl_->collectors) fns.push_back(fn);
    }
    for (const auto& fn : fns) fn();
}

std::string MetricsRegistry::renderPrometheus()
{
    collect();
    std::string out;
    std::lock_guard<std::mutex> lock(impl_->mutex);
    for (const auto& [name, family] : impl_->families) {
        if (!family.help.empty()) {
            out += "# HELP " + name + " " + family.help + "\n";
        }
        out += "# TYPE " + name + " ";
        switch (family.type) {
        case Family::Type::Counter: out += "counter\n"; break;
        case Family::Type::Gauge: out += "gauge\n"; break;
        case Family::Type::Histogram: out += "histogram\n"; break;
        }
        for (const auto& [signature, child] : family.children) {
            const std::string braces =
                signature.empty() ? "" : "{" + signature + "}";
            if (const auto* c =
                    std::get_if<std::unique_ptr<Counter>>(&child)) {
                out += name + braces + " " +
                       std::to_string((*c)->value()) + "\n";
            } else if (const auto* g =
                           std::get_if<std::unique_ptr<Gauge>>(&child)) {
                out += name + braces + " " + formatDouble((*g)->value()) +
                       "\n";
            } else if (const auto* h = std::get_if<
                           std::unique_ptr<Histogram>>(&child)) {
                const auto counts = (*h)->bucketCounts();
                const auto& bounds = (*h)->bounds();
                std::int64_t cumulative = 0;
                for (std::size_t i = 0; i < bounds.size(); ++i) {
                    cumulative += counts[i];
                    std::string labels = signature;
                    if (!labels.empty()) labels += ',';
                    labels += "le=\"" + formatDouble(bounds[i]) + "\"";
                    out += name + "_bucket{" + labels + "} " +
                           std::to_string(cumulative) + "\n";
                }
                cumulative += counts.back();
                std::string labels = signature;
                if (!labels.empty()) labels += ',';
                labels += "le=\"+Inf\"";
                out += name + "_bucket{" + labels + "} " +
                       std::to_string(cumulative) + "\n";
                out += name + "_sum" + braces + " " +
                       formatDouble((*h)->sum()) + "\n";
                out += name + "_count" + braces + " " +
                       std::to_string((*h)->count()) + "\n";
            }
        }
    }
    return out;
}

void MetricsRegistry::setOutputPath(std::string path)
{
    bool install_hook = false;
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        install_hook = impl_->output_path.empty() && !path.empty();
        impl_->output_path = std::move(path);
    }
    if (install_hook) {
        static const bool registered = [] {
            std::atexit(dumpGlobalMetrics);
            return true;
        }();
        (void)registered;
    }
}

std::string MetricsRegistry::outputPath() const
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    return impl_->output_path;
}

} // namespace cosa::metrics
