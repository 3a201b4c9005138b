#include "engine/schedule_cache.hpp"

#include <cmath>

#include "common/metrics.hpp"

namespace cosa {

namespace {

/** Registry counter for one cache event kind. The handle is resolved
 *  once per event name (function-local statics at the call sites). */
metrics::Counter&
cacheEventCounter(const char* event)
{
    return metrics::MetricsRegistry::global().counter(
        "cosa_cache_events_total", "Schedule-cache events by kind",
        {{"event", event}});
}

} // namespace

double
canonicalLayerDistance(const LayerSpec& a, const LayerSpec& b)
{
    const auto term = [](std::int64_t x, std::int64_t y) {
        const double d = std::log2(static_cast<double>(x)) -
                         std::log2(static_cast<double>(y));
        return d * d;
    };
    const double sq = term(a.r, b.r) + term(a.s, b.s) + term(a.p, b.p) +
                      term(a.q, b.q) + term(a.c, b.c) + term(a.k, b.k) +
                      term(a.n, b.n) + term(a.stride, b.stride);
    return std::sqrt(sq);
}

NeighborScan::NeighborScan(const std::string& arch_key,
                           const std::string& scheduler_key,
                           const std::string& evaluator_key,
                           const LayerSpec& target)
    : arch_key_(arch_key), scheduler_key_(scheduler_key),
      evaluator_key_(evaluator_key), target_(target),
      target_key_(target.canonicalKey())
{
}

void
NeighborScan::offer(const ScheduleCacheKey& key, const SearchResult& result,
                    const LayerSpec& layer)
{
    if (!result.found || key.scheduler_key != scheduler_key_ ||
        key.evaluator_key != evaluator_key_)
        return;
    const bool arch_match = key.arch_key == arch_key_;
    if (arch_match && layer.canonicalKey() == target_key_)
        return; // the exact problem: a hit, not a neighbor
    const double dist = canonicalLayerDistance(layer, target_);
    const bool better =
        !best_ || dist < best_dist_ - 1e-12 ||
        (dist < best_dist_ + 1e-12 && arch_match && !best_arch_match_);
    if (better) {
        best_ = &result;
        best_dist_ = dist;
        best_arch_match_ = arch_match;
    }
}

std::optional<SearchResult>
ScheduleCache::lookup(const ScheduleCacheKey& key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key.flat());
    if (it == entries_.end()) {
        ++misses_;
        static metrics::Counter& miss_counter = cacheEventCounter("miss");
        miss_counter.inc();
        return std::nullopt;
    }
    ++hits_;
    static metrics::Counter& hit_counter = cacheEventCounter("hit");
    hit_counter.inc();
    return it->second.result;
}

void
ScheduleCache::insert(const ScheduleCacheKey& key, const SearchResult& result,
                      const LayerSpec& layer)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = entries_.try_emplace(key.flat());
    ExportedEntry& entry = it->second;
    entry.key = key;
    entry.result = result;
    entry.layer = layer;
    if (inserted) {
        static metrics::Counter& insert_counter =
            cacheEventCounter("insert");
        insert_counter.inc();
        insertion_order_.push_back(&entry);
    }
}

std::optional<SearchResult>
ScheduleCache::nearestNeighbor(const std::string& arch_key,
                               const std::string& scheduler_key,
                               const std::string& evaluator_key,
                               const LayerSpec& target)
{
    std::lock_guard<std::mutex> lock(mutex_);
    NeighborScan scan(arch_key, scheduler_key, evaluator_key, target);
    for (const ExportedEntry* entry : insertion_order_)
        scan.offer(entry->key, entry->result, entry->layer);
    if (!scan.best())
        return std::nullopt;
    ++neighbor_hits_;
    static metrics::Counter& neighbor_counter =
        cacheEventCounter("neighbor_hit");
    neighbor_counter.inc();
    return *scan.best();
}

bool
ScheduleCache::contains(const ScheduleCacheKey& key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.find(key.flat()) != entries_.end();
}

std::size_t
ScheduleCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

ScheduleCacheStats
ScheduleCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    ScheduleCacheStats stats;
    stats.hits = hits_;
    stats.misses = misses_;
    stats.entries = static_cast<std::int64_t>(entries_.size());
    stats.neighbor_hits = neighbor_hits_;
    return stats;
}

std::vector<ScheduleCache::ExportedEntry>
ScheduleCache::exportEntries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<ExportedEntry> out;
    out.reserve(insertion_order_.size());
    for (const ExportedEntry* entry : insertion_order_)
        out.push_back(*entry);
    return out;
}

} // namespace cosa
