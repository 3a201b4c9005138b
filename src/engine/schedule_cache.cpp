#include "engine/schedule_cache.hpp"

#include <algorithm>
#include <cmath>

namespace cosa {

namespace {

/** The in-memory tier's event family; neighbor hits of every tier
 *  count here too. */
constexpr const char* kEventFamily = "cosa_cache_events_total";
constexpr const char* kEventHelp = "Schedule-cache events by kind";

metrics::Counter&
eventCounter(const char* family, const char* help, const char* event)
{
    return metrics::MetricsRegistry::global().counter(family, help,
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

ScheduleCache::ScheduleCache()
    : ScheduleCache(kEventFamily, kEventHelp, 0)
{
}

ScheduleCache::ScheduleCache(const char* event_family, const char* help,
                             std::int64_t capacity)
    : capacity_(capacity),
      hit_counter_(eventCounter(event_family, help, "hit")),
      miss_counter_(eventCounter(event_family, help, "miss")),
      insert_counter_(eventCounter(event_family, help, "insert"))
{
}

std::optional<SearchResult>
ScheduleCache::lookup(const ScheduleCacheKey& key)
{
    const std::string flat = key.flat();
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(flat);
    if (it == entries_.end()) {
        ++stats_.misses;
        miss_counter_.inc();
        return std::nullopt;
    }
    ++stats_.hits;
    hit_counter_.inc();
    lru_.splice(lru_.end(), lru_, it->second.lru_it);
    return it->second.result;
}

void
ScheduleCache::insert(const ScheduleCacheKey& key, const SearchResult& result,
                      const LayerSpec& layer)
{
    std::string flat = key.flat();
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = entries_.try_emplace(std::move(flat));
    Entry& entry = it->second;
    if (inserted) {
        // Make room before the new entry is linked, so a persisting
        // subclass logs the evictions ahead of the insert.
        trimLocked();
        linkLocked(it, key, next_seq_++);
        ++stats_.inserts;
        insert_counter_.inc();
    } else {
        lru_.splice(lru_.end(), lru_, entry.lru_it);
    }
    entry.result = result;
    entry.layer = layer;
    onInsertLocked(entry);
}

std::optional<SearchResult>
ScheduleCache::nearestNeighbor(const std::string& arch_key,
                               const std::string& scheduler_key,
                               const std::string& evaluator_key,
                               const LayerSpec& target)
{
    const std::string target_key = target.canonicalKey();
    std::lock_guard<std::mutex> lock(mutex_);
    // Visit order is part of the bit-for-bit contract: a candidate
    // replaces the best only on a strict improvement, so ties keep the
    // earliest entry.
    const Entry* best = nullptr;
    double best_dist = 0.0;
    bool best_arch_match = false;
    forEachLocked([&](const Entry& entry) {
        if (!entry.result.found || entry.key.scheduler_key != scheduler_key ||
            entry.key.evaluator_key != evaluator_key)
            return;
        const bool arch_match = entry.key.arch_key == arch_key;
        if (arch_match && entry.layer.canonicalKey() == target_key)
            return; // the exact problem: a hit, not a neighbor
        const double dist = canonicalLayerDistance(entry.layer, target);
        if (!best || dist < best_dist - 1e-12 ||
            (dist < best_dist + 1e-12 && arch_match && !best_arch_match)) {
            best = &entry;
            best_dist = dist;
            best_arch_match = arch_match;
        }
    });
    if (!best)
        return std::nullopt;
    ++stats_.neighbor_hits;
    static metrics::Counter& neighbor_counter =
        eventCounter(kEventFamily, kEventHelp, "neighbor_hit");
    neighbor_counter.inc();
    return best->result;
}

bool
ScheduleCache::contains(const ScheduleCacheKey& key) const
{
    const std::string flat = key.flat();
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.find(flat) != entries_.end();
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
    return statsLocked();
}

ScheduleCacheStats
ScheduleCache::statsLocked() const
{
    ScheduleCacheStats stats = stats_;
    stats.entries = static_cast<std::int64_t>(entries_.size());
    return stats;
}

std::vector<ScheduleCache::ExportedEntry>
ScheduleCache::exportEntries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<ExportedEntry> out;
    out.reserve(entries_.size());
    forEachLocked([&out](const ExportedEntry& entry) {
        out.push_back(entry);
    });
    return out;
}

ScheduleCache::Entry&
ScheduleCache::restoreLocked(ScheduleCacheKey&& key, SearchResult&& result,
                             LayerSpec&& layer, std::uint64_t seq)
{
    next_seq_ = std::max(next_seq_, seq + 1);
    const auto [it, inserted] = entries_.try_emplace(key.flat());
    if (inserted)
        linkLocked(it, std::move(key), seq);
    else
        lru_.splice(lru_.end(), lru_, it->second.lru_it);
    it->second.result = std::move(result);
    it->second.layer = std::move(layer);
    return it->second;
}

void
ScheduleCache::restoreEvictLocked(const ScheduleCacheKey& key)
{
    const auto it = entries_.find(key.flat());
    if (it != entries_.end())
        eraseLocked(it);
}

void
ScheduleCache::reserveLocked(std::size_t entries)
{
    entries_.reserve(entries);
    index_.reserve(entries);
}

void
ScheduleCache::trimLocked()
{
    while (capacity_ > 0 &&
           static_cast<std::int64_t>(entries_.size()) > capacity_)
        evictLocked(entries_.find(*lru_.front()));
}

void
ScheduleCache::linkLocked(EntryMap::iterator it, ScheduleCacheKey key,
                          std::uint64_t seq)
{
    Entry& entry = it->second;
    entry.key = std::move(key);
    entry.seq = seq;
    entry.lru_it = lru_.insert(lru_.end(), &it->first);
    entry.index_slot = index_.size();
    index_.push_back(&entry);
}

void
ScheduleCache::evictLocked(EntryMap::iterator it)
{
    onEvictLocked(it->second);
    ++stats_.evictions;
    eraseLocked(it);
}

void
ScheduleCache::eraseLocked(EntryMap::iterator it)
{
    Entry& entry = it->second;
    index_[entry.index_slot] = nullptr;
    lru_.erase(entry.lru_it);
    entries_.erase(it);
    // Drop the tombstones once they outnumber the live entries.
    if (++index_tombstones_ > entries_.size() + 16) {
        std::erase(index_, nullptr);
        for (std::size_t slot = 0; slot < index_.size(); ++slot)
            index_[slot]->index_slot = slot;
        index_tombstones_ = 0;
    }
}

} // namespace cosa
