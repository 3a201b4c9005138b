#pragma once

/**
 * @file
 * Memoization of scheduling results across scheduling queries.
 *
 * The cache key is the quadruple (canonical layer key, arch
 * fingerprint, scheduler config key, evaluator fingerprint): two
 * queries share an entry exactly when they pose the same mathematical
 * scheduling problem to the same scheduler *scored on the same
 * evaluation backend* — layer names and arch display names do not
 * matter. Arch sweeps over shared layer shapes and repeated network
 * queries hit; any change to the arch constants, scheduler tunables or
 * evaluator configuration misses, so analytical and NoC-simulated
 * results never alias.
 *
 * Beyond exact hits, the cache answers nearest-neighbor queries: for a
 * layer shape it has never seen, it returns the cached schedule of the
 * closest *different* shape solved under the same arch and scheduler
 * (distance on the log2 dimension vector). The service refits that
 * schedule as a MIP warm start, so effort spent on one layer primes
 * branch-and-bound on its relatives — the cross-layer analogue of the
 * per-node dual warm starts inside one solve.
 *
 * This class is the one cache implementation: an entry map, an index
 * in first-insertion order and an LRU list behind one mutex. The
 * process-local tier is a plain ScheduleCache, unbounded. Solves
 * outlive the process in cachestore::PersistentScheduleCache, which
 * derives from it: it adds a log, a record appended per insert and per
 * eviction through the two protected hooks, and the one LRU bound
 * (docs/cache-store.md).
 *
 * Thread-safe: a single mutex guards the map and the counters, which is
 * ample because entries are whole-layer solve results (lookups are
 * trivially cheap next to a solve).
 */

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.hpp"
#include "mapper/mapper.hpp"

namespace cosa {

/** Composite key of one memoized scheduling problem. */
struct ScheduleCacheKey
{
    std::string layer_key;     //!< LayerSpec::canonicalKey()
    std::string arch_key;      //!< ArchSpec::fingerprint()
    std::string scheduler_key; //!< schedulerConfigKey() of the query
    std::string evaluator_key; //!< Evaluator::fingerprint()

    /** Flat string form used as the map key. */
    std::string flat() const
    {
        std::string out;
        out.reserve(layer_key.size() + arch_key.size() +
                    scheduler_key.size() + evaluator_key.size() + 3);
        out.append(layer_key).append("|").append(arch_key).append("|");
        out.append(scheduler_key).append("|").append(evaluator_key);
        return out;
    }
};

/** Hit/miss counters of one cache (monotonic over its lifetime). */
struct ScheduleCacheStats
{
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t entries = 0;
    /** Nearest-neighbor lookups that returned a candidate schedule. */
    std::int64_t neighbor_hits = 0;
    /** Fresh keys inserted (overwrites are not counted). */
    std::int64_t inserts = 0;
    /** Entries dropped by the LRU bound (only a bounded cache, the
     *  cachestore tier, evicts). */
    std::int64_t evictions = 0;

    double
    hitRate() const
    {
        const std::int64_t total = hits + misses;
        return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
};

/**
 * Distance between two scheduling problems: Euclidean distance of the
 * log2 loop-bound vectors (r, s, p, q, c, k, n) plus the stride. Zero
 * iff the canonical keys coincide.
 */
double canonicalLayerDistance(const LayerSpec& a, const LayerSpec& b);

/**
 * Thread-safe (layer, arch, scheduler) -> SearchResult memo table.
 *
 * Every entry carries a sequence number, assigned at its first insert
 * and kept across overwrites. The index holds the entries in ascending
 * seq, which is first-insertion order; nearestNeighbor() and
 * exportEntries() walk it. A subclass that persists the cache replays
 * its log through the protected restore path and learns of every insert
 * and eviction through the two hooks, which run under the cache lock.
 */
class ScheduleCache
{
  public:
    /** An unbounded cache whose events count in
     *  cosa_cache_events_total. */
    ScheduleCache();
    virtual ~ScheduleCache() = default;
    ScheduleCache(const ScheduleCache&) = delete;
    ScheduleCache& operator=(const ScheduleCache&) = delete;

    /**
     * Look up @p key; counts a hit or a miss, and a hit makes the entry
     * the most recently used. The returned result's search_time_sec is
     * the original solve's time (callers decide how to account cached
     * time).
     */
    std::optional<SearchResult> lookup(const ScheduleCacheKey& key);

    /** Insert (or overwrite) the result for @p key. @p layer describes
     *  the problem's shape for nearest-neighbor queries. A fresh key in
     *  a full bounded cache first evicts the least recently used
     *  entries. */
    void insert(const ScheduleCacheKey& key, const SearchResult& result,
                const LayerSpec& layer);

    /**
     * The cached schedule nearest to (@p target, @p arch_key) under the
     * same @p scheduler_key and @p evaluator_key, or nullopt when none
     * exists. Candidates
     * are ranked by canonical layer distance first, then by whether
     * their arch fingerprint matches (so an arch sweep seeds each
     * variant with the same layer's schedule from a sibling arch, and
     * a fresh layer seeds from its nearest shape on the same arch);
     * remaining ties break toward the earliest-inserted entry, keeping
     * the choice deterministic. The exact (layer, arch) pair itself is
     * excluded — that is an exact hit, not a neighbor. Only entries
     * with a found schedule qualify. Counts a neighbor_hit when a
     * candidate is returned; exact hit/miss counters are untouched.
     */
    std::optional<SearchResult> nearestNeighbor(
        const std::string& arch_key, const std::string& scheduler_key,
        const std::string& evaluator_key, const LayerSpec& target);

    /** True when @p key is present, without touching the counters. */
    bool contains(const ScheduleCacheKey& key) const;

    /** Live entry count (same number stats().entries reports). */
    std::size_t size() const;

    /** Snapshot of the counters. */
    ScheduleCacheStats stats() const;

    /** One entry as exportEntries() hands it out. */
    struct ExportedEntry
    {
        ScheduleCacheKey key;
        SearchResult result;
        LayerSpec layer;
    };

    /**
     * Every live entry in first-insertion order (the order
     * nearestNeighbor() scans). The copy is deep and taken under the
     * lock, so callers (tests, perfbench's store checks) iterate it
     * without holding the cache up.
     */
    std::vector<ExportedEntry> exportEntries() const;

  protected:
    /** One live entry and its places in the index and the LRU list. */
    struct Entry : ExportedEntry
    {
        /** First-insertion sequence number; an overwrite keeps it. */
        std::uint64_t seq = 0;
        /** Framed size of the entry's latest log record (set by a
         *  persisting subclass; 0 in memory). */
        std::uint64_t record_bytes = 0;
        std::list<const std::string*>::iterator lru_it;
        std::size_t index_slot = 0;
    };

    /** A cache whose hit, miss and insert events count in the counter
     *  family @p event_family, bounded to @p capacity entries by LRU
     *  eviction (0 = unbounded). */
    ScheduleCache(const char* event_family, const char* help,
                  std::int64_t capacity);

    /** insert() stored @p entry (fresh or overwritten); the lock is
     *  held, so the entry is not yet visible to other threads. */
    virtual void onInsertLocked(Entry& /*entry*/) {}
    /** @p entry is about to be evicted; the lock is held. */
    virtual void onEvictLocked(const Entry& /*entry*/) {}

    /** Replay one logged insert under its logged @p seq: overwrite in
     *  place, or link a fresh entry. Fires no hook and counts nothing. */
    Entry& restoreLocked(ScheduleCacheKey&& key, SearchResult&& result,
                         LayerSpec&& layer, std::uint64_t seq);
    /** Replay one logged eviction: erase @p key if present. Fires no
     *  hook and counts nothing. */
    void restoreEvictLocked(const ScheduleCacheKey& key);
    /** Size the map and the index for @p entries (replay). */
    void reserveLocked(std::size_t entries);
    /** Evict least recently used entries down to the capacity. */
    void trimLocked();
    ScheduleCacheStats statsLocked() const;

    /** Call @p visit on every live entry in ascending seq. */
    template <class Visit>
    void
    forEachLocked(Visit&& visit) const
    {
        for (const Entry* entry : index_)
            if (entry)
                visit(*entry);
    }

    /** Guards everything below, and a subclass's state the hooks
     *  touch. */
    mutable std::mutex mutex_;

  private:
    using EntryMap = std::unordered_map<std::string, Entry>;

    /** Give the freshly emplaced @p it its key, seq and places. */
    void linkLocked(EntryMap::iterator it, ScheduleCacheKey key,
                    std::uint64_t seq);
    void evictLocked(EntryMap::iterator it);
    /** Unlink @p it from the map, the LRU list and the index. */
    void eraseLocked(EntryMap::iterator it);

    const std::int64_t capacity_;
    metrics::Counter& hit_counter_;
    metrics::Counter& miss_counter_;
    metrics::Counter& insert_counter_;

    /** Flat key -> entry (node-based: entry addresses are stable). */
    EntryMap entries_;
    /** The entries by ascending seq; an evicted entry leaves a null
     *  tombstone until the next index compaction. */
    std::vector<Entry*> index_;
    std::size_t index_tombstones_ = 0;
    /** Flat keys by recency, least recent first. Points at the entry
     *  map's keys (node-based, so stable until erase). */
    std::list<const std::string*> lru_;
    std::uint64_t next_seq_ = 1;
    /** Counters; entries is filled in by statsLocked(). */
    ScheduleCacheStats stats_;
};

} // namespace cosa
