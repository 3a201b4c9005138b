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
 * The cache also persists across processes: save() writes a versioned
 * text snapshot (bit-exact doubles) and load() merges one back, so
 * repeated CLI runs and CI jobs reuse solves and revive cross-layer
 * warm starts (format: docs/cache-store.md, "Text snapshot format").
 *
 * Long-lived services can bound the cache with an optional LRU
 * capacity (entries, not bytes): when set, inserting beyond it evicts
 * the least-recently-used entry (exact lookup hits and overwrites
 * refresh recency; nearest-neighbor scans do not). Evictions are
 * counted in the stats, so a serving deployment can watch its churn.
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
        return layer_key + "|" + arch_key + "|" + scheduler_key + "|" +
               evaluator_key;
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
    /** Entries dropped by the LRU capacity bound (lifetime total). */
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
 * The class is the polymorphic cache interface of the service: every
 * method a job touches is virtual, so a request can mount a different
 * tier (cachestore::PersistentScheduleCache, the sharded on-disk
 * store) behind the same `std::shared_ptr<ScheduleCache>` without the
 * service knowing. The base class is the process-local in-memory
 * implementation.
 */
class ScheduleCache
{
  public:
    /**
     * @param capacity optional LRU entry bound; 0 (the default) keeps
     *        the cache unbounded.
     */
    explicit ScheduleCache(std::int64_t capacity = 0);

    virtual ~ScheduleCache() = default;

    /**
     * Look up @p key; counts a hit or a miss (a hit refreshes the
     * entry's LRU recency). The returned result's
     * search_time_sec is the original solve's time (callers decide how
     * to account cached time).
     */
    virtual std::optional<SearchResult> lookup(const ScheduleCacheKey& key);

    /** Insert (or overwrite) the result for @p key. @p layer describes
     *  the problem's shape for nearest-neighbor queries. */
    virtual void insert(const ScheduleCacheKey& key,
                       const SearchResult& result, const LayerSpec& layer);

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
    virtual std::optional<SearchResult> nearestNeighbor(
        const std::string& arch_key, const std::string& scheduler_key,
        const std::string& evaluator_key, const LayerSpec& target);

    /** True when @p key is present, without touching the counters
     *  (or the LRU recency). */
    virtual bool contains(const ScheduleCacheKey& key) const;

    /** Live entry count (same number stats().entries reports). */
    virtual std::size_t size() const;

    /** The LRU entry bound; 0 = unbounded. */
    virtual std::int64_t capacity() const;

    /**
     * Change the LRU entry bound (0 = unbounded). Shrinking below the
     * current size evicts least-recently-used entries immediately
     * (counted in stats().evictions).
     */
    virtual void setCapacity(std::int64_t capacity);

    /** Snapshot of the counters. */
    virtual ScheduleCacheStats stats() const;

    /** Drop every entry; counters keep their lifetime totals. */
    virtual void clear();

    /** One entry as exportEntries() hands it out. */
    struct ExportedEntry
    {
        ScheduleCacheKey key;
        SearchResult result;
        LayerSpec layer;
    };

    /**
     * Every live entry in first-insertion order (the same order save()
     * writes and nearestNeighbor() scans). The snapshot is a deep copy
     * taken under the lock — format converters (binary shard <-> text
     * snapshot) iterate it without holding the cache up.
     */
    virtual std::vector<ExportedEntry> exportEntries() const;

    /** Outcome of a save() or load(). */
    struct IoResult
    {
        bool ok = false;
        std::string error;   //!< empty on success
        std::int64_t entries = 0; //!< written / merged
        /** load() only: records dropped because they were truncated,
         *  failed their checksum or failed to parse (counted and
         *  logged; the surviving entries still merge). */
        std::int64_t skipped = 0;
    };

    /**
     * Write every entry to @p path in the versioned text format
     * (header `cosa-schedule-cache v3` followed by the configured LRU
     * `capacity`; doubles at max_digits10, so a round trip is
     * bit-exact; every entry carries an FNV-1a checksum line).
     * Crash-safe: the snapshot is written to a temporary sibling file
     * and atomically renamed over @p path, so a crash mid-save can
     * never truncate an existing snapshot. Missing parent directories
     * are created. Counters are not persisted.
     */
    virtual IoResult save(const std::string& path) const;

    /**
     * Merge a snapshot written by save() into this cache: entries keep
     * insertion order from the file, existing keys are overwritten. A
     * header/version mismatch fails without touching the cache; a
     * corrupt, bit-flipped or truncated *record* is skipped (counted
     * in IoResult::skipped, logged, `cosa_cache_events_total{event=
     * "corrupt_entry"}`) and every surviving record still merges — one
     * damaged entry no longer rejects the snapshot. Hit/miss counters
     * are untouched. The snapshot's LRU capacity is adopted when this
     * cache is unbounded (so a bounded cache round-trips bounded); an
     * explicitly configured bound on the loading cache wins. Only v3
     * files load, and a record without its checksum line is skipped
     * like a corrupt one.
     */
    virtual IoResult load(const std::string& path);

  private:
    struct Entry
    {
        SearchResult result;
        LayerSpec layer;
        std::string layer_key;
        std::string arch_key;
        std::string scheduler_key;
        std::string evaluator_key;
        /** Position in lru_ (stable across list mutations). */
        std::list<std::string>::iterator lru_it;
        /** This entry's slot in insertion_order_ (O(1) eviction). */
        std::size_t order_index = 0;
    };

    /** insert() body; the caller holds mutex_. */
    void insertLocked(const ScheduleCacheKey& key, const SearchResult& result,
                      const LayerSpec& layer);

    /** Drop the least-recently-used entry; the caller holds mutex_. */
    void evictOneLocked();

    /** Evict down to capacity_ (when bounded); caller holds mutex_. */
    void enforceCapacityLocked();

    /** Rebuild insertion_order_ without tombstones once they dominate;
     *  caller holds mutex_. */
    void compactOrderLocked();

    mutable std::mutex mutex_;
    std::unordered_map<std::string, Entry> entries_;
    /**
     * Flat keys in first-insertion order (deterministic NN scans and
     * save() order). Eviction tombstones its slot (empty string, O(1))
     * instead of erasing; compactOrderLocked() reclaims the slots once
     * tombstones outnumber live entries, so sustained churn on a
     * bounded cache stays amortized O(1) per eviction.
     */
    std::vector<std::string> insertion_order_;
    std::size_t order_tombstones_ = 0;
    /** Flat keys by recency, least recent first. */
    std::list<std::string> lru_;
    std::int64_t capacity_ = 0; //!< 0 = unbounded
    std::int64_t hits_ = 0;
    std::int64_t misses_ = 0;
    std::int64_t neighbor_hits_ = 0;
    std::int64_t evictions_ = 0;
};

} // namespace cosa
