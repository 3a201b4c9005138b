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
 * The in-memory tier lives as long as its process and is unbounded.
 * Solves outlive the process in cachestore::PersistentScheduleCache,
 * the on-disk tier behind this same interface, which also
 * carries the one LRU bound (docs/cache-store.md).
 *
 * Thread-safe: a single mutex guards the map and the counters, which is
 * ample because entries are whole-layer solve results (lookups are
 * trivially cheap next to a solve).
 */

#include <cstdint>
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
    /** Entries dropped by an LRU bound (lifetime total; only the
     *  bounded cachestore tier evicts). */
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
 * The nearest-neighbor rule, shared by every cache tier so their picks
 * agree bit for bit. Offer each entry in global first-insertion order;
 * best() is then the neighbor ScheduleCache::nearestNeighbor() returns.
 * The scan keeps references to its arguments and to the best entry, so
 * it lives inside one locked scan.
 */
class NeighborScan
{
  public:
    NeighborScan(const std::string& arch_key,
                 const std::string& scheduler_key,
                 const std::string& evaluator_key, const LayerSpec& target);

    /** Consider one entry; it replaces the best only on a strict
     *  improvement, so ties keep the earliest. */
    void offer(const ScheduleCacheKey& key, const SearchResult& result,
               const LayerSpec& layer);

    /** The winning entry's result; null when none qualified. */
    const SearchResult* best() const { return best_; }

  private:
    const std::string& arch_key_;
    const std::string& scheduler_key_;
    const std::string& evaluator_key_;
    const LayerSpec& target_;
    const std::string target_key_;
    const SearchResult* best_ = nullptr;
    double best_dist_ = 0.0;
    bool best_arch_match_ = false;
};

/**
 * Thread-safe (layer, arch, scheduler) -> SearchResult memo table.
 *
 * The class is the polymorphic cache interface of the service: every
 * method a job touches is virtual, so a request can mount a different
 * tier (cachestore::PersistentScheduleCache, the on-disk
 * store) behind the same `std::shared_ptr<ScheduleCache>` without the
 * service knowing. The base class is the process-local in-memory
 * implementation.
 */
class ScheduleCache
{
  public:
    virtual ~ScheduleCache() = default;

    /**
     * Look up @p key; counts a hit or a miss. The returned result's
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

    /** True when @p key is present, without touching the counters. */
    virtual bool contains(const ScheduleCacheKey& key) const;

    /** Live entry count (same number stats().entries reports). */
    virtual std::size_t size() const;

    /** Snapshot of the counters. */
    virtual ScheduleCacheStats stats() const;

    /** One entry as exportEntries() hands it out. */
    struct ExportedEntry
    {
        ScheduleCacheKey key;
        SearchResult result;
        LayerSpec layer;
    };

    /**
     * Every live entry in first-insertion order (the order
     * nearestNeighbor() scans). The snapshot is a deep copy taken under
     * the lock — format converters (cachestore::exportSnapshot) iterate
     * it without holding the cache up.
     */
    virtual std::vector<ExportedEntry> exportEntries() const;

  private:
    mutable std::mutex mutex_;
    /** Flat key -> entry (node-based: entry addresses are stable). */
    std::unordered_map<std::string, ExportedEntry> entries_;
    /** The entries in first-insertion order; an overwrite keeps its
     *  slot. */
    std::vector<const ExportedEntry*> insertion_order_;
    std::int64_t hits_ = 0;
    std::int64_t misses_ = 0;
    std::int64_t neighbor_hits_ = 0;
};

} // namespace cosa
