#pragma once

/**
 * @file
 * PersistentScheduleCache — the schedule cache as a sharded on-disk
 * tier behind the ScheduleCache interface.
 *
 * The store hashes each cache key's flat fingerprint (canonical layer
 * | arch | scheduler config | evaluator) into K shards. Each shard
 * owns its own append-only log file (see log.hpp), lock, LRU budget
 * and metrics, so shards never contend with each other and N daemon
 * replicas can mount disjoint shard directories — or share one, since
 * every mutation is durable before it is published.
 *
 * Determinism contract (asserted bit-for-bit by the tests): a fixed
 * ScheduleRequest returns byte-identical results whether it runs on
 * the in-memory base cache or this store, at 1 shard or 16, freshly
 * opened or reloaded, before or after torn-tail recovery. The two
 * load-bearing pieces:
 *
 *  - every entry carries a store-global monotonic sequence number
 *    (persisted in its log record; an overwrite keeps the original),
 *    so the per-shard indexes merge back into the exact global
 *    first-insertion order the base cache scans;
 *  - nearestNeighbor() runs that K-way merge over compact per-shard
 *    index vectors through the base cache's NeighborScan — same
 *    candidates, same distance calls, same tie-breaks, so warm-start
 *    quality is identical to the single-map baseline.
 *
 * This is the one persistent tier: cosad --cache-dir and the examples'
 * --cache-dir mount it, and its StoreConfig::capacity is the one cache
 * bound. The v3 text snapshot (snapshot.hpp) only converts to and from
 * it for `cosactl cache export|import`.
 */

#include <atomic>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "cachestore/compact.hpp"
#include "cachestore/log.hpp"
#include "common/metrics.hpp"
#include "common/status.hpp"
#include "engine/schedule_cache.hpp"

namespace cosa {
namespace cachestore {

/** Everything open() needs to mount (or create) a store. */
struct StoreConfig
{
    /** Shard directory (created when missing). */
    std::string dir;
    /** Shard count when creating a fresh directory; on reopen it must
     *  match the directory's manifest (0 = adopt whatever is there,
     *  defaulting to 8 for a fresh directory). */
    int num_shards = 0;
    /** Total LRU entry budget across shards; 0 = unbounded. Bounded
     *  stores keep at least one entry per shard, so the effective
     *  bound is max(capacity, num_shards). */
    std::int64_t capacity = 0;
    /** fsync every append (write -> fsync -> publish). False batches
     *  durability to sync()/close — for bulk imports and benches. */
    bool fsync_each_append = true;
    CompactionPolicy compaction;
};

/** One shard's live accounting, as /v1/cache/stats reports it. */
struct ShardStats
{
    std::int64_t entries = 0;
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t inserts = 0;
    std::int64_t evictions = 0;
    std::int64_t compactions = 0;
    /** Records replayed from the log at open(). */
    std::int64_t records_recovered = 0;
    /** Bad tail frames dropped at open() (torn/bit-flipped). */
    std::int64_t records_skipped = 0;
    std::uint64_t log_bytes = 0;
    std::uint64_t live_bytes = 0;
    bool torn_tail_recovered = false;
};

/** Store-wide roll-up + per-shard detail. */
struct StoreStats
{
    ScheduleCacheStats cache; //!< aggregate, base-cache compatible
    std::string dir;
    int num_shards = 0;
    std::int64_t capacity = 0;
    std::vector<ShardStats> shards;
};

/** The sharded persistent tier. Create via open(); thread-safe. */
class PersistentScheduleCache final
    : public ScheduleCache,
      public std::enable_shared_from_this<PersistentScheduleCache>
{
  public:
    /**
     * Mount @p config.dir: create it (with a manifest) when missing,
     * otherwise replay every shard log — recovering torn tails per
     * log.hpp — and resume appending. Fails only on real IO errors or
     * a layout mismatch (foreign files, manifest shard-count
     * conflict); crash damage recovers.
     */
    static StatusOr<std::shared_ptr<PersistentScheduleCache>> open(
        StoreConfig config);

    ~PersistentScheduleCache() override;

    // --- ScheduleCache interface ------------------------------------
    std::optional<SearchResult> lookup(const ScheduleCacheKey& key)
        override;
    void insert(const ScheduleCacheKey& key, const SearchResult& result,
                const LayerSpec& layer) override;
    std::optional<SearchResult> nearestNeighbor(
        const std::string& arch_key, const std::string& scheduler_key,
        const std::string& evaluator_key, const LayerSpec& target)
        override;
    bool contains(const ScheduleCacheKey& key) const override;
    std::size_t size() const override;
    ScheduleCacheStats stats() const override;
    std::vector<ExportedEntry> exportEntries() const override;

    // --- store-specific ---------------------------------------------
    /**
     * Mount an async task runner (e.g. a lowest-tier submit on the
     * engine's shared Executor): compaction then runs as a threadless
     * continuation off the insert path instead of inline. The runner
     * outlives nothing — scheduled tasks hold a weak_ptr and no-op
     * once the store is gone.
     */
    void setAsyncRunner(std::function<void(std::function<void()>)> runner);

    /** Flush batched appends (no-op when fsync_each_append). */
    Status syncAll();

    StoreStats storeStats() const;
    const StoreConfig& config() const { return config_; }

  private:
    struct StoreEntry
    {
        SearchResult result;
        LayerSpec layer;
        ScheduleCacheKey key;
        std::uint64_t seq = 0;
        /** Framed size of this entry's latest insert record. */
        std::uint64_t record_bytes = 0;
        std::list<const std::string*>::iterator lru_it;
        std::size_t index_slot = 0;
    };

    /** One slot of a shard's seq-ordered scan index. Entry pointers
     *  stay valid across unrelated map mutations (node-based map);
     *  an evicted entry tombstones its slot (null). */
    struct IndexEntry
    {
        std::uint64_t seq = 0;
        StoreEntry* entry = nullptr;
    };

    struct Shard
    {
        mutable std::mutex mutex;
        std::string path;
        std::unordered_map<std::string, StoreEntry> entries;
        /** Ascending seq; the shard's lane of the global NN merge. */
        std::vector<IndexEntry> index;
        std::size_t index_tombstones = 0;
        /** Flat keys by recency, least recent first. Points at the
         *  entries map's keys (node-based, so stable until erase). */
        std::list<const std::string*> lru;
        LogWriter writer;
        std::uint64_t live_bytes = 0;
        std::int64_t budget = 0; //!< this shard's LRU bound; 0 = none
        bool compaction_pending = false;

        std::int64_t hits = 0;
        std::int64_t misses = 0;
        std::int64_t inserts = 0;
        std::int64_t evictions = 0;
        std::int64_t compactions = 0;
        std::int64_t records_recovered = 0;
        std::int64_t records_skipped = 0;
        bool torn_tail_recovered = false;

        metrics::Counter* hit_counter = nullptr;
        metrics::Counter* miss_counter = nullptr;
        metrics::Counter* insert_counter = nullptr;
        metrics::Counter* evict_counter = nullptr;
        metrics::Counter* eviction_total = nullptr;
        metrics::Counter* compaction_counter = nullptr;
        metrics::Gauge* log_bytes_gauge = nullptr;
    };

    PersistentScheduleCache() = default;

    Status openLocked(); //!< open()-time body (no concurrency yet)
    std::size_t shardOf(const std::string& flat_key) const;
    /** Per-shard budgets for @p total (effective min: one per shard). */
    void distributeBudgets(std::int64_t total);
    void insertOneLocked(Shard& shard, const ScheduleCacheKey& key,
                         const SearchResult& result, const LayerSpec& layer,
                         bool log_it);
    void evictOneLocked(Shard& shard);
    void enforceBudgetLocked(Shard& shard);
    void compactIndexLocked(Shard& shard);
    /** Visit every live entry in ascending seq — the global
     *  first-insertion order — by a K-way merge of the shard indexes;
     *  the caller holds every shard lock. */
    template <typename Visit>
    void mergeInSeqOrderLocked(Visit&& visit) const;
    /** Policy check + inline fold or async dispatch. */
    void maybeCompactLocked(Shard& shard, std::size_t shard_index);
    void compactShardLocked(Shard& shard, std::size_t shard_index);
    void publishLogBytes(Shard& shard);

    StoreConfig config_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::atomic<std::uint64_t> next_seq_{1};
    std::atomic<std::int64_t> neighbor_hits_{0};

    mutable std::mutex runner_mutex_;
    std::function<void(std::function<void()>)> runner_;
};

} // namespace cachestore
} // namespace cosa
