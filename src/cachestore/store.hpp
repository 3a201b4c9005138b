#pragma once

/**
 * @file
 * PersistentScheduleCache — the schedule cache as an on-disk tier
 * behind the ScheduleCache interface.
 *
 * The store is one append-only record log (see log.hpp) behind one
 * mutex, with one entry map, one LRU list and one seq-ordered scan
 * index. Every mutation is durable before it is published, so a crash
 * loses at most the torn tail of the log.
 *
 * Determinism contract (asserted bit-for-bit by the tests): a fixed
 * ScheduleRequest returns byte-identical results whether it runs on
 * the in-memory base cache or this store, freshly opened or reloaded,
 * before or after torn-tail recovery, and after folding a directory
 * written in the older sharded layout. The load-bearing piece: every
 * entry carries a store-global monotonic sequence number (persisted in
 * its log record; an overwrite keeps the original), and the scan index
 * visits live entries in ascending seq — the exact first-insertion
 * order the base cache scans — so nearestNeighbor() through the base
 * cache's NeighborScan sees the same candidates, makes the same
 * distance calls and breaks ties the same way.
 *
 * This is the one persistent tier: cosad --cache-dir and the examples'
 * --cache-dir mount it, and its StoreConfig::capacity is the one cache
 * bound. The v3 text snapshot (snapshot.hpp) only converts to and from
 * it for `cosactl cache export|import`.
 */

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
    /** Store directory (created when missing). */
    std::string dir;
    /** Exact LRU entry bound; 0 = unbounded. */
    std::int64_t capacity = 0;
    /** fsync every append (write -> fsync -> publish). False batches
     *  durability to sync()/close — for bulk imports and benches. */
    bool fsync_each_append = true;
    CompactionPolicy compaction;
};

/** The log's live accounting, as /v1/cache/stats reports it. */
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

/** Store-wide roll-up + the log's detail. */
struct StoreStats
{
    ScheduleCacheStats cache; //!< aggregate, base-cache compatible
    std::string dir;
    std::int64_t capacity = 0;
    /** Exactly one element: the store's log. */
    std::vector<ShardStats> shards;
};

/** The persistent tier. Create via open(); thread-safe. */
class PersistentScheduleCache final
    : public ScheduleCache,
      public std::enable_shared_from_this<PersistentScheduleCache>
{
  public:
    /**
     * Mount @p config.dir: create it (with a manifest) when missing,
     * otherwise replay the log — recovering a torn tail per log.hpp —
     * and resume appending. A directory in the older sharded layout is
     * folded into one log first (docs/cache-store.md). Fails only on
     * real IO errors or foreign files; crash damage recovers.
     */
    static StatusOr<std::shared_ptr<PersistentScheduleCache>> open(
        StoreConfig config);

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

    using EntryMap = std::unordered_map<std::string, StoreEntry>;

    PersistentScheduleCache() = default;

    Status openLocked(); //!< open()-time body (no concurrency yet)
    /** Apply one replayed record to the maps. */
    void replayRecord(LogRecord&& record, std::uint32_t record_bytes);
    /** Rewrite the replayed K-shard directory as one log; returns the
     *  log's size. */
    StatusOr<std::uint64_t> foldShardsLocked(int num_shards,
                                             const std::string& manifest);
    /** Unlink @p it from the map, the LRU list and the index. */
    void eraseLocked(EntryMap::iterator it);
    void evictOneLocked();
    void enforceCapacityLocked();
    /** Drop the index's tombstones (slots of evicted entries). */
    void compactIndexLocked();
    /** The live entries' insert records, ascending seq. */
    std::vector<std::string> livePayloadsLocked() const;
    /** Policy check + inline fold or async dispatch. */
    void maybeCompactLocked();
    void compactLocked();
    void publishLogBytes();

    StoreConfig config_;
    std::string path_; //!< the log file

    mutable std::mutex mutex_;
    EntryMap entries_;
    /** Entries by ascending seq — the global first-insertion order.
     *  Entry pointers stay valid across unrelated map mutations
     *  (node-based map); an evicted entry tombstones its slot (null). */
    std::vector<StoreEntry*> index_;
    std::size_t index_tombstones_ = 0;
    /** Flat keys by recency, least recent first. Points at the entries
     *  map's keys (node-based, so stable until erase). */
    std::list<const std::string*> lru_;
    LogWriter writer_;
    std::uint64_t next_seq_ = 1;
    bool compaction_pending_ = false;
    /** Counters; entries and log_bytes are filled in by storeStats(). */
    ShardStats counters_;
    std::int64_t neighbor_hits_ = 0;
    std::function<void(std::function<void()>)> runner_;

    metrics::Counter* hit_counter_ = nullptr;
    metrics::Counter* miss_counter_ = nullptr;
    metrics::Counter* insert_counter_ = nullptr;
    metrics::Counter* evict_counter_ = nullptr;
    metrics::Counter* eviction_total_ = nullptr;
    metrics::Counter* compaction_counter_ = nullptr;
    metrics::Gauge* log_bytes_gauge_ = nullptr;
};

} // namespace cachestore
} // namespace cosa
