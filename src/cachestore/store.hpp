#pragma once

/**
 * @file
 * PersistentScheduleCache — the schedule cache as an on-disk tier.
 *
 * The store is the in-memory ScheduleCache plus one append-only record
 * log (see log.hpp): its entry map, seq-ordered index and LRU list are
 * the base class's, and the store appends one record per insert and
 * per eviction from the base's hooks, under the cache lock. Every
 * mutation is durable before it is published, so a crash loses at most
 * the torn tail of the log.
 *
 * Determinism contract (asserted bit-for-bit by the tests): a fixed
 * ScheduleRequest returns byte-identical results whether it runs on
 * the in-memory base cache or this store, freshly opened or reloaded,
 * and before or after torn-tail recovery. The load-bearing piece: every
 * entry carries a store-global monotonic sequence number (persisted in
 * its log record; an overwrite keeps the original), and replay restores
 * the entries in ascending seq — the exact first-insertion order the
 * base cache's index holds — so nearestNeighbor(), which exists only
 * in the base, sees the same candidates in the same order.
 *
 * This is the one persistent tier and the log its one on-disk format:
 * cosad --cache-dir and the examples' --cache-dir mount it, and its
 * StoreConfig::capacity is the one cache bound. The log is fixed-width
 * little-endian and checksummed, so a store moves by copying its
 * directory while no process has it open.
 */

#include <functional>
#include <memory>
#include <vector>

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
     * and resume appending. Fails with kInvalidInput on an empty
     * directory name or a negative capacity, and otherwise with
     * kIoError only on real IO errors or foreign files; crash damage
     * recovers. A MANIFEST naming more than one log (the older sharded
     * layout) is a foreign file: open refuses it and touches nothing
     * in the directory.
     */
    static StatusOr<std::shared_ptr<PersistentScheduleCache>> open(
        StoreConfig config);

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
    explicit PersistentScheduleCache(StoreConfig config);

    /** Append @p entry's insert record (write -> fsync -> publish). */
    void onInsertLocked(Entry& entry) override;
    /** Append @p entry's evict record. */
    void onEvictLocked(const Entry& entry) override;

    Status openLocked(); //!< open()-time body (no concurrency yet)
    /** Apply one replayed record to the cache. */
    void replayRecord(LogRecord&& record, std::uint32_t record_bytes);
    /** The live entries' insert records, ascending seq. */
    std::vector<std::string> livePayloadsLocked() const;
    /** Policy check + inline fold or async dispatch. */
    void maybeCompactLocked();
    void compactLocked();
    void publishLogBytes();

    const StoreConfig config_;
    std::string path_; //!< the log file

    LogWriter writer_;
    bool compaction_pending_ = false;
    /** The log's counters; storeStats() adds the cache's. */
    ShardStats counters_;
    std::function<void(std::function<void()>)> runner_;

    metrics::Counter& evict_counter_;
    metrics::Counter& eviction_total_;
    metrics::Counter& compaction_counter_;
    metrics::Gauge& log_bytes_gauge_;
};

} // namespace cachestore
} // namespace cosa
