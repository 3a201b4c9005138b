#include "cachestore/store.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/logging.hpp"

namespace cosa {
namespace cachestore {

namespace {

constexpr const char* kManifestName = "MANIFEST";
constexpr const char* kManifestHeader = "cosa-cachestore v1";
constexpr const char* kLogName = "shard-0000.log";

/** The store's counter family for cache events (hit, miss, insert,
 *  evict). */
constexpr const char* kEventFamily = "cosa_cachestore_events_total";
constexpr const char* kEventHelp = "Persistent schedule-cache events by kind";

/** Crash-safe manifest write (temp + rename, like a compaction swap). */
Status
writeManifest(const std::string& path)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out)
            return Status{ErrorCode::kIoError,
                          "cachestore: cannot write " + tmp};
        out << kManifestHeader << "\n"
            << "shards 1\n";
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        return Status{ErrorCode::kIoError,
                      "cachestore: cannot publish " + path};
    return Status::Ok();
}

/** Live entry as a plain insert record: what a replay needs. */
std::string
encodeInsert(std::uint64_t seq, const ScheduleCacheKey& key,
             const LayerSpec& layer, const SearchResult& result)
{
    LogRecord record;
    record.kind = LogRecord::Kind::kInsert;
    record.seq = seq;
    record.key = key;
    record.layer = layer;
    record.result = result;
    return encodeRecord(record);
}

} // namespace

StatusOr<std::shared_ptr<PersistentScheduleCache>>
PersistentScheduleCache::open(StoreConfig config)
{
    if (config.dir.empty())
        return Status{ErrorCode::kInvalidInput,
                      "cachestore: empty store directory"};
    if (config.capacity < 0)
        return Status{ErrorCode::kInvalidInput,
                      "cachestore: capacity must be >= 0 (0 = unbounded), "
                      "got " + std::to_string(config.capacity)};
    std::shared_ptr<PersistentScheduleCache> store(
        new PersistentScheduleCache(std::move(config)));
    Status opened = store->openLocked();
    if (!opened.ok())
        return opened;
    return store;
}

PersistentScheduleCache::PersistentScheduleCache(StoreConfig config)
    : ScheduleCache(kEventFamily, kEventHelp, config.capacity),
      config_(std::move(config)),
      evict_counter_(metrics::MetricsRegistry::global().counter(
          kEventFamily, kEventHelp, {{"event", "evict"}})),
      eviction_total_(metrics::MetricsRegistry::global().counter(
          "cosa_cache_evictions_total", "Schedule-cache LRU evictions")),
      compaction_counter_(metrics::MetricsRegistry::global().counter(
          "cosa_cachestore_compactions_total", "Store log generation folds")),
      log_bytes_gauge_(metrics::MetricsRegistry::global().gauge(
          "cosa_cachestore_log_bytes", "Current store log file size"))
{
}

Status
PersistentScheduleCache::openLocked()
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(config_.dir, ec);
    if (ec)
        return Status{ErrorCode::kIoError,
                      "cachestore: cannot create " + config_.dir + ": " +
                          ec.message()};

    // The manifest names the directory's one log. One of the older
    // sharded layout names K > 1 and is refused before anything in the
    // directory changes.
    const std::string manifest_path =
        (fs::path(config_.dir) / kManifestName).string();
    {
        std::ifstream in(manifest_path);
        if (in) {
            std::string header;
            std::string word;
            int num_logs = 0;
            if (!std::getline(in, header) || header != kManifestHeader ||
                !(in >> word >> num_logs) || word != "shards" ||
                num_logs <= 0)
                return Status{ErrorCode::kIoError,
                              "cachestore: " + manifest_path +
                                  " is not a valid manifest"};
            if (num_logs != 1)
                return Status{ErrorCode::kIoError,
                              "cachestore: " + manifest_path + " names " +
                                  std::to_string(num_logs) +
                                  " shard logs, an older layout this "
                                  "store does not read (remove the "
                                  "directory to start an empty store)"};
        } else {
            Status written = writeManifest(manifest_path);
            if (!written.ok())
                return written;
        }
    }

    path_ = (fs::path(config_.dir) / kLogName).string();
    // A stale `.tmp` is a compaction that crashed before its rename:
    // the old generation is still the truth, the partial new one is
    // garbage. Ignore + remove.
    fs::remove(compactionTempPath(path_), ec);
    // Sizing hint so a big replay doesn't rehash/regrow its way up
    // (entries run a few hundred bytes; overshooting a bit is just
    // slack buckets).
    const std::uintmax_t file_bytes = fs::file_size(path_, ec);
    if (!ec)
        reserveLocked(file_bytes / 256 + 1);
    // Replay straight out of the frame scan.
    const LogReadResult read =
        readLog(path_, [this](LogRecord&& record, std::uint32_t bytes) {
            replayRecord(std::move(record), bytes);
            return true;
        });
    if (!read.ok)
        return Status{ErrorCode::kIoError, read.error};
    counters_.records_skipped = read.records_skipped;
    if (read.torn_tail) {
        counters_.torn_tail_recovered = true;
        warn("cachestore: ", path_, ": torn tail recovered (",
             read.records_skipped, " bad record dropped)");
    }
    forEachLocked([this](const Entry& entry) {
        counters_.live_bytes += entry.record_bytes;
    });

    Status opened = writer_.open(path_, read.valid_bytes,
                                 config_.fsync_each_append);
    if (!opened.ok())
        return opened;
    if (counters_.records_skipped > 0)
        metrics::MetricsRegistry::global()
            .counter("cosa_cachestore_recovered_skips_total",
                     "Bad tail records dropped at open")
            .inc(counters_.records_skipped);
    publishLogBytes();
    trimLocked();
    maybeCompactLocked();
    return Status::Ok();
}

void
PersistentScheduleCache::replayRecord(LogRecord&& record,
                                      std::uint32_t record_bytes)
{
    ++counters_.records_recovered;
    // Inserts overwrite in place keeping the *first* record's seq (the
    // base cache keeps an overwritten entry's insertion-order slot);
    // evicts erase. A re-insert after an evict is a fresh entry under
    // its fresh seq.
    if (record.kind == LogRecord::Kind::kEvict) {
        restoreEvictLocked(record.key);
        return;
    }
    restoreLocked(std::move(record.key), std::move(record.result),
                  std::move(record.layer), record.seq)
        .record_bytes = record_bytes;
}

void
PersistentScheduleCache::onInsertLocked(Entry& entry)
{
    const std::string payload =
        encodeInsert(entry.seq, entry.key, entry.layer, entry.result);
    counters_.live_bytes -= entry.record_bytes;
    entry.record_bytes = framedBytes(payload);
    counters_.live_bytes += entry.record_bytes;
    // write -> fsync -> publish: the in-memory entry is only reachable
    // by other threads once the cache lock drops, which is after the
    // durable append. An IO failure degrades to memory-only service for
    // this entry (warned, not fatal: the cache must keep absorbing
    // solves even on a full disk).
    Status appended = writer_.append(payload);
    if (!appended.ok())
        warn("cachestore: ", path_, ": ", appended.message(),
             " (entry stays in memory only)");
    publishLogBytes();
    maybeCompactLocked();
}

void
PersistentScheduleCache::onEvictLocked(const Entry& entry)
{
    LogRecord record;
    record.kind = LogRecord::Kind::kEvict;
    record.seq = entry.seq;
    record.key = entry.key;
    Status appended = writer_.append(encodeRecord(record));
    if (!appended.ok())
        warn("cachestore: ", path_, ": ", appended.message());
    counters_.live_bytes -= entry.record_bytes;
    evict_counter_.inc();
    eviction_total_.inc();
    publishLogBytes();
}

std::vector<std::string>
PersistentScheduleCache::livePayloadsLocked() const
{
    std::vector<std::string> payloads;
    forEachLocked([&payloads](const Entry& entry) {
        payloads.push_back(encodeInsert(entry.seq, entry.key, entry.layer,
                                        entry.result));
    });
    return payloads;
}

void
PersistentScheduleCache::setAsyncRunner(
    std::function<void(std::function<void()>)> runner)
{
    std::lock_guard<std::mutex> lock(mutex_);
    runner_ = std::move(runner);
}

void
PersistentScheduleCache::maybeCompactLocked()
{
    if (compaction_pending_ ||
        !config_.compaction.shouldCompact(writer_.bytes(),
                                          counters_.live_bytes,
                                          logHeaderBytes()))
        return;
    if (!runner_) {
        compactLocked();
        return;
    }
    // Online mode: fold on the shared executor, never on the solve
    // path. The task holds a weak_ptr — a store torn down before the
    // continuation runs is a no-op, not a use-after-free.
    compaction_pending_ = true;
    std::weak_ptr<PersistentScheduleCache> weak = weak_from_this();
    runner_([weak] {
        const std::shared_ptr<PersistentScheduleCache> self = weak.lock();
        if (!self)
            return;
        std::lock_guard<std::mutex> lock(self->mutex_);
        self->compaction_pending_ = false;
        // Re-check: appends since the dispatch may have changed the
        // ratio (or another fold already ran).
        if (self->config_.compaction.shouldCompact(
                self->writer_.bytes(), self->counters_.live_bytes,
                logHeaderBytes()))
            self->compactLocked();
    });
}

void
PersistentScheduleCache::compactLocked()
{
    // Live entries in ascending seq, re-encoded as plain inserts: the
    // next generation replays to exactly the current map.
    const std::vector<std::string> payloads = livePayloadsLocked();
    const std::uint64_t old_bytes = writer_.bytes();
    writer_.close();
    StatusOr<std::uint64_t> folded = compactLogFile(path_, payloads);
    const std::uint64_t new_bytes =
        folded.ok() ? folded.value() : old_bytes;
    if (!folded.ok())
        warn("cachestore: compaction of ", path_,
             " failed: ", folded.status().message(),
             " (old generation kept)");
    Status reopened = writer_.open(path_, new_bytes,
                                   config_.fsync_each_append);
    if (!reopened.ok()) {
        warn("cachestore: reopen after compaction of ", path_,
             " failed: ", reopened.message());
        return;
    }
    if (folded.ok()) {
        ++counters_.compactions;
        compaction_counter_.inc();
    }
    publishLogBytes();
}

Status
PersistentScheduleCache::syncAll()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return writer_.sync();
}

StoreStats
PersistentScheduleCache::storeStats() const
{
    StoreStats out;
    out.dir = config_.dir;
    out.capacity = config_.capacity;
    std::lock_guard<std::mutex> lock(mutex_);
    out.cache = statsLocked();
    ShardStats log = counters_;
    log.entries = out.cache.entries;
    log.hits = out.cache.hits;
    log.misses = out.cache.misses;
    log.inserts = out.cache.inserts;
    log.evictions = out.cache.evictions;
    log.log_bytes = writer_.bytes();
    out.shards.push_back(log);
    return out;
}

void
PersistentScheduleCache::publishLogBytes()
{
    log_bytes_gauge_.set(static_cast<double>(writer_.bytes()));
}

} // namespace cachestore
} // namespace cosa
