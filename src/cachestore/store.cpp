#include "cachestore/store.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/logging.hpp"

namespace cosa {
namespace cachestore {

namespace {

constexpr const char* kManifestName = "MANIFEST";
constexpr const char* kManifestHeader = "cosa-cachestore v1";
/** The most shard logs a directory of the older sharded layout held. */
constexpr int kMaxShards = 4096;

std::string
shardFileName(int index)
{
    char name[32];
    std::snprintf(name, sizeof(name), "shard-%04d.log", index);
    return name;
}

/** The store's counter family for cache events (hit, miss, insert,
 *  evict). */
constexpr const char* kEventFamily = "cosa_cachestore_events_total";
constexpr const char* kEventHelp = "Persistent schedule-cache events by kind";

/** Crash-safe manifest write (temp + rename, like a compaction swap). */
Status
writeManifest(const std::string& path, int num_shards)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out)
            return Status{ErrorCode::kIoError,
                          "cachestore: cannot write " + tmp};
        out << kManifestHeader << "\n"
            << "shards " << num_shards << "\n";
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

    // The manifest counts the directory's logs: 1 for every directory
    // this code writes, K for one the older sharded layout wrote, which
    // the replay below folds into one log.
    const std::string manifest_path =
        (fs::path(config_.dir) / kManifestName).string();
    int num_shards = 0;
    {
        std::ifstream in(manifest_path);
        if (in) {
            std::string header;
            std::string word;
            if (!std::getline(in, header) || header != kManifestHeader ||
                !(in >> word >> num_shards) || word != "shards" ||
                num_shards <= 0 || num_shards > kMaxShards)
                return Status{ErrorCode::kIoError,
                              "cachestore: " + manifest_path +
                                  " is not a valid manifest"};
        }
    }
    if (num_shards == 0) {
        num_shards = 1;
        Status written = writeManifest(manifest_path, num_shards);
        if (!written.ok())
            return written;
    }

    // Replay every log the manifest lists, streaming one log's records
    // straight out of the frame scan. The records of K logs are kept
    // until all are read: the fold replays them in global seq order.
    path_ = (fs::path(config_.dir) / shardFileName(0)).string();
    std::uint64_t valid_bytes = 0;
    std::uintmax_t on_disk = 0;
    std::vector<std::pair<LogRecord, std::uint32_t>> legacy;
    for (int i = 0; i < num_shards; ++i) {
        const std::string path =
            (fs::path(config_.dir) / shardFileName(i)).string();
        // A stale `.tmp` is a compaction that crashed before its
        // rename: the old generation is still the truth, the partial
        // new one is garbage. Ignore + remove.
        fs::remove(compactionTempPath(path), ec);
        // Sizing hint so a big replay doesn't rehash/regrow its way up
        // (entries run a few hundred bytes; overshooting a bit is just
        // slack buckets).
        const std::uintmax_t file_bytes = fs::file_size(path, ec);
        if (!ec)
            reserveLocked((on_disk += file_bytes) / 256 + 1);
        const LogReadResult read = readLog(
            path, [&](LogRecord&& record, std::uint32_t bytes) {
                if (num_shards > 1)
                    legacy.emplace_back(std::move(record), bytes);
                else
                    replayRecord(std::move(record), bytes);
                return true;
            });
        if (!read.ok)
            return Status{ErrorCode::kIoError, read.error};
        // A log names its own index, and the manifest's count, or 1 for
        // the folded log a crash left beside the old files.
        const bool own_count =
            read.num_shards == static_cast<std::uint32_t>(num_shards) ||
            (i == 0 && read.num_shards == 1);
        if (read.num_shards != 0 &&
            (read.shard_index != static_cast<std::uint32_t>(i) ||
             !own_count))
            return Status{ErrorCode::kIoError,
                          "cachestore: " + path + " is shard " +
                              std::to_string(read.shard_index) + "/" +
                              std::to_string(read.num_shards) +
                              ", not part of this layout"};
        counters_.records_skipped += read.records_skipped;
        if (read.torn_tail) {
            counters_.torn_tail_recovered = true;
            warn("cachestore: ", path, ": torn tail recovered (",
                 read.records_skipped, " bad record dropped)");
        }
        if (i == 0)
            valid_bytes = read.valid_bytes;
    }
    if (num_shards > 1) {
        StatusOr<std::uint64_t> folded =
            foldShardsLocked(num_shards, manifest_path, std::move(legacy));
        if (!folded.ok())
            return folded.status();
        valid_bytes = folded.value();
    }
    forEachLocked([this](const Entry& entry) {
        counters_.live_bytes += entry.record_bytes;
    });

    Status opened = writer_.open(path_, 0, 1, valid_bytes,
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

StatusOr<std::uint64_t>
PersistentScheduleCache::foldShardsLocked(
    int num_shards, const std::string& manifest,
    std::vector<std::pair<LogRecord, std::uint32_t>> records)
{
    namespace fs = std::filesystem;
    // Each shard file ran in ascending seq, but the files interleave.
    // A key's records share one seq per incarnation, so a stable sort
    // keeps each key's history in order, and the replay restores the
    // global first-insertion order, with recency following it, as a
    // replay of the folded log will.
    std::stable_sort(records.begin(), records.end(),
                     [](const auto& a, const auto& b) {
                         return a.first.seq < b.first.seq;
                     });
    for (auto& [record, bytes] : records)
        replayRecord(std::move(record), bytes);

    StatusOr<std::uint64_t> bytes =
        compactLogFile(path_, livePayloadsLocked());
    if (!bytes.ok())
        return bytes;
    // The folded log holds every live entry, so the other files are
    // history. They go before the manifest names one log: a crash at
    // any point reopens to the same entries.
    for (int i = 1; i < num_shards; ++i) {
        const fs::path old = fs::path(config_.dir) / shardFileName(i);
        std::error_code ec;
        fs::remove(old, ec);
        if (ec)
            return Status{ErrorCode::kIoError,
                          "cachestore: cannot remove " + old.string() +
                              ": " + ec.message()};
    }
    Status written = writeManifest(manifest, 1);
    if (!written.ok())
        return written;
    inform("cachestore: folded ", num_shards, " shard logs of ",
           config_.dir, " into one (", statsLocked().entries, " entries)");
    return bytes;
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
    Status reopened = writer_.open(path_, 0, 1, new_bytes,
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
