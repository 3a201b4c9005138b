#include "cachestore/store.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/logging.hpp"

namespace cosa {
namespace cachestore {

namespace {

constexpr const char* kManifestName = "MANIFEST";
constexpr const char* kManifestHeader = "cosa-cachestore v1";
constexpr int kDefaultShards = 8;
constexpr int kMaxShards = 4096;

std::string
shardFileName(std::size_t index)
{
    char name[32];
    std::snprintf(name, sizeof(name), "shard-%04zu.log", index);
    return name;
}

std::string
shardLabel(std::size_t index)
{
    return std::to_string(index);
}

metrics::Counter&
shardEventCounter(std::size_t shard, const char* event)
{
    return metrics::MetricsRegistry::global().counter(
        "cosa_cachestore_events_total",
        "Persistent schedule-cache events by shard and kind",
        {{"shard", shardLabel(shard)}, {"event", event}});
}

} // namespace

StatusOr<std::shared_ptr<PersistentScheduleCache>>
PersistentScheduleCache::open(StoreConfig config)
{
    if (config.dir.empty())
        return Status{ErrorCode::kInvalidInput,
                      "cachestore: empty shard directory"};
    if (config.num_shards < 0 || config.num_shards > kMaxShards)
        return Status{ErrorCode::kInvalidInput,
                      "cachestore: shard count out of range"};
    std::shared_ptr<PersistentScheduleCache> store(
        new PersistentScheduleCache());
    store->config_ = std::move(config);
    Status opened = store->openLocked();
    if (!opened.ok())
        return opened;
    return store;
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

    // Manifest: pins the shard count so a reopen with a different
    // configured K fails loudly instead of scattering keys across a
    // mismatched layout.
    const std::string manifest_path =
        (fs::path(config_.dir) / kManifestName).string();
    int shards_on_disk = 0;
    {
        std::ifstream in(manifest_path);
        if (in) {
            std::string header;
            std::string word;
            if (!std::getline(in, header) || header != kManifestHeader ||
                !(in >> word >> shards_on_disk) || word != "shards" ||
                shards_on_disk <= 0 || shards_on_disk > kMaxShards)
                return Status{ErrorCode::kIoError,
                              "cachestore: " + manifest_path +
                                  " is not a valid manifest"};
        }
    }
    if (shards_on_disk > 0) {
        if (config_.num_shards != 0 &&
            config_.num_shards != shards_on_disk)
            return Status{
                ErrorCode::kInvalidInput,
                "cachestore: " + config_.dir + " has " +
                    std::to_string(shards_on_disk) +
                    " shards but the configuration asks for " +
                    std::to_string(config_.num_shards) +
                    " (export/import to change the layout)"};
        config_.num_shards = shards_on_disk;
    } else {
        if (config_.num_shards == 0)
            config_.num_shards = kDefaultShards;
        // Crash-safe manifest write (same temp + rename as snapshots).
        const std::string tmp = manifest_path + ".tmp";
        {
            std::ofstream out(tmp, std::ios::trunc);
            if (!out)
                return Status{ErrorCode::kIoError,
                              "cachestore: cannot write " + tmp};
            out << kManifestHeader << "\n"
                << "shards " << config_.num_shards << "\n";
        }
        if (std::rename(tmp.c_str(), manifest_path.c_str()) != 0)
            return Status{ErrorCode::kIoError,
                          "cachestore: cannot publish " + manifest_path};
    }

    const std::size_t num_shards =
        static_cast<std::size_t>(config_.num_shards);
    shards_.clear();
    shards_.reserve(num_shards);
    for (std::size_t i = 0; i < num_shards; ++i) {
        auto shard = std::make_unique<Shard>();
        shard->path = (fs::path(config_.dir) / shardFileName(i)).string();
        // A stale `.tmp` is a compaction that crashed before its
        // rename: the old generation is still the truth, the partial
        // new one is garbage. Ignore + remove.
        fs::remove(compactionTempPath(shard->path), ec);
        shards_.push_back(std::move(shard));
    }

    // Read + replay every shard log in parallel — shards are fully
    // independent until the writers open, and replay (decode + map
    // build) dominates a large store's startup.
    std::vector<Status> statuses(num_shards, Status::Ok());
    std::vector<std::uint64_t> valid_bytes(num_shards, 0);
    std::vector<std::uint64_t> max_seqs(num_shards, 0);
    const auto scanShard = [&](std::size_t i) {
        Shard* shard = shards_[i].get();
        // Sizing hint so a big replay doesn't rehash/regrow its way
        // up (entries run a few hundred bytes; overshooting a bit is
        // just slack buckets).
        std::error_code size_ec;
        const auto on_disk =
            std::filesystem::file_size(shard->path, size_ec);
        if (!size_ec && on_disk > 0) {
            const std::size_t hint =
                static_cast<std::size_t>(on_disk / 256) + 1;
            shard->entries.reserve(hint);
            shard->index.reserve(hint);
        }
        // Replay streams straight out of the frame scan — no second
        // copy of the shard's records. Inserts overwrite in place
        // keeping the *first* record's seq (the base cache keeps an
        // overwritten entry's insertion-order slot); evicts erase. A
        // re-insert after an evict is a fresh entry under its fresh
        // seq.
        const auto replay = [&](LogRecord&& record,
                                std::uint32_t record_bytes) {
            ++shard->records_recovered;
            max_seqs[i] = std::max(max_seqs[i], record.seq);
            std::string flat = record.key.flat();
            if (record.kind == LogRecord::Kind::kEvict) {
                const auto it = shard->entries.find(flat);
                if (it == shard->entries.end())
                    return true;
                StoreEntry& victim = it->second;
                shard->live_bytes -= victim.record_bytes;
                shard->index[victim.index_slot].entry = nullptr;
                ++shard->index_tombstones;
                shard->lru.erase(victim.lru_it);
                shard->entries.erase(it);
                return true;
            }
            const auto [it, inserted] =
                shard->entries.try_emplace(std::move(flat));
            StoreEntry& entry = it->second;
            if (inserted) {
                entry.key = std::move(record.key);
                entry.seq = record.seq;
                entry.lru_it =
                    shard->lru.insert(shard->lru.end(), &it->first);
                entry.index_slot = shard->index.size();
                shard->index.push_back({record.seq, &entry});
            } else {
                shard->live_bytes -= entry.record_bytes;
                shard->lru.splice(shard->lru.end(), shard->lru,
                                  entry.lru_it);
            }
            entry.result = std::move(record.result);
            entry.layer = std::move(record.layer);
            entry.record_bytes = record_bytes;
            shard->live_bytes += record_bytes;
            return true;
        };
        LogReadResult read = readLog(shard->path, replay);
        if (!read.ok) {
            statuses[i] = Status{ErrorCode::kIoError, read.error};
            return;
        }
        if (read.num_shards != 0 &&
            (read.num_shards != static_cast<std::uint32_t>(num_shards) ||
             read.shard_index != static_cast<std::uint32_t>(i))) {
            statuses[i] =
                Status{ErrorCode::kIoError,
                       "cachestore: " + shard->path + " is shard " +
                           std::to_string(read.shard_index) + "/" +
                           std::to_string(read.num_shards) +
                           ", not part of this layout"};
            return;
        }
        shard->records_skipped = read.records_skipped;
        shard->torn_tail_recovered = read.torn_tail;
        valid_bytes[i] = read.valid_bytes;
    };
    const std::size_t num_workers = std::min<std::size_t>(
        num_shards,
        std::max<unsigned>(1, std::thread::hardware_concurrency()));
    if (num_workers <= 1) {
        for (std::size_t i = 0; i < num_shards; ++i)
            scanShard(i);
    } else {
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> workers;
        workers.reserve(num_workers);
        for (std::size_t w = 0; w < num_workers; ++w) {
            workers.emplace_back([&] {
                for (;;) {
                    const std::size_t i =
                        next.fetch_add(1, std::memory_order_relaxed);
                    if (i >= num_shards)
                        return;
                    scanShard(i);
                }
            });
        }
        for (std::thread& worker : workers)
            worker.join();
    }
    for (const Status& status : statuses)
        if (!status.ok())
            return status;

    std::uint64_t max_seq = 0;
    for (std::size_t i = 0; i < num_shards; ++i) {
        Shard* shard = shards_[i].get();
        max_seq = std::max(max_seq, max_seqs[i]);
        if (shard->torn_tail_recovered)
            warn("cachestore: ", shard->path, ": torn tail recovered (",
                 shard->records_skipped, " bad record dropped, ",
                 shard->records_recovered, " survive)");

        Status opened = shard->writer.open(
            shard->path, static_cast<std::uint32_t>(i),
            static_cast<std::uint32_t>(num_shards), valid_bytes[i],
            config_.fsync_each_append);
        if (!opened.ok())
            return opened;

        shard->hit_counter = &shardEventCounter(i, "hit");
        shard->miss_counter = &shardEventCounter(i, "miss");
        shard->insert_counter = &shardEventCounter(i, "insert");
        shard->evict_counter = &shardEventCounter(i, "evict");
        shard->eviction_total = &metrics::MetricsRegistry::global().counter(
            "cosa_cache_evictions_total",
            "Schedule-cache LRU evictions by shard",
            {{"shard", shardLabel(i)}});
        shard->compaction_counter =
            &metrics::MetricsRegistry::global().counter(
                "cosa_cachestore_compactions_total",
                "Shard log generation folds", {{"shard", shardLabel(i)}});
        shard->log_bytes_gauge = &metrics::MetricsRegistry::global().gauge(
            "cosa_cachestore_log_bytes",
            "Current shard log file size", {{"shard", shardLabel(i)}});
        if (shard->records_skipped > 0)
            metrics::MetricsRegistry::global()
                .counter("cosa_cachestore_recovered_skips_total",
                         "Bad tail records dropped at open",
                         {{"shard", shardLabel(i)}})
                .inc(shard->records_skipped);
        publishLogBytes(*shard);
    }
    next_seq_.store(max_seq + 1, std::memory_order_relaxed);
    distributeBudgets(config_.capacity);
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        Shard& shard = *shards_[i];
        std::lock_guard<std::mutex> lock(shard.mutex);
        enforceBudgetLocked(shard);
        maybeCompactLocked(shard, i);
    }
    return Status::Ok();
}

PersistentScheduleCache::~PersistentScheduleCache()
{
    for (auto& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        shard->writer.close();
    }
}

std::size_t
PersistentScheduleCache::shardOf(const std::string& flat_key) const
{
    return static_cast<std::size_t>(
        fnv1a(flat_key.data(), flat_key.size()) % shards_.size());
}

void
PersistentScheduleCache::distributeBudgets(std::int64_t total)
{
    const std::int64_t k = static_cast<std::int64_t>(shards_.size());
    // A bounded store keeps at least one entry per shard, so the
    // effective total is max(total, K); the budgets sum to exactly it.
    const std::int64_t effective =
        total <= 0 ? 0 : std::max<std::int64_t>(total, k);
    for (std::int64_t i = 0; i < k; ++i) {
        std::lock_guard<std::mutex> lock(shards_[i]->mutex);
        shards_[i]->budget =
            effective == 0 ? 0 : effective / k + (i < effective % k ? 1 : 0);
    }
}

std::optional<SearchResult>
PersistentScheduleCache::lookup(const ScheduleCacheKey& key)
{
    const std::string flat = key.flat();
    Shard& shard = *shards_[shardOf(flat)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.entries.find(flat);
    if (it == shard.entries.end()) {
        ++shard.misses;
        shard.miss_counter->inc();
        return std::nullopt;
    }
    ++shard.hits;
    shard.hit_counter->inc();
    shard.lru.splice(shard.lru.end(), shard.lru, it->second.lru_it);
    return it->second.result;
}

void
PersistentScheduleCache::insert(const ScheduleCacheKey& key,
                                const SearchResult& result,
                                const LayerSpec& layer)
{
    const std::string flat = key.flat();
    const std::size_t shard_index = shardOf(flat);
    Shard& shard = *shards_[shard_index];
    std::lock_guard<std::mutex> lock(shard.mutex);
    insertOneLocked(shard, key, result, layer, /*log_it=*/true);
    enforceBudgetLocked(shard);
    maybeCompactLocked(shard, shard_index);
}

void
PersistentScheduleCache::insertOneLocked(Shard& shard,
                                         const ScheduleCacheKey& key,
                                         const SearchResult& result,
                                         const LayerSpec& layer,
                                         bool log_it)
{
    std::string flat = key.flat();
    const auto [it, inserted] = shard.entries.try_emplace(std::move(flat));
    StoreEntry& entry = it->second;
    if (inserted) {
        // Seq assignment under the shard lock keeps each shard file's
        // records in ascending seq order (replay = merge order).
        entry.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
        entry.key = key;
        entry.lru_it = shard.lru.insert(shard.lru.end(), &it->first);
        entry.index_slot = shard.index.size();
        shard.index.push_back({entry.seq, &entry});
        ++shard.inserts;
        shard.insert_counter->inc();
    } else {
        shard.live_bytes -= entry.record_bytes;
        shard.lru.splice(shard.lru.end(), shard.lru, entry.lru_it);
    }
    entry.result = result;
    entry.layer = layer;

    LogRecord record;
    record.kind = LogRecord::Kind::kInsert;
    record.seq = entry.seq;
    record.key = key;
    record.layer = layer;
    record.result = result;
    const std::string payload = encodeRecord(record);
    entry.record_bytes = framedBytes(payload);
    shard.live_bytes += entry.record_bytes;
    if (log_it) {
        // write -> fsync -> publish: the in-memory entry above is only
        // reachable by other threads once this lock drops, which is
        // after the durable append. An IO failure degrades to
        // memory-only service for this entry (warned, not fatal: the
        // cache must keep absorbing solves even on a full disk).
        Status appended = shard.writer.append(payload);
        if (!appended.ok())
            warn("cachestore: ", shard.path, ": ", appended.message(),
                 " (entry stays in memory only)");
    }
    publishLogBytes(shard);
}

void
PersistentScheduleCache::evictOneLocked(Shard& shard)
{
    const std::string* victim = shard.lru.front();
    shard.lru.pop_front();
    const auto it = shard.entries.find(*victim);
    StoreEntry& entry = it->second;

    LogRecord record;
    record.kind = LogRecord::Kind::kEvict;
    record.seq = entry.seq;
    record.key = entry.key;
    Status appended = shard.writer.append(encodeRecord(record));
    if (!appended.ok())
        warn("cachestore: ", shard.path, ": ", appended.message());

    shard.live_bytes -= entry.record_bytes;
    shard.index[entry.index_slot].entry = nullptr;
    ++shard.index_tombstones;
    shard.entries.erase(it);
    ++shard.evictions;
    shard.evict_counter->inc();
    shard.eviction_total->inc();
    if (shard.index_tombstones > shard.entries.size() + 16)
        compactIndexLocked(shard);
    publishLogBytes(shard);
}

void
PersistentScheduleCache::enforceBudgetLocked(Shard& shard)
{
    if (shard.budget <= 0)
        return;
    while (static_cast<std::int64_t>(shard.entries.size()) > shard.budget)
        evictOneLocked(shard);
}

void
PersistentScheduleCache::compactIndexLocked(Shard& shard)
{
    std::vector<IndexEntry> live;
    live.reserve(shard.entries.size());
    for (const IndexEntry& slot : shard.index) {
        if (!slot.entry)
            continue;
        slot.entry->index_slot = live.size();
        live.push_back(slot);
    }
    shard.index = std::move(live);
    shard.index_tombstones = 0;
}

template <typename Visit>
void
PersistentScheduleCache::mergeInSeqOrderLocked(Visit&& visit) const
{
    std::vector<std::size_t> cursor(shards_.size(), 0);
    for (;;) {
        std::size_t best_shard = shards_.size();
        std::uint64_t min_seq = 0;
        for (std::size_t s = 0; s < shards_.size(); ++s) {
            const std::vector<IndexEntry>& index = shards_[s]->index;
            std::size_t& c = cursor[s];
            while (c < index.size() && !index[c].entry)
                ++c; // tombstone
            if (c >= index.size())
                continue;
            if (best_shard == shards_.size() || index[c].seq < min_seq) {
                best_shard = s;
                min_seq = index[c].seq;
            }
        }
        if (best_shard == shards_.size())
            return;
        visit(*shards_[best_shard]->index[cursor[best_shard]++].entry);
    }
}

std::optional<SearchResult>
PersistentScheduleCache::nearestNeighbor(const std::string& arch_key,
                                         const std::string& scheduler_key,
                                         const std::string& evaluator_key,
                                         const LayerSpec& target)
{
    // Snapshot all shards at once (fixed 0..K-1 order, no deadlock):
    // the merged scan must see one consistent global insertion order.
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(shards_.size());
    for (auto& shard : shards_)
        locks.emplace_back(shard->mutex);

    // The merge visits candidates in exactly the global first-insertion
    // order the base cache scans, and the scan keeps the earliest entry
    // on ties, so visit order is part of the bit-for-bit contract.
    NeighborScan scan(arch_key, scheduler_key, evaluator_key, target);
    mergeInSeqOrderLocked([&](const StoreEntry& entry) {
        scan.offer(entry.key, entry.result, entry.layer);
    });
    if (!scan.best())
        return std::nullopt;
    neighbor_hits_.fetch_add(1, std::memory_order_relaxed);
    metrics::MetricsRegistry::global()
        .counter("cosa_cache_events_total",
                 "Schedule-cache events by kind",
                 {{"event", "neighbor_hit"}})
        .inc();
    return *scan.best();
}

bool
PersistentScheduleCache::contains(const ScheduleCacheKey& key) const
{
    const std::string flat = key.flat();
    const Shard& shard = *shards_[shardOf(flat)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    return shard.entries.find(flat) != shard.entries.end();
}

std::size_t
PersistentScheduleCache::size() const
{
    std::size_t total = 0;
    for (const auto& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->entries.size();
    }
    return total;
}

ScheduleCacheStats
PersistentScheduleCache::stats() const
{
    ScheduleCacheStats out;
    for (const auto& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        out.hits += shard->hits;
        out.misses += shard->misses;
        out.entries += static_cast<std::int64_t>(shard->entries.size());
        out.evictions += shard->evictions;
    }
    out.neighbor_hits = neighbor_hits_.load(std::memory_order_relaxed);
    return out;
}

std::vector<ScheduleCache::ExportedEntry>
PersistentScheduleCache::exportEntries() const
{
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(shards_.size());
    for (const auto& shard : shards_)
        locks.emplace_back(shard->mutex);

    std::vector<ExportedEntry> out;
    mergeInSeqOrderLocked([&](const StoreEntry& entry) {
        out.push_back({entry.key, entry.result, entry.layer});
    });
    return out;
}

void
PersistentScheduleCache::setAsyncRunner(
    std::function<void(std::function<void()>)> runner)
{
    std::lock_guard<std::mutex> lock(runner_mutex_);
    runner_ = std::move(runner);
}

void
PersistentScheduleCache::maybeCompactLocked(Shard& shard,
                                            std::size_t shard_index)
{
    if (shard.compaction_pending)
        return;
    if (!config_.compaction.shouldCompact(shard.writer.bytes(),
                                          shard.live_bytes,
                                          logHeaderBytes()))
        return;
    std::function<void(std::function<void()>)> runner;
    {
        std::lock_guard<std::mutex> lock(runner_mutex_);
        runner = runner_;
    }
    if (!runner) {
        compactShardLocked(shard, shard_index);
        return;
    }
    // Online mode: fold on the shared executor, never on the solve
    // path. The task holds a weak_ptr — a store torn down before the
    // continuation runs is a no-op, not a use-after-free.
    shard.compaction_pending = true;
    std::weak_ptr<PersistentScheduleCache> weak = weak_from_this();
    runner([weak, shard_index] {
        const std::shared_ptr<PersistentScheduleCache> self = weak.lock();
        if (!self)
            return;
        Shard& shard = *self->shards_[shard_index];
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.compaction_pending = false;
        // Re-check: appends since the dispatch may have changed the
        // ratio (or another fold already ran).
        if (self->config_.compaction.shouldCompact(shard.writer.bytes(),
                                                   shard.live_bytes,
                                                   logHeaderBytes()))
            self->compactShardLocked(shard, shard_index);
    });
}

void
PersistentScheduleCache::compactShardLocked(Shard& shard,
                                            std::size_t shard_index)
{
    // Live entries in ascending seq, re-encoded as plain inserts: the
    // next generation replays to exactly the current map.
    std::vector<std::string> payloads;
    payloads.reserve(shard.entries.size());
    for (const IndexEntry& slot : shard.index) {
        if (!slot.entry)
            continue;
        LogRecord record;
        record.kind = LogRecord::Kind::kInsert;
        record.seq = slot.entry->seq;
        record.key = slot.entry->key;
        record.layer = slot.entry->layer;
        record.result = slot.entry->result;
        payloads.push_back(encodeRecord(record));
    }
    const std::uint64_t old_bytes = shard.writer.bytes();
    shard.writer.close();
    StatusOr<std::uint64_t> folded = compactShardFile(
        shard.path, static_cast<std::uint32_t>(shard_index),
        static_cast<std::uint32_t>(shards_.size()), payloads);
    const std::uint64_t new_bytes =
        folded.ok() ? folded.value() : old_bytes;
    if (!folded.ok())
        warn("cachestore: compaction of ", shard.path,
             " failed: ", folded.status().message(),
             " (old generation kept)");
    Status reopened = shard.writer.open(
        shard.path, static_cast<std::uint32_t>(shard_index),
        static_cast<std::uint32_t>(shards_.size()), new_bytes,
        config_.fsync_each_append);
    if (!reopened.ok()) {
        warn("cachestore: reopen after compaction of ", shard.path,
             " failed: ", reopened.message());
        return;
    }
    if (folded.ok()) {
        ++shard.compactions;
        shard.compaction_counter->inc();
        // Index tombstones are all folded away on disk; fold the
        // in-memory index too so scans stay compact.
        compactIndexLocked(shard);
    }
    publishLogBytes(shard);
}

Status
PersistentScheduleCache::syncAll()
{
    for (auto& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        Status synced = shard->writer.sync();
        if (!synced.ok())
            return synced;
    }
    return Status::Ok();
}

StoreStats
PersistentScheduleCache::storeStats() const
{
    StoreStats out;
    out.dir = config_.dir;
    out.num_shards = config_.num_shards;
    out.capacity = config_.capacity;
    out.cache = stats();
    out.shards.reserve(shards_.size());
    for (const auto& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        ShardStats s;
        s.entries = static_cast<std::int64_t>(shard->entries.size());
        s.hits = shard->hits;
        s.misses = shard->misses;
        s.inserts = shard->inserts;
        s.evictions = shard->evictions;
        s.compactions = shard->compactions;
        s.records_recovered = shard->records_recovered;
        s.records_skipped = shard->records_skipped;
        s.log_bytes = shard->writer.bytes();
        s.live_bytes = shard->live_bytes;
        s.torn_tail_recovered = shard->torn_tail_recovered;
        out.shards.push_back(s);
    }
    return out;
}

void
PersistentScheduleCache::publishLogBytes(Shard& shard)
{
    if (shard.log_bytes_gauge)
        shard.log_bytes_gauge->set(
            static_cast<double>(shard.writer.bytes()));
}

} // namespace cachestore
} // namespace cosa
