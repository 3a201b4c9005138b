#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cachestore/compact.hpp"
#include "cachestore/snapshot.hpp"
#include "cachestore/store.hpp"
#include "common/metrics.hpp"

namespace cosa {
namespace cachestore {
namespace {

/** Self-deleting temp store directory under the build dir. */
class TempDir
{
  public:
    explicit TempDir(const std::string& name)
        : path_("cosa_cachestore_store_test_" + name)
    {
        std::filesystem::remove_all(path_);
    }
    ~TempDir() { std::filesystem::remove_all(path_); }
    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

StoreConfig
fastConfig(const std::string& dir, int num_shards = 4)
{
    StoreConfig config;
    config.dir = dir;
    config.num_shards = num_shards;
    config.fsync_each_append = false; // tests churn hundreds of inserts
    return config;
}

std::shared_ptr<PersistentScheduleCache>
openOrDie(const StoreConfig& config)
{
    auto opened = PersistentScheduleCache::open(config);
    EXPECT_TRUE(opened.ok()) << opened.status().message();
    return opened.ok() ? *opened : nullptr;
}

/** A synthetic but realistic entry; i controls shape and values. */
ScheduleCache::ExportedEntry
makeEntry(int i)
{
    static const char* kLabels[] = {"3_14_256_256_1", "1_7_512_2048_1",
                                    "3_28_128_128_1", "7_112_3_64_2"};
    ScheduleCache::ExportedEntry entry;
    entry.layer = LayerSpec::fromLabel(kLabels[i % 4], 1 + i % 3);
    entry.layer.name = "layer" + std::to_string(i);
    entry.key.layer_key = entry.layer.canonicalKey();
    entry.key.arch_key = "simba/pe" + std::to_string(i % 5);
    entry.key.scheduler_key = "random/s11";
    entry.key.evaluator_key = "analytical/v1";
    SearchResult& r = entry.result;
    r.found = true;
    r.scheduler = "random";
    r.stats.samples = 100 + i;
    r.stats.search_time_sec = 0.01 + i / 3.0;
    r.eval.valid = true;
    r.eval.cycles = 1.0e6 * (1.0 + i / 7.0);
    r.eval.energy_pj = 2.0e9 / (1.0 + i / 3.0);
    r.eval.total_macs = entry.layer.macs();
    r.eval.level_cycles = {1e5 / 3.0, 2e5 / 3.0, 4e5 / 3.0};
    r.mapping.levels = {{Loop{Dim::K, 16, true}},
                        {Loop{Dim::C, 4, false},
                         Loop{Dim::P, 7 + i % 7, false}}};
    return entry;
}

void
expectSameResult(const SearchResult& a, const SearchResult& b)
{
    EXPECT_EQ(a.found, b.found);
    EXPECT_EQ(a.mapping, b.mapping);
    EXPECT_EQ(a.eval.cycles, b.eval.cycles);       // bit-exact
    EXPECT_EQ(a.eval.energy_pj, b.eval.energy_pj); // bit-exact
    EXPECT_EQ(a.eval.level_cycles, b.eval.level_cycles);
    EXPECT_EQ(a.stats.samples, b.stats.samples);
    EXPECT_EQ(a.stats.search_time_sec, b.stats.search_time_sec);
}

std::string
readAll(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(CachestoreStore, InsertLookupPersistsAcrossReopen)
{
    TempDir dir("reopen");
    std::vector<ScheduleCache::ExportedEntry> entries;
    for (int i = 0; i < 40; ++i)
        entries.push_back(makeEntry(i));
    {
        auto store = openOrDie(fastConfig(dir.path()));
        ASSERT_NE(store, nullptr);
        for (const auto& e : entries)
            store->insert(e.key, e.result, e.layer);
        for (const auto& e : entries) {
            const auto hit = store->lookup(e.key);
            ASSERT_TRUE(hit.has_value());
            expectSameResult(e.result, *hit);
        }
        ASSERT_TRUE(store->syncAll().ok());
    }
    // A fresh mount replays the logs: same entries, same values.
    auto revived = openOrDie(fastConfig(dir.path()));
    ASSERT_NE(revived, nullptr);
    EXPECT_EQ(revived->size(), entries.size());
    for (const auto& e : entries) {
        const auto hit = revived->lookup(e.key);
        ASSERT_TRUE(hit.has_value()) << e.key.flat();
        expectSameResult(e.result, *hit);
    }
    const StoreStats stats = revived->storeStats();
    std::int64_t recovered = 0;
    for (const auto& shard : stats.shards) {
        recovered += shard.records_recovered;
        EXPECT_FALSE(shard.torn_tail_recovered);
    }
    EXPECT_EQ(recovered, static_cast<std::int64_t>(entries.size()));
}

TEST(CachestoreStore, MatchesBaseCacheBitForBit)
{
    TempDir dir("parity");
    auto base = std::make_shared<ScheduleCache>();
    auto store = openOrDie(fastConfig(dir.path()));
    ASSERT_NE(store, nullptr);

    for (int i = 0; i < 60; ++i) {
        const auto e = makeEntry(i);
        base->insert(e.key, e.result, e.layer);
        store->insert(e.key, e.result, e.layer);
    }
    // Overwrites keep the original insertion order in both tiers.
    for (int i = 0; i < 60; i += 7) {
        auto e = makeEntry(i);
        e.result.eval.cycles *= 1.25;
        base->insert(e.key, e.result, e.layer);
        store->insert(e.key, e.result, e.layer);
    }

    // Exact lookups agree.
    for (int i = 0; i < 60; ++i) {
        const auto e = makeEntry(i);
        const auto a = base->lookup(e.key);
        const auto b = store->lookup(e.key);
        ASSERT_EQ(a.has_value(), b.has_value());
        expectSameResult(*a, *b);
    }

    // Nearest-neighbor scans agree (same candidate, same tie-breaks)
    // for both unseen shapes and shapes excluded as exact pairs.
    const char* kProbes[] = {"3_14_256_256_1", "5_56_64_256_1",
                             "1_7_512_2048_1", "11_224_3_32_4"};
    for (const char* label : kProbes) {
        for (int arch = 0; arch < 6; ++arch) {
            const LayerSpec probe = LayerSpec::fromLabel(label);
            const std::string arch_key =
                "simba/pe" + std::to_string(arch);
            const auto a = base->nearestNeighbor(
                arch_key, "random/s11", "analytical/v1", probe);
            const auto b = store->nearestNeighbor(
                arch_key, "random/s11", "analytical/v1", probe);
            ASSERT_EQ(a.has_value(), b.has_value()) << label;
            if (a.has_value())
                expectSameResult(*a, *b);
        }
    }
    EXPECT_EQ(base->stats().neighbor_hits, store->stats().neighbor_hits);
}

TEST(CachestoreStore, ShardCountIsInvisible)
{
    TempDir dir1("shards1");
    TempDir dir16("shards16");
    auto one = openOrDie(fastConfig(dir1.path(), 1));
    auto sixteen = openOrDie(fastConfig(dir16.path(), 16));
    ASSERT_NE(one, nullptr);
    ASSERT_NE(sixteen, nullptr);

    for (int i = 0; i < 50; ++i) {
        const auto e = makeEntry(i);
        one->insert(e.key, e.result, e.layer);
        sixteen->insert(e.key, e.result, e.layer);
    }
    // exportEntries is global first-insertion order — identical
    // regardless of how keys landed on shards.
    const auto a = one->exportEntries();
    const auto b = sixteen->exportEntries();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].key.flat(), b[i].key.flat()) << i;
        expectSameResult(a[i].result, b[i].result);
    }
    // And the NN merge picks the same candidate.
    const LayerSpec probe = LayerSpec::fromLabel("5_56_64_256_1");
    const auto na = one->nearestNeighbor("simba/pe1", "random/s11",
                                         "analytical/v1", probe);
    const auto nb = sixteen->nearestNeighbor("simba/pe1", "random/s11",
                                             "analytical/v1", probe);
    ASSERT_EQ(na.has_value(), nb.has_value());
    if (na.has_value())
        expectSameResult(*na, *nb);
}

TEST(CachestoreStore, EvictionsPersistAndCountInMetrics)
{
    TempDir dir("evict");
    StoreConfig config = fastConfig(dir.path(), 2);
    config.capacity = 10;

    std::int64_t metric_before = 0;
    {
        auto store = openOrDie(config);
        ASSERT_NE(store, nullptr);
        // Capture the per-shard eviction counters before the churn
        // (the registry is process-global).
        for (int s = 0; s < 2; ++s)
            metric_before +=
                metrics::MetricsRegistry::global()
                    .counter("cosa_cache_evictions_total",
                             "Schedule-cache LRU evictions by shard",
                             {{"shard", std::to_string(s)}})
                    .value();
        for (int i = 0; i < 30; ++i) {
            const auto e = makeEntry(i);
            store->insert(e.key, e.result, e.layer);
        }
        EXPECT_LE(store->size(), 10u);
        const auto stats = store->stats();
        EXPECT_GT(stats.evictions, 0);

        std::int64_t metric_after = 0;
        for (int s = 0; s < 2; ++s)
            metric_after +=
                metrics::MetricsRegistry::global()
                    .counter("cosa_cache_evictions_total",
                             "Schedule-cache LRU evictions by shard",
                             {{"shard", std::to_string(s)}})
                    .value();
        EXPECT_EQ(metric_after - metric_before, stats.evictions);
        ASSERT_TRUE(store->syncAll().ok());
    }
    // Evict records replayed: the reopened store holds exactly the
    // survivors, not the evicted keys.
    auto revived = openOrDie(config);
    ASSERT_NE(revived, nullptr);
    EXPECT_LE(revived->size(), 10u);
    EXPECT_EQ(revived->stats().entries,
              static_cast<std::int64_t>(revived->size()));
}

TEST(CachestoreStore, EvictionKeepsNearestNeighborConsistent)
{
    // After an eviction, nearest-neighbor scans must only see live
    // entries, in this process and after a reopen replays the evict.
    TempDir dir("evict_nn");
    StoreConfig config = fastConfig(dir.path(), 1);
    config.capacity = 1;
    const LayerSpec a = LayerSpec::fromLabel("3_14_256_256_1");
    const LayerSpec b = LayerSpec::fromLabel("3_14_256_512_1");
    // Both qualify for this target, and `a` is the nearer one.
    const LayerSpec target = LayerSpec::fromLabel("7_112_3_64_2");
    {
        auto store = openOrDie(config);
        ASSERT_NE(store, nullptr);
        SearchResult found;
        found.found = true;
        found.eval.cycles = 1.0;
        store->insert({a.canonicalKey(), "arch", "s", ""}, found, a);
        found.eval.cycles = 2.0;
        // Capacity 1: inserting b evicts a.
        store->insert({b.canonicalKey(), "arch", "s", ""}, found, b);
        EXPECT_EQ(store->stats().evictions, 1);
        const auto nn = store->nearestNeighbor("arch", "s", "", target);
        ASSERT_TRUE(nn.has_value());
        EXPECT_EQ(nn->eval.cycles, 2.0); // only the live entry qualifies
        ASSERT_TRUE(store->syncAll().ok());
    }
    auto revived = openOrDie(config);
    ASSERT_NE(revived, nullptr);
    const auto nn = revived->nearestNeighbor("arch", "s", "", target);
    ASSERT_TRUE(nn.has_value());
    EXPECT_EQ(nn->eval.cycles, 2.0);
}

TEST(CachestoreStore, TextSnapshotRoundTripsBothWays)
{
    TempDir dir("text");
    const std::string snapshot = dir.path() + "/snapshot.txt";
    auto store = openOrDie(fastConfig(dir.path() + "/store"));
    ASSERT_NE(store, nullptr);
    for (int i = 0; i < 25; ++i) {
        const auto e = makeEntry(i);
        store->insert(e.key, e.result, e.layer);
    }

    // Store -> v3 text -> in-memory base cache.
    const auto saved = exportSnapshot(*store, snapshot);
    ASSERT_TRUE(saved.ok) << saved.error;
    auto base = std::make_shared<ScheduleCache>();
    const auto loaded = importSnapshot(snapshot, *base);
    ASSERT_TRUE(loaded.ok) << loaded.error;
    EXPECT_EQ(loaded.entries, saved.entries);
    EXPECT_EQ(base->size(), store->size());
    for (const auto& e : store->exportEntries()) {
        const auto hit = base->lookup(e.key);
        ASSERT_TRUE(hit.has_value());
        expectSameResult(e.result, *hit);
    }

    // v3 text -> a fresh store with another shard count, the layout
    // change the shard-mismatch error sends operators through; its
    // re-export is byte-identical to the first.
    auto imported = openOrDie(fastConfig(dir.path() + "/imported", 16));
    ASSERT_NE(imported, nullptr);
    const auto merged = importSnapshot(snapshot, *imported);
    ASSERT_TRUE(merged.ok) << merged.error;
    EXPECT_EQ(merged.entries, saved.entries);
    EXPECT_EQ(imported->size(), store->size());
    const std::string again = dir.path() + "/again.txt";
    ASSERT_TRUE(exportSnapshot(*imported, again).ok);
    EXPECT_EQ(readAll(again), readAll(snapshot));
}

TEST(CachestoreStore, CompactionBoundsLogUnderChurn)
{
    TempDir dir("churn");
    StoreConfig config = fastConfig(dir.path(), 2);
    config.capacity = 20;
    config.compaction.min_bytes = 4 * 1024;
    auto store = openOrDie(config);
    ASSERT_NE(store, nullptr);

    for (int round = 0; round < 8; ++round)
        for (int i = 0; i < 40; ++i) {
            auto e = makeEntry(i);
            e.key.arch_key += "/r" + std::to_string(round);
            store->insert(e.key, e.result, e.layer);
        }

    const StoreStats stats = store->storeStats();
    std::int64_t compactions = 0;
    std::uint64_t log_bytes = 0, live_bytes = 0;
    for (const auto& shard : stats.shards) {
        compactions += shard.compactions;
        log_bytes += shard.log_bytes;
        live_bytes += shard.live_bytes;
    }
    EXPECT_GT(compactions, 0);
    // The fold keeps dead weight below ~garbage_ratio x live (plus
    // headers and the records appended since the last fold).
    EXPECT_LT(log_bytes, live_bytes * 4 + 64 * 1024);

    // The folded generation still replays to the same live set.
    const auto before = store->exportEntries();
    store.reset();
    auto revived = openOrDie(config);
    ASSERT_NE(revived, nullptr);
    const auto after = revived->exportEntries();
    ASSERT_EQ(before.size(), after.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
        EXPECT_EQ(before[i].key.flat(), after[i].key.flat());
        expectSameResult(before[i].result, after[i].result);
    }
}

TEST(CachestoreStore, StaleCompactionTempIsIgnoredAndRemoved)
{
    TempDir dir("staletmp");
    {
        auto store = openOrDie(fastConfig(dir.path(), 2));
        ASSERT_NE(store, nullptr);
        for (int i = 0; i < 10; ++i) {
            const auto e = makeEntry(i);
            store->insert(e.key, e.result, e.layer);
        }
        ASSERT_TRUE(store->syncAll().ok());
    }
    // Simulate a crash between writing the new generation and the
    // atomic rename: a stale .tmp sits next to a healthy shard log.
    const std::string tmp =
        compactionTempPath(dir.path() + "/shard-0000.log");
    std::ofstream(tmp, std::ios::binary) << "half-written generation";
    ASSERT_TRUE(std::filesystem::exists(tmp));

    auto revived = openOrDie(fastConfig(dir.path(), 2));
    ASSERT_NE(revived, nullptr);
    EXPECT_EQ(revived->size(), 10u);
    EXPECT_FALSE(std::filesystem::exists(tmp));
}

TEST(CachestoreStore, TornShardTailRecoversOnReopen)
{
    TempDir dir("torntail");
    std::vector<ScheduleCache::ExportedEntry> entries;
    {
        auto store = openOrDie(fastConfig(dir.path(), 1));
        ASSERT_NE(store, nullptr);
        for (int i = 0; i < 12; ++i) {
            entries.push_back(makeEntry(i));
            store->insert(entries.back().key, entries.back().result,
                          entries.back().layer);
        }
        ASSERT_TRUE(store->syncAll().ok());
    }
    // Crash mid-append: the last frame is torn.
    const std::string log = dir.path() + "/shard-0000.log";
    const auto size = std::filesystem::file_size(log);
    std::filesystem::resize_file(log, size - 13);

    auto revived = openOrDie(fastConfig(dir.path(), 1));
    ASSERT_NE(revived, nullptr);
    EXPECT_EQ(revived->size(), entries.size() - 1);
    const StoreStats stats = revived->storeStats();
    EXPECT_TRUE(stats.shards[0].torn_tail_recovered);
    EXPECT_EQ(stats.shards[0].records_skipped, 1);
    // Every surviving entry is intact; the torn one is simply absent.
    for (std::size_t i = 0; i + 1 < entries.size(); ++i) {
        const auto hit = revived->lookup(entries[i].key);
        ASSERT_TRUE(hit.has_value()) << i;
        expectSameResult(entries[i].result, *hit);
    }
    EXPECT_FALSE(revived->contains(entries.back().key));

    // The truncated tail is gone for good: appends land cleanly and
    // the next mount sees no damage.
    const auto extra = makeEntry(99);
    revived->insert(extra.key, extra.result, extra.layer);
    ASSERT_TRUE(revived->syncAll().ok());
    revived.reset();
    auto third = openOrDie(fastConfig(dir.path(), 1));
    ASSERT_NE(third, nullptr);
    EXPECT_EQ(third->size(), entries.size());
    EXPECT_FALSE(third->storeStats().shards[0].torn_tail_recovered);
}

TEST(CachestoreStore, ShardCountMismatchIsAHardError)
{
    TempDir dir("mismatch");
    {
        auto store = openOrDie(fastConfig(dir.path(), 4));
        ASSERT_NE(store, nullptr);
    }
    auto reopened = PersistentScheduleCache::open(fastConfig(dir.path(), 8));
    EXPECT_FALSE(reopened.ok());

    // num_shards = 0 adopts whatever the manifest says.
    auto adopted = openOrDie(fastConfig(dir.path(), 0));
    ASSERT_NE(adopted, nullptr);
    EXPECT_EQ(adopted->storeStats().num_shards, 4);
}

} // namespace
} // namespace cachestore
} // namespace cosa
