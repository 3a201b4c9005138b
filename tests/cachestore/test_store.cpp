#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cachestore/compact.hpp"
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
fastConfig(const std::string& dir)
{
    StoreConfig config;
    config.dir = dir;
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

/** File names in @p dir, sorted. */
std::vector<std::string>
listDir(const std::string& dir)
{
    std::vector<std::string> names;
    for (const auto& file : std::filesystem::directory_iterator(dir))
        names.push_back(file.path().filename().string());
    std::sort(names.begin(), names.end());
    return names;
}

/** Same entries in the same order, and the same neighbor picks for
 *  unseen shapes and for shapes excluded as exact pairs. */
void
expectSameStore(ScheduleCache& a, ScheduleCache& b)
{
    static const char* const kProbes[] = {"3_14_256_256_1", "5_56_64_256_1",
                                          "1_7_512_2048_1", "11_224_3_32_4"};
    const auto ea = a.exportEntries();
    const auto eb = b.exportEntries();
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i].key.flat(), eb[i].key.flat()) << i;
        EXPECT_EQ(ea[i].layer, eb[i].layer) << i;
        expectSameResult(ea[i].result, eb[i].result);
    }
    for (const char* label : kProbes) {
        for (int arch = 0; arch < 6; ++arch) {
            const LayerSpec probe = LayerSpec::fromLabel(label);
            const std::string arch_key = "simba/pe" + std::to_string(arch);
            const auto na = a.nearestNeighbor(arch_key, "random/s11",
                                              "analytical/v1", probe);
            const auto nb = b.nearestNeighbor(arch_key, "random/s11",
                                              "analytical/v1", probe);
            ASSERT_EQ(na.has_value(), nb.has_value()) << label;
            if (na.has_value())
                expectSameResult(*na, *nb);
        }
    }
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
    ASSERT_EQ(stats.shards.size(), 1u);
    EXPECT_EQ(stats.shards[0].records_recovered,
              static_cast<std::int64_t>(entries.size()));
    EXPECT_FALSE(stats.shards[0].torn_tail_recovered);
    EXPECT_EQ(listDir(dir.path()),
              (std::vector<std::string>{"MANIFEST", "shard-0000.log"}));
    EXPECT_EQ(readAll(dir.path() + "/MANIFEST"),
              "cosa-cachestore v1\nshards 1\n");
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

    // Insertion order and nearest-neighbor scans agree (same candidate,
    // same tie-breaks) for both unseen shapes and shapes excluded as
    // exact pairs.
    expectSameStore(*base, *store);
    EXPECT_EQ(base->stats().neighbor_hits, store->stats().neighbor_hits);
}

TEST(CachestoreStore, ShardedLayoutIsRefusedAndLeftAlone)
{
    // A MANIFEST of the older sharded layout names K > 1 logs: open
    // refuses the directory as foreign and changes nothing in it.
    TempDir dir("sharded");
    std::filesystem::create_directories(dir.path());
    const std::string manifest = "cosa-cachestore v1\nshards 4\n";
    std::ofstream(dir.path() + "/MANIFEST", std::ios::binary) << manifest;

    const auto opened = PersistentScheduleCache::open(fastConfig(dir.path()));
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), ErrorCode::kIoError);
    EXPECT_NE(opened.status().message().find(dir.path() + "/MANIFEST"),
              std::string::npos)
        << opened.status().message();
    EXPECT_EQ(readAll(dir.path() + "/MANIFEST"), manifest);
    EXPECT_EQ(listDir(dir.path()), std::vector<std::string>{"MANIFEST"});
}

TEST(CachestoreStore, CapacityIsAnExactGlobalBound)
{
    TempDir dir("exact_bound");
    StoreConfig config = fastConfig(dir.path());
    config.capacity = 16;
    std::vector<ScheduleCache::ExportedEntry> entries;
    for (int i = 0; i < 17; ++i)
        entries.push_back(makeEntry(i));
    {
        auto store = openOrDie(config);
        ASSERT_NE(store, nullptr);
        for (int i = 0; i < 16; ++i)
            store->insert(entries[i].key, entries[i].result,
                          entries[i].layer);
        EXPECT_EQ(store->size(), 16u);
        EXPECT_EQ(store->stats().evictions, 0);

        // Entry 0 is used again, so entry 1 is the least recently used
        // and the 17th insert evicts exactly it.
        ASSERT_TRUE(store->lookup(entries[0].key).has_value());
        store->insert(entries[16].key, entries[16].result,
                      entries[16].layer);
        EXPECT_EQ(store->size(), 16u);
        EXPECT_EQ(store->stats().evictions, 1);
        for (int i = 0; i < 17; ++i)
            EXPECT_EQ(store->contains(entries[i].key), i != 1) << i;
        ASSERT_TRUE(store->syncAll().ok());
    }
    // The evict record replays: a reopen holds the same 16 entries.
    auto revived = openOrDie(config);
    ASSERT_NE(revived, nullptr);
    EXPECT_EQ(revived->size(), 16u);
    EXPECT_FALSE(revived->contains(entries[1].key));
}

TEST(CachestoreStore, EvictionsPersistAndCountInMetrics)
{
    TempDir dir("evict");
    StoreConfig config = fastConfig(dir.path());
    config.capacity = 10;
    // The registry is process-global: read the counter before the churn.
    const metrics::Counter& evictions =
        metrics::MetricsRegistry::global().counter(
            "cosa_cache_evictions_total", "Schedule-cache LRU evictions");
    {
        auto store = openOrDie(config);
        ASSERT_NE(store, nullptr);
        const std::int64_t metric_before = evictions.value();
        for (int i = 0; i < 30; ++i) {
            const auto e = makeEntry(i);
            store->insert(e.key, e.result, e.layer);
        }
        EXPECT_EQ(store->size(), 10u);
        EXPECT_EQ(store->stats().evictions, 20);
        EXPECT_EQ(evictions.value() - metric_before, 20);
        ASSERT_TRUE(store->syncAll().ok());
    }
    // Evict records replayed: the reopened store holds exactly the
    // survivors, not the evicted keys.
    auto revived = openOrDie(config);
    ASSERT_NE(revived, nullptr);
    EXPECT_EQ(revived->size(), 10u);
    EXPECT_EQ(revived->stats().entries,
              static_cast<std::int64_t>(revived->size()));
}

TEST(CachestoreStore, EvictionKeepsNearestNeighborConsistent)
{
    // After an eviction, nearest-neighbor scans must only see live
    // entries, in this process and after a reopen replays the evict.
    TempDir dir("evict_nn");
    StoreConfig config = fastConfig(dir.path());
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

TEST(CachestoreStore, EvictionChurnKeepsScanOrderAcrossIndexCompactions)
{
    // 60 distinct keys through a capacity-8 store: the 52 evictions
    // pass the index's compaction threshold (16 tombstones beyond the
    // live count) twice. Lookups of older keys reorder recency, so the
    // survivors are not simply the last eight inserts.
    TempDir dir("evict_churn");
    StoreConfig config = fastConfig(dir.path());
    config.capacity = 8;
    auto store = openOrDie(config);
    ASSERT_NE(store, nullptr);
    for (int i = 0; i < 60; ++i) {
        const auto e = makeEntry(i);
        store->insert(e.key, e.result, e.layer);
        if (i % 3 == 2)
            store->lookup(makeEntry(i - 2).key);
        if (i % 7 == 6)
            store->lookup(makeEntry(i / 2).key);
    }
    EXPECT_EQ(store->size(), 8u);
    EXPECT_EQ(store->stats().evictions, 52);
    ASSERT_TRUE(store->syncAll().ok());

    // The log replays to the same entries in the same scan order.
    auto reopened = openOrDie(config);
    ASSERT_NE(reopened, nullptr);
    expectSameStore(*store, *reopened);

    // An unbounded in-memory cache fed the survivors in scan order
    // makes the same neighbor picks.
    ScheduleCache base;
    for (const auto& e : store->exportEntries())
        base.insert(e.key, e.result, e.layer);
    expectSameStore(*store, base);
}

TEST(CachestoreStore, NegativeCapacityIsInvalidInput)
{
    TempDir dir("negative_capacity");
    StoreConfig config = fastConfig(dir.path());
    config.capacity = -1;
    const auto opened = PersistentScheduleCache::open(config);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), ErrorCode::kInvalidInput);
    EXPECT_FALSE(std::filesystem::exists(dir.path()));
}

/** The hit, miss and insert counts of one tier's event family. */
std::vector<std::int64_t>
tierEvents(const char* family)
{
    std::vector<std::int64_t> counts;
    for (const char* event : {"hit", "miss", "insert"})
        counts.push_back(metrics::MetricsRegistry::global()
                             .counter(family, "", {{"event", event}})
                             .value());
    return counts;
}

std::int64_t
neighborHits()
{
    return metrics::MetricsRegistry::global()
        .counter("cosa_cache_events_total", "",
                 {{"event", "neighbor_hit"}})
        .value();
}

TEST(CachestoreStore, EachTierCountsInItsOwnEventFamily)
{
    constexpr const char* kMemory = "cosa_cache_events_total";
    constexpr const char* kStore = "cosa_cachestore_events_total";
    TempDir dir("families");
    auto store = openOrDie(fastConfig(dir.path()));
    ASSERT_NE(store, nullptr);
    ScheduleCache memory;
    const auto a = makeEntry(0);
    const auto b = makeEntry(1);
    const LayerSpec probe = LayerSpec::fromLabel("5_56_64_256_1");

    for (ScheduleCache* tier : {static_cast<ScheduleCache*>(store.get()),
                                &memory}) {
        const bool is_store = tier == store.get();
        const char* own = is_store ? kStore : kMemory;
        const char* other = is_store ? kMemory : kStore;
        const auto own_before = tierEvents(own);
        const auto other_before = tierEvents(other);
        tier->insert(a.key, a.result, a.layer); // insert
        ASSERT_TRUE(tier->lookup(a.key));       // hit
        ASSERT_FALSE(tier->lookup(b.key));      // miss
        EXPECT_EQ(tierEvents(own),
                  (std::vector<std::int64_t>{own_before[0] + 1,
                                             own_before[1] + 1,
                                             own_before[2] + 1}))
            << own;
        EXPECT_EQ(tierEvents(other), other_before) << own;

        // A neighbor hit counts in the in-memory family from either
        // tier, and moves no hit, miss or insert count.
        const std::int64_t neighbors_before = neighborHits();
        ASSERT_TRUE(tier->nearestNeighbor(a.key.arch_key, a.key.scheduler_key,
                                          a.key.evaluator_key, probe));
        EXPECT_EQ(neighborHits(), neighbors_before + 1) << own;
        EXPECT_EQ(tierEvents(own)[0], own_before[0] + 1) << own;
        EXPECT_EQ(tierEvents(other), other_before) << own;
    }
}

TEST(CachestoreStore, CompactionBoundsLogUnderChurn)
{
    TempDir dir("churn");
    StoreConfig config = fastConfig(dir.path());
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

    const ShardStats log = store->storeStats().shards[0];
    EXPECT_GT(log.compactions, 0);
    // The fold keeps dead weight below ~garbage_ratio x live (plus
    // the header and the records appended since the last fold).
    EXPECT_LT(log.log_bytes, log.live_bytes * 4 + 64 * 1024);

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
        auto store = openOrDie(fastConfig(dir.path()));
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

    auto revived = openOrDie(fastConfig(dir.path()));
    ASSERT_NE(revived, nullptr);
    EXPECT_EQ(revived->size(), 10u);
    EXPECT_FALSE(std::filesystem::exists(tmp));
}

TEST(CachestoreStore, TornShardTailRecoversOnReopen)
{
    TempDir dir("torntail");
    std::vector<ScheduleCache::ExportedEntry> entries;
    {
        auto store = openOrDie(fastConfig(dir.path()));
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

    auto revived = openOrDie(fastConfig(dir.path()));
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
    auto third = openOrDie(fastConfig(dir.path()));
    ASSERT_NE(third, nullptr);
    EXPECT_EQ(third->size(), entries.size());
    EXPECT_FALSE(third->storeStats().shards[0].torn_tail_recovered);
}

} // namespace
} // namespace cachestore
} // namespace cosa
