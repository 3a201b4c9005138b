#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "cachestore/snapshot.hpp"
#include "cachestore/store.hpp"
#include "engine/scheduler_service.hpp"
#include "service_test_util.hpp"

namespace cosa {
namespace {

using cachestore::exportSnapshot;
using cachestore::importSnapshot;
using test::scheduleLayer;
using test::scheduleNetwork;

/** Self-deleting temp path under the build dir. */
class TempFile
{
  public:
    explicit TempFile(const std::string& name)
        : path_("cosa_cache_test_" + name + ".txt")
    {
        std::remove(path_.c_str());
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

/** Self-deleting temp store directory under the build dir. */
class TempDir
{
  public:
    explicit TempDir(const std::string& name)
        : path_("cosa_cache_test_" + name)
    {
        std::filesystem::remove_all(path_);
    }
    ~TempDir() { std::filesystem::remove_all(path_); }
    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

/** The cheap Random request of these tests, on @p cache. */
ScheduleRequest
randomRequestOn(std::shared_ptr<ScheduleCache> cache)
{
    ScheduleRequest request = test::fastRandomRequest(2);
    request.cache = std::move(cache);
    return request;
}

TEST(ScheduleCachePersistence, RoundTripIsBitExact)
{
    TempFile file("roundtrip");
    const Workload net = workloads::resNet50();
    const ArchSpec arch = ArchSpec::simbaBaseline();

    auto cache = std::make_shared<ScheduleCache>();
    const NetworkResult original =
        scheduleNetwork(randomRequestOn(cache), net, arch);
    ASSERT_EQ(original.num_solved, 23);

    const auto saved = exportSnapshot(*cache, file.path());
    ASSERT_TRUE(saved.ok) << saved.error;
    EXPECT_EQ(saved.entries, 23);

    // A fresh process (fresh cache) revives every solve.
    auto revived = std::make_shared<ScheduleCache>();
    const auto loaded = importSnapshot(file.path(), *revived);
    ASSERT_TRUE(loaded.ok) << loaded.error;
    EXPECT_EQ(loaded.entries, 23);
    EXPECT_EQ(revived->stats().entries, 23);

    const NetworkResult replayed =
        scheduleNetwork(randomRequestOn(revived), net, arch);
    EXPECT_EQ(replayed.num_cache_hits, 23);
    EXPECT_EQ(replayed.num_solved, 0);
    ASSERT_EQ(replayed.layers.size(), original.layers.size());
    for (std::size_t l = 0; l < replayed.layers.size(); ++l) {
        EXPECT_EQ(replayed.layers[l].result.mapping,
                  original.layers[l].result.mapping);
        // Bit-exact doubles, not approximately equal: the file stores
        // max_digits10 decimals.
        EXPECT_EQ(replayed.layers[l].result.eval.cycles,
                  original.layers[l].result.eval.cycles);
        EXPECT_EQ(replayed.layers[l].result.eval.energy_pj,
                  original.layers[l].result.eval.energy_pj);
    }
    EXPECT_EQ(replayed.total_cycles, original.total_cycles);
    EXPECT_EQ(replayed.total_energy_pj, original.total_energy_pj);
}

TEST(ScheduleCachePersistence, PreservesEvaluatorPartitioning)
{
    TempFile file("evaluator");
    const LayerSpec layer = workloads::listing1Layer();
    const ArchSpec arch = ArchSpec::simbaBaseline();

    auto cache = std::make_shared<ScheduleCache>();
    ScheduleRequest analytical = randomRequestOn(cache);
    ScheduleRequest simulated = analytical;
    simulated.evaluator = std::make_shared<NocSimEvaluator>();
    scheduleLayer(analytical, layer, arch);
    scheduleLayer(simulated, layer, arch);
    ASSERT_EQ(cache->stats().entries, 2);
    ASSERT_TRUE(exportSnapshot(*cache, file.path()).ok);

    // After a reload, the analytical entry still never answers a
    // simulator-backed query (and vice versa): both requests hit their
    // own entry, neither solves.
    auto revived = std::make_shared<ScheduleCache>();
    ASSERT_TRUE(importSnapshot(file.path(), *revived).ok);
    analytical.cache = revived;
    simulated.cache = revived;
    const SearchResult a = scheduleLayer(analytical, layer, arch);
    const SearchResult s = scheduleLayer(simulated, layer, arch);
    EXPECT_EQ(revived->stats().hits, 2);
    EXPECT_EQ(revived->stats().misses, 0);
    EXPECT_EQ(revived->stats().entries, 2);
    // The simulated entry reports simulator cycles, the analytical one
    // model cycles — they stayed distinct through the file.
    EXPECT_NE(a.eval.cycles, s.eval.cycles);
}

TEST(ScheduleCachePersistence, RevivesNearestNeighborWarmStarts)
{
    TempDir dir("warmstart");
    const LayerSpec layer = LayerSpec::fromLabel("1_7_64_32_1");
    const ArchSpec arch = ArchSpec::simbaBaseline();
    cachestore::StoreConfig config;
    config.dir = dir.path();

    ScheduleRequest request; // CoSA, warm hints on
    request.max_parallelism = 1;
    request.cosa.mip.work_limit = 4000;
    {
        auto store = cachestore::PersistentScheduleCache::open(config);
        ASSERT_TRUE(store.ok()) << store.status().message();
        request.cache = store.value();
        ASSERT_TRUE(scheduleLayer(request, layer, arch).found);
        request.cache.reset(); // the first run ends and closes the store
    }

    // A later run reopens the store directory (the examples'
    // --cache-dir); a *similar* layer warm-starts from the revived
    // schedule.
    auto revived = cachestore::PersistentScheduleCache::open(config);
    ASSERT_TRUE(revived.ok()) << revived.status().message();
    EXPECT_EQ(revived.value()->size(), 1u);
    request.cache = revived.value();
    const SearchResult sibling =
        scheduleLayer(request, LayerSpec::fromLabel("1_7_64_64_1"), arch);
    ASSERT_TRUE(sibling.found);
    EXPECT_EQ(revived.value()->stats().neighbor_hits, 1);
    EXPECT_GE(sibling.stats.warm_starts_installed, 1);
}

TEST(ScheduleCachePersistence, RejectsWrongVersionAndMalformedFiles)
{
    TempFile file("badversion");
    ScheduleCache cache;
    // Only v3 loads: the retired v1/v2 headers are rejected like any
    // unknown version.
    for (const char* header : {"cosa-schedule-cache v999",
                               "cosa-schedule-cache v1",
                               "cosa-schedule-cache v2"}) {
        {
            std::ofstream out(file.path());
            out << header << "\ncapacity 0\n";
        }
        const auto wrong = importSnapshot(file.path(), cache);
        EXPECT_FALSE(wrong.ok) << header;
        EXPECT_NE(wrong.error.find("not a"), std::string::npos) << header;
        EXPECT_EQ(cache.stats().entries, 0);
    }

    // A v3 file must carry its capacity on line 2.
    {
        std::ofstream out(file.path());
        out << "cosa-schedule-cache v3\nentry\n";
    }
    const auto no_capacity = importSnapshot(file.path(), cache);
    EXPECT_FALSE(no_capacity.ok);
    EXPECT_NE(no_capacity.error.find("malformed capacity header"),
              std::string::npos);

    // A truncated record is no longer fatal: it is skipped (counted)
    // and the load as a whole succeeds with whatever survived.
    {
        std::ofstream out(file.path());
        out << "cosa-schedule-cache v3\n";
        out << "capacity 0\n";
        out << "entry\n";
        out << "key.layer l\n";
        out << "garbage\n";
    }
    const auto truncated = importSnapshot(file.path(), cache);
    EXPECT_TRUE(truncated.ok);
    EXPECT_EQ(truncated.entries, 0);
    EXPECT_EQ(truncated.skipped, 1);
    EXPECT_EQ(cache.stats().entries, 0);

    EXPECT_FALSE(importSnapshot("no_such_dir/no_such_file.txt", cache).ok);
}

TEST(ScheduleCachePersistence, LoadMergesIntoExistingEntries)
{
    TempFile file("merge");
    SearchResult found;
    found.found = true;
    found.eval.valid = true;
    found.eval.cycles = 7.0;
    found.scheduler = "Random";
    const LayerSpec layer = LayerSpec::fromLabel("1_7_32_16_1");

    ScheduleCache first;
    first.insert({layer.canonicalKey(), "archA", "s", "e"}, found, layer);
    ASSERT_TRUE(exportSnapshot(first, file.path()).ok);

    // The receiving cache already holds a different problem plus a
    // *newer* result under the same key; load keeps the merge simple
    // and lets the file win on collision (documented).
    ScheduleCache second;
    SearchResult newer = found;
    newer.eval.cycles = 9.0;
    second.insert({layer.canonicalKey(), "archA", "s", "e"}, newer, layer);
    second.insert({layer.canonicalKey(), "archB", "s", "e"}, found, layer);
    const auto io = importSnapshot(file.path(), second);
    ASSERT_TRUE(io.ok) << io.error;
    EXPECT_EQ(io.entries, 1);
    EXPECT_EQ(second.stats().entries, 2);
    const auto hit =
        second.lookup({layer.canonicalKey(), "archA", "s", "e"});
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->eval.cycles, 7.0);
}

} // namespace
} // namespace cosa
