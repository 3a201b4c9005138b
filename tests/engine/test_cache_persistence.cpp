#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "engine/scheduler_service.hpp"
#include "service_test_util.hpp"

namespace cosa {
namespace {

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

    const auto saved = cache->save(file.path());
    ASSERT_TRUE(saved.ok) << saved.error;
    EXPECT_EQ(saved.entries, 23);

    // A fresh process (fresh cache) revives every solve.
    auto revived = std::make_shared<ScheduleCache>();
    const auto loaded = revived->load(file.path());
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

TEST(ScheduleCachePersistence, RoundTripsLruCapacity)
{
    TempFile file("capacity");
    const Workload net = workloads::resNet50();
    const ArchSpec arch = ArchSpec::simbaBaseline();

    auto cache = std::make_shared<ScheduleCache>(/*capacity=*/5);
    scheduleNetwork(randomRequestOn(cache), net, arch);
    ASSERT_EQ(cache->size(), 5u);
    const auto saved = cache->save(file.path());
    ASSERT_TRUE(saved.ok) << saved.error;
    EXPECT_EQ(saved.entries, 5);

    // A fresh default-constructed cache (the reload path that used to
    // silently come back unbounded) adopts the persisted bound.
    ScheduleCache revived;
    const auto loaded = revived.load(file.path());
    ASSERT_TRUE(loaded.ok) << loaded.error;
    EXPECT_EQ(loaded.entries, 5);
    EXPECT_EQ(revived.capacity(), 5);
    EXPECT_EQ(revived.size(), 5u);

    // An explicitly bounded destination keeps its own (tighter) bound
    // and the merge respects it, counting the evictions.
    ScheduleCache bounded(3);
    const auto merged = bounded.load(file.path());
    ASSERT_TRUE(merged.ok) << merged.error;
    EXPECT_EQ(bounded.capacity(), 3);
    EXPECT_EQ(bounded.size(), 3u);
    EXPECT_EQ(bounded.stats().evictions, 2);
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
    ASSERT_TRUE(cache->save(file.path()).ok);

    // After a reload, the analytical entry still never answers a
    // simulator-backed query (and vice versa): both requests hit their
    // own entry, neither solves.
    auto revived = std::make_shared<ScheduleCache>();
    ASSERT_TRUE(revived->load(file.path()).ok);
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
    TempFile file("warmstart");
    const LayerSpec layer = LayerSpec::fromLabel("1_7_64_32_1");
    const ArchSpec arch = ArchSpec::simbaBaseline();

    ScheduleRequest request; // CoSA, warm hints on
    request.max_parallelism = 1;
    request.cosa.mip.work_limit = 4000;
    {
        auto cache = std::make_shared<ScheduleCache>();
        request.cache = cache;
        ASSERT_TRUE(scheduleLayer(request, layer, arch).found);
        ASSERT_TRUE(cache->save(file.path()).ok);
    }

    // A later run loads the snapshot; a *similar* layer warm-starts
    // from the revived schedule (the cross-layer revival ROADMAP asks
    // persistence to enable).
    auto revived = std::make_shared<ScheduleCache>();
    ASSERT_TRUE(revived->load(file.path()).ok);
    request.cache = revived;
    const SearchResult sibling =
        scheduleLayer(request, LayerSpec::fromLabel("1_7_64_64_1"), arch);
    ASSERT_TRUE(sibling.found);
    EXPECT_EQ(revived->stats().neighbor_hits, 1);
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
        const auto wrong = cache.load(file.path());
        EXPECT_FALSE(wrong.ok) << header;
        EXPECT_NE(wrong.error.find("not a"), std::string::npos) << header;
        EXPECT_EQ(cache.stats().entries, 0);
    }

    // A v3 file must carry its capacity on line 2.
    {
        std::ofstream out(file.path());
        out << "cosa-schedule-cache v3\nentry\n";
    }
    const auto no_capacity = cache.load(file.path());
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
    const auto truncated = cache.load(file.path());
    EXPECT_TRUE(truncated.ok);
    EXPECT_EQ(truncated.entries, 0);
    EXPECT_EQ(truncated.skipped, 1);
    EXPECT_EQ(cache.stats().entries, 0);

    EXPECT_FALSE(cache.load("no_such_dir/no_such_file.txt").ok);
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
    ASSERT_TRUE(first.save(file.path()).ok);

    // The receiving cache already holds a different problem plus a
    // *newer* result under the same key; load keeps the merge simple
    // and lets the file win on collision (documented).
    ScheduleCache second;
    SearchResult newer = found;
    newer.eval.cycles = 9.0;
    second.insert({layer.canonicalKey(), "archA", "s", "e"}, newer, layer);
    second.insert({layer.canonicalKey(), "archB", "s", "e"}, found, layer);
    const auto io = second.load(file.path());
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
