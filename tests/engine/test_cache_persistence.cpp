#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "cachestore/store.hpp"
#include "engine/scheduler_service.hpp"
#include "service_test_util.hpp"

namespace cosa {
namespace {

using test::scheduleLayer;

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

TEST(ScheduleCachePersistence, PreservesEvaluatorPartitioning)
{
    TempDir dir("evaluator");
    const LayerSpec layer = workloads::listing1Layer();
    const ArchSpec arch = ArchSpec::simbaBaseline();
    cachestore::StoreConfig config;
    config.dir = dir.path();

    ScheduleRequest analytical = test::fastRandomRequest(2);
    ScheduleRequest simulated = analytical;
    simulated.evaluator = std::make_shared<NocSimEvaluator>();
    {
        auto store = cachestore::PersistentScheduleCache::open(config);
        ASSERT_TRUE(store.ok()) << store.status().message();
        analytical.cache = store.value();
        simulated.cache = store.value();
        scheduleLayer(analytical, layer, arch);
        scheduleLayer(simulated, layer, arch);
        ASSERT_EQ(store.value()->stats().entries, 2);
        // The first run ends and closes the store.
        analytical.cache.reset();
        simulated.cache.reset();
    }

    // After a reopen, the analytical entry still never answers a
    // simulator-backed query (and vice versa): both requests hit their
    // own entry, neither solves.
    auto revived = cachestore::PersistentScheduleCache::open(config);
    ASSERT_TRUE(revived.ok()) << revived.status().message();
    analytical.cache = revived.value();
    simulated.cache = revived.value();
    const SearchResult a = scheduleLayer(analytical, layer, arch);
    const SearchResult s = scheduleLayer(simulated, layer, arch);
    EXPECT_EQ(revived.value()->stats().hits, 2);
    EXPECT_EQ(revived.value()->stats().misses, 0);
    EXPECT_EQ(revived.value()->stats().entries, 2);
    // The simulated entry reports simulator cycles, the analytical one
    // model cycles — they stayed distinct through the log.
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

} // namespace
} // namespace cosa
