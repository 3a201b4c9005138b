#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "cachestore/store.hpp"
#include "../engine/service_test_util.hpp"
#include "engine/scheduler_service.hpp"
#include "server/wire.hpp"

namespace cosa {
namespace {

// The store's acceptance bar: a fixed request produces *byte-identical*
// wire results no matter which cache tier sits behind the request —
// private in-memory map, fresh persistent store, warm reloaded store,
// or a store that just recovered a torn log tail.
// resultsToJson is the canonical deterministic serialization, so
// string equality here is bit-for-bit equality of every mapping and
// every double in the response.

class TempDir
{
  public:
    explicit TempDir(const std::string& name)
        : path_("cosa_cachestore_invariance_" + name)
    {
        std::filesystem::remove_all(path_);
    }
    ~TempDir() { std::filesystem::remove_all(path_); }
    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

std::string
runFixedRequest(const std::shared_ptr<ScheduleCache>& cache)
{
    ScheduleRequest request = test::fastRandomRequest(2);
    request.cache = cache;
    std::vector<NetworkResult> results;
    results.push_back(test::scheduleNetwork(
        std::move(request), workloads::resNet50(), ArchSpec::simbaBaseline()));
    return server::resultsToJson(results).dump();
}

cachestore::StoreConfig
storeConfig(const std::string& dir)
{
    cachestore::StoreConfig config;
    config.dir = dir;
    config.fsync_each_append = false;
    return config;
}

std::shared_ptr<cachestore::PersistentScheduleCache>
openStore(const cachestore::StoreConfig& config)
{
    auto opened = cachestore::PersistentScheduleCache::open(config);
    EXPECT_TRUE(opened.ok()) << opened.status().message();
    return opened.ok() ? *opened : nullptr;
}

TEST(CachestoreInvariance, EveryTierProducesIdenticalWireBytes)
{
    // Baseline: the plain in-memory cache.
    const std::string baseline =
        runFixedRequest(std::make_shared<ScheduleCache>());
    ASSERT_FALSE(baseline.empty());

    // A fresh store behaves like the empty base cache.
    TempDir dir1("one");
    {
        auto store = openStore(storeConfig(dir1.path()));
        ASSERT_NE(store, nullptr);
        EXPECT_EQ(runFixedRequest(store), baseline);
    }

    // Reopening the same directory replays the log; the warm store
    // answers from disk yet serializes the same bytes.
    {
        auto warm = openStore(storeConfig(dir1.path()));
        ASSERT_NE(warm, nullptr);
        EXPECT_GT(warm->size(), 0u);
        EXPECT_EQ(runFixedRequest(warm), baseline);
        const auto stats = warm->stats();
        EXPECT_GT(stats.hits, 0); // it really answered from the cache
    }

    // Tear the tail off the warm log: recovery drops the damaged
    // record, the service re-solves just that layer, and the response
    // bytes still match.
    const std::string log = dir1.path() + "/shard-0000.log";
    const auto size = std::filesystem::file_size(log);
    ASSERT_GT(size, 17u);
    std::filesystem::resize_file(log, size - 17);
    {
        auto torn = openStore(storeConfig(dir1.path()));
        ASSERT_NE(torn, nullptr);
        EXPECT_TRUE(
            torn->storeStats().shards[0].torn_tail_recovered);
        EXPECT_EQ(runFixedRequest(torn), baseline);
    }
}

} // namespace
} // namespace cosa
