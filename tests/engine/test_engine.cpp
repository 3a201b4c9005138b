#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "engine/scheduler_service.hpp"
#include "service_test_util.hpp"

namespace cosa {
namespace {

using test::fastRandomRequest;
using test::scheduleLayer;
using test::scheduleNetwork;
using test::SetLatch;

TEST(Executor, RunsEveryTaskOfEverySetOnce)
{
    // Per case, one executor runs a pair of sets (two tiers) for each
    // size in turn: widths from a lone worker up to more workers than
    // tasks, and an empty pair after a tiny one.
    struct Case
    {
        int threads;
        std::vector<std::size_t> sizes;
    };
    const std::vector<Case> cases = {
        {4, {64, 100}}, {1, {100}}, {2, {100}}, {7, {100}}, {8, {2, 0}}};
    for (const Case& c : cases) {
        SCOPED_TRACE(std::to_string(c.threads) + " threads");
        Executor executor(c.threads);
        std::int64_t tasks = 0;
        for (const std::size_t n : c.sizes) {
            // at(): a stray index throws instead of corrupting memory;
            // the executor contains it and tasks_executed counts it.
            std::vector<std::atomic<int>> hits_a(n), hits_b(n);
            SetLatch latch;
            executor.submit(
                n, [&](std::size_t i) { ++hits_a.at(i); }, latch.track());
            Executor::TaskSetOptions batch;
            batch.tier = JobPriority::Batch;
            executor.submit(
                n, [&](std::size_t i) { ++hits_b.at(i); },
                latch.track(batch));
            latch.wait();
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_EQ(hits_a[i].load(), 1) << "task " << i << " of " << n;
                EXPECT_EQ(hits_b[i].load(), 1) << "task " << i << " of " << n;
            }
            tasks += static_cast<std::int64_t>(2 * n);
        }
        const ExecutorStats stats = executor.stats();
        const auto sets = static_cast<std::int64_t>(2 * c.sizes.size());
        EXPECT_EQ(stats.tasks_executed, tasks);
        EXPECT_EQ(stats.sets_submitted, sets);
        EXPECT_EQ(stats.sets_completed, sets);
    }
}

TEST(Executor, MaxParallelismOneRunsInIndexOrder)
{
    Executor executor(4);
    std::mutex mutex;
    std::vector<std::size_t> order;
    Executor::TaskSetOptions options;
    options.max_parallelism = 1;
    SetLatch latch;
    executor.submit(
        32,
        [&](std::size_t i) {
            std::lock_guard<std::mutex> lock(mutex);
            order.push_back(i);
        },
        latch.track(options));
    latch.wait();
    ASSERT_EQ(order.size(), 32u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(Executor, EmptySetCompletesImmediately)
{
    Executor executor(2);
    bool completed = false;
    Executor::TaskSetOptions options;
    options.on_complete = [&] { completed = true; };
    executor.submit(
        0, [](std::size_t) { FAIL() << "no tasks to run"; }, options);
    EXPECT_TRUE(completed) << "an empty set completes inside submit()";
}

TEST(Executor, DestructorDrainsPendingSets)
{
    const std::size_t n = 40;
    std::vector<std::atomic<int>> hits(n);
    {
        Executor executor(3);
        executor.submit(n, [&](std::size_t i) { ++hits[i]; }, {});
        // No wait: destruction must finish the submitted work.
    }
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1);
}

TEST(ScheduleCache, CountsHitsAndMisses)
{
    ScheduleCache cache;
    const ScheduleCacheKey key{"layer", "arch", "sched"};
    EXPECT_FALSE(cache.lookup(key).has_value());
    SearchResult result;
    result.found = true;
    result.eval.cycles = 42.0;
    cache.insert(key, result, LayerSpec::fromLabel("3_14_256_256_1"));
    EXPECT_TRUE(cache.contains(key));
    const auto hit = cache.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->eval.cycles, 42.0);
    const ScheduleCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1);
    EXPECT_EQ(stats.misses, 1);
    EXPECT_EQ(stats.entries, 1);
    EXPECT_DOUBLE_EQ(stats.hitRate(), 0.5);
}

TEST(ScheduleCache, KeySeparatesComponents)
{
    ScheduleCache cache;
    SearchResult result;
    cache.insert({"l1", "a1", "s1", "e1"}, result, LayerSpec{});
    EXPECT_TRUE(cache.contains({"l1", "a1", "s1", "e1"}));
    EXPECT_FALSE(cache.contains({"l2", "a1", "s1", "e1"}));
    EXPECT_FALSE(cache.contains({"l1", "a2", "s1", "e1"}));
    EXPECT_FALSE(cache.contains({"l1", "a1", "s2", "e1"}));
    EXPECT_FALSE(cache.contains({"l1", "a1", "s1", "e2"}));
    EXPECT_FALSE(cache.contains({"l1", "a1", "s1"})); // "" evaluator
}

TEST(ScheduleCache, NearestNeighborFiltersByEvaluator)
{
    ScheduleCache cache;
    SearchResult found;
    found.found = true;
    found.eval.cycles = 11.0;
    const LayerSpec near = LayerSpec::fromLabel("3_14_256_512_1");
    cache.insert({near.canonicalKey(), "arch", "s", "analytical/v1"},
                 found, near);

    const LayerSpec target = LayerSpec::fromLabel("3_14_256_256_1");
    EXPECT_TRUE(
        cache.nearestNeighbor("arch", "s", "analytical/v1", target)
            .has_value());
    // A different evaluation backend shares nothing — an analytical
    // schedule must never seed (or answer) a simulator-backed query.
    EXPECT_FALSE(
        cache.nearestNeighbor("arch", "s", "nocsim/v1", target)
            .has_value());
}

TEST(CanonicalKey, IgnoresNameButNotShape)
{
    LayerSpec a = LayerSpec::fromLabel("3_14_256_256_1");
    LayerSpec b = a;
    b.name = "renamed";
    EXPECT_EQ(a.canonicalKey(), b.canonicalKey());

    LayerSpec c = a;
    c.stride = 2;
    EXPECT_NE(a.canonicalKey(), c.canonicalKey());
    LayerSpec d = a;
    d.n = 4;
    EXPECT_NE(a.canonicalKey(), d.canonicalKey());
}

TEST(ArchFingerprint, SeparatesVariantsIgnoresName)
{
    const ArchSpec base = ArchSpec::simbaBaseline();
    ArchSpec renamed = base;
    renamed.name = "other-name";
    EXPECT_EQ(base.fingerprint(), renamed.fingerprint());
    EXPECT_NE(base.fingerprint(), ArchSpec::simba8x8().fingerprint());
    EXPECT_NE(base.fingerprint(),
              ArchSpec::simbaBigBuffers().fingerprint());
}

TEST(Workloads, ResNet50FullHas53InstancesOf23Shapes)
{
    const Workload full = workloads::resNet50Full();
    EXPECT_EQ(full.layers.size(), 53u);
    std::set<std::string> unique_keys;
    for (const LayerSpec& layer : full.layers)
        unique_keys.insert(layer.canonicalKey());
    EXPECT_EQ(unique_keys.size(), 23u);
    // The unique shapes are exactly those of the 23-shape workload.
    std::set<std::string> reference_keys;
    for (const LayerSpec& layer : workloads::resNet50().layers)
        reference_keys.insert(layer.canonicalKey());
    EXPECT_EQ(unique_keys, reference_keys);
}

TEST(NetworkScheduling, DedupSolvesResNet50FullExactly23Times)
{
    auto cache = std::make_shared<ScheduleCache>();
    ScheduleRequest request = fastRandomRequest(2);
    request.cache = cache;
    const NetworkResult result = scheduleNetwork(
        request, workloads::resNet50Full(), ArchSpec::simbaBaseline());

    EXPECT_EQ(result.num_layers, 53);
    EXPECT_EQ(result.num_unique, 23);
    EXPECT_EQ(result.num_solved, 23);
    EXPECT_EQ(result.num_cache_hits, 0);
    EXPECT_EQ(static_cast<int>(result.layers.size()), 53);

    // The cache counters certify 23 solves: every unique shape missed
    // once (then was inserted); no other lookups happened.
    const ScheduleCacheStats stats = cache->stats();
    EXPECT_EQ(stats.misses, 23);
    EXPECT_EQ(stats.hits, 0);
    EXPECT_EQ(stats.entries, 23);

    // Duplicate instances carry their first occurrence's result.
    for (const LayerScheduleResult& lr : result.layers) {
        ASSERT_GE(lr.unique_index, 0);
        ASSERT_LT(lr.unique_index, 23);
        const LayerScheduleResult& first =
            *std::find_if(result.layers.begin(), result.layers.end(),
                          [&](const LayerScheduleResult& other) {
                              return other.unique_index ==
                                     lr.unique_index;
                          });
        EXPECT_EQ(lr.result.mapping, first.result.mapping);
        EXPECT_EQ(lr.deduplicated, &lr != &first);
    }

    // A repeated query is served entirely from the cache.
    const NetworkResult again = scheduleNetwork(
        request, workloads::resNet50Full(), ArchSpec::simbaBaseline());
    EXPECT_EQ(again.num_cache_hits, 23);
    EXPECT_EQ(again.num_solved, 0);
    EXPECT_EQ(cache->stats().hits, 23);
    for (std::size_t l = 0; l < again.layers.size(); ++l) {
        EXPECT_TRUE(again.layers[l].from_cache ||
                    again.layers[l].deduplicated);
        EXPECT_EQ(again.layers[l].result.mapping,
                  result.layers[l].result.mapping);
    }
    EXPECT_DOUBLE_EQ(again.total_cycles, result.total_cycles);
    EXPECT_DOUBLE_EQ(again.total_energy_pj, result.total_energy_pj);
}

TEST(NetworkScheduling, DedupOffSolvesEveryInstance)
{
    auto cache = std::make_shared<ScheduleCache>();
    ScheduleRequest request = fastRandomRequest(2);
    request.cache = cache;
    request.deduplicate = false;
    request.use_cache = false;
    const NetworkResult result = scheduleNetwork(
        request, workloads::resNet50Full(), ArchSpec::simbaBaseline());
    EXPECT_EQ(result.num_layers, 53);
    EXPECT_EQ(result.num_unique, 53);
    EXPECT_EQ(result.num_solved, 53);
    EXPECT_EQ(cache->stats().misses, 0); // cache never touched
}

TEST(NetworkScheduling, ParallelRunMatchesSerialRunExactly)
{
    const Workload net = workloads::resNet50Full();
    const ArchSpec arch = ArchSpec::simbaBaseline();

    const NetworkResult r1 = scheduleNetwork(fastRandomRequest(1), net, arch);
    const NetworkResult rn = scheduleNetwork(fastRandomRequest(4), net, arch);

    ASSERT_EQ(r1.layers.size(), rn.layers.size());
    for (std::size_t l = 0; l < r1.layers.size(); ++l) {
        EXPECT_EQ(r1.layers[l].result.mapping,
                  rn.layers[l].result.mapping)
            << "layer " << r1.layers[l].layer.name;
        EXPECT_EQ(r1.layers[l].result.found, rn.layers[l].result.found);
        // Evaluations must be byte-identical, not approximately equal:
        // the same mapping through the same model is pure arithmetic.
        EXPECT_EQ(r1.layers[l].result.eval.cycles,
                  rn.layers[l].result.eval.cycles);
        EXPECT_EQ(r1.layers[l].result.eval.energy_pj,
                  rn.layers[l].result.eval.energy_pj);
        EXPECT_EQ(r1.layers[l].unique_index, rn.layers[l].unique_index);
        EXPECT_EQ(r1.layers[l].deduplicated, rn.layers[l].deduplicated);
    }
    EXPECT_EQ(r1.total_cycles, rn.total_cycles);
    EXPECT_EQ(r1.total_energy_pj, rn.total_energy_pj);
    EXPECT_EQ(r1.num_unique, rn.num_unique);
    EXPECT_EQ(r1.num_solved, rn.num_solved);
    EXPECT_EQ(r1.search.samples, rn.search.samples);
    EXPECT_EQ(r1.search.valid_evaluated, rn.search.valid_evaluated);
}

TEST(NetworkScheduling, ArchSweepPartitionsAndReusesCache)
{
    // One shared cache across the sweep, as an arch exploration would.
    auto cache = std::make_shared<ScheduleCache>();
    ScheduleRequest request = fastRandomRequest(2);
    request.cache = cache;
    const Workload net = workloads::resNet50();

    scheduleNetwork(request, net, ArchSpec::simbaBaseline());
    EXPECT_EQ(cache->stats().misses, 23);
    EXPECT_EQ(cache->stats().hits, 0);

    // A different arch fingerprint shares nothing: all misses again.
    scheduleNetwork(request, net, ArchSpec::simba8x8());
    EXPECT_EQ(cache->stats().misses, 46);
    EXPECT_EQ(cache->stats().hits, 0);
    EXPECT_EQ(cache->stats().entries, 46);

    // Revisiting a swept arch is free: all hits, no new entries.
    const NetworkResult back =
        scheduleNetwork(request, net, ArchSpec::simbaBaseline());
    EXPECT_EQ(back.num_cache_hits, 23);
    EXPECT_EQ(back.num_solved, 0);
    EXPECT_EQ(cache->stats().hits, 23);
    EXPECT_EQ(cache->stats().misses, 46);
    EXPECT_EQ(cache->stats().entries, 46);
}

TEST(NetworkScheduling, SchedulerConfigPartitionsCache)
{
    auto cache = std::make_shared<ScheduleCache>();
    ScheduleRequest a = fastRandomRequest(1);
    a.cache = cache;
    ScheduleRequest b = a;
    b.random.seed = a.random.seed + 1;
    EXPECT_NE(schedulerConfigKey(a), schedulerConfigKey(b));

    const LayerSpec layer = workloads::listing1Layer();
    const ArchSpec arch = ArchSpec::simbaBaseline();
    scheduleLayer(a, layer, arch);
    scheduleLayer(b, layer, arch);
    EXPECT_EQ(cache->stats().misses, 2); // no false sharing
    EXPECT_EQ(cache->stats().entries, 2);
}

TEST(NetworkScheduling, DefaultSchedulerConfigKeyIsByteStable)
{
    // Every stored cachestore record keys on these bytes; a change
    // here turns all of them into misses.
    EXPECT_EQ(schedulerConfigKey(ScheduleRequest{}),
              "CoSA/0/wh1/cosa(0,1,1,1,0.050000000000000003,[],30,25000,"
              "0.0050000000000000001,9.9999999999999995e-07,2000000,1,1)");
}

TEST(NetworkScheduling, EvaluatorFingerprintPartitionsCache)
{
    // Same layer, arch and scheduler config — only the evaluation
    // backend differs. The shared cache must keep the results apart:
    // an entry solved under the analytical model is never served to a
    // simulator-backed request (whose cycles mean something else).
    auto cache = std::make_shared<ScheduleCache>();
    ScheduleRequest analytical = fastRandomRequest(1);
    analytical.cache = cache;
    analytical.evaluator = std::make_shared<AnalyticalEvaluator>();
    ScheduleRequest simulated = analytical;
    simulated.evaluator = std::make_shared<NocSimEvaluator>();
    ASSERT_EQ(schedulerConfigKey(analytical), schedulerConfigKey(simulated));
    EXPECT_NE(analytical.evaluator->fingerprint(),
              simulated.evaluator->fingerprint());

    const LayerSpec layer = workloads::listing1Layer();
    const ArchSpec arch = ArchSpec::simbaBaseline();
    const SearchResult a1 = scheduleLayer(analytical, layer, arch);
    EXPECT_EQ(cache->stats().misses, 1);
    const SearchResult s1 = scheduleLayer(simulated, layer, arch);
    EXPECT_EQ(cache->stats().misses, 2); // no false hit across backends
    EXPECT_EQ(cache->stats().entries, 2);

    // Each backend re-queries its own entry.
    scheduleLayer(analytical, layer, arch);
    scheduleLayer(simulated, layer, arch);
    EXPECT_EQ(cache->stats().hits, 2);
    EXPECT_EQ(cache->stats().entries, 2);

    // Same search, different platforms: the winning mapping coincides
    // (both searches prune analytically) but the simulated cycles are
    // the simulator's, not the model's.
    ASSERT_TRUE(a1.found);
    ASSERT_TRUE(s1.found);
    EXPECT_EQ(a1.mapping, s1.mapping);
    const SimResult sim = ScheduleSimulator(layer, arch).simulate(s1.mapping);
    ASSERT_TRUE(sim.ok);
    EXPECT_EQ(s1.eval.cycles, static_cast<double>(sim.cycles));
}

TEST(NetworkScheduling, OneLayerQueryFindsValidSchedule)
{
    const SearchResult result =
        scheduleLayer(fastRandomRequest(1), workloads::listing1Layer(),
                      ArchSpec::simbaBaseline());
    ASSERT_TRUE(result.found);
    EXPECT_GT(result.eval.cycles, 0.0);
    const ValidationResult valid =
        validateMapping(result.mapping, workloads::listing1Layer(),
                        ArchSpec::simbaBaseline());
    EXPECT_TRUE(valid.valid) << valid.reason;
}

TEST(ScheduleCache, NearestNeighborRanksByShapeThenArch)
{
    ScheduleCache cache;
    SearchResult found;
    found.found = true;
    const LayerSpec a = LayerSpec::fromLabel("3_14_256_256_1");
    const LayerSpec b = LayerSpec::fromLabel("3_14_256_512_1"); // near a
    const LayerSpec c = LayerSpec::fromLabel("7_112_3_64_2");   // far
    cache.insert({c.canonicalKey(), "arch1", "s"}, found, c);
    cache.insert({b.canonicalKey(), "arch1", "s"}, found, b);

    // Nearest shape wins regardless of insertion order.
    found.eval.cycles = 1.0;
    const auto nn = cache.nearestNeighbor("arch1", "s", "", a);
    ASSERT_TRUE(nn.has_value());
    // Distinguish entries via a marker on b's result.
    SearchResult marked = found;
    marked.eval.cycles = 123.0;
    cache.insert({b.canonicalKey(), "arch1", "s"}, marked, b);
    const auto nn2 = cache.nearestNeighbor("arch1", "s", "", a);
    ASSERT_TRUE(nn2.has_value());
    EXPECT_EQ(nn2->eval.cycles, 123.0);

    // The same layer on another arch (distance 0) beats a different
    // shape on the same arch — the arch-sweep seeding case.
    SearchResult other_arch = found;
    other_arch.eval.cycles = 77.0;
    cache.insert({a.canonicalKey(), "arch2", "s"}, other_arch, a);
    const auto nn3 = cache.nearestNeighbor("arch1", "s", "", a);
    ASSERT_TRUE(nn3.has_value());
    EXPECT_EQ(nn3->eval.cycles, 77.0);

    // The exact (layer, arch) pair is never its own neighbor, and a
    // different scheduler key shares nothing.
    cache.insert({a.canonicalKey(), "arch1", "s"}, marked, a);
    const auto nn4 = cache.nearestNeighbor("arch1", "s", "", a);
    ASSERT_TRUE(nn4.has_value());
    EXPECT_EQ(nn4->eval.cycles, 77.0); // still the arch2 twin, not self
    EXPECT_FALSE(cache.nearestNeighbor("arch1", "other", "", a).has_value());
    EXPECT_EQ(cache.stats().neighbor_hits, 4);
}

TEST(NetworkScheduling, CosaArchSweepInstallsAndCountsWarmStarts)
{
    auto cache = std::make_shared<ScheduleCache>();
    ScheduleRequest request; // CoSA with warm hints on by default
    request.max_parallelism = 1;
    request.cosa.mip.work_limit = 4000; // keep the test fast
    request.cache = cache;
    const LayerSpec layer = LayerSpec::fromLabel("1_7_64_32_1");

    const SearchResult first =
        scheduleLayer(request, layer, ArchSpec::simbaBaseline());
    ASSERT_TRUE(first.found);
    EXPECT_EQ(cache->stats().neighbor_hits, 0); // cold cache

    // Second arch: the baseline schedule is the nearest neighbor
    // (distance 0, different fingerprint) and big buffers can only
    // relax capacity, so the refit start must be accepted.
    const SearchResult second =
        scheduleLayer(request, layer, ArchSpec::simbaBigBuffers());
    ASSERT_TRUE(second.found);
    EXPECT_EQ(cache->stats().neighbor_hits, 1);
    EXPECT_GE(second.stats.warm_start_hits, 1);

    // A similar shape on the first arch warm-starts from the original.
    const SearchResult sibling =
        scheduleLayer(request, LayerSpec::fromLabel("1_7_64_64_1"),
                      ArchSpec::simbaBaseline());
    ASSERT_TRUE(sibling.found);
    EXPECT_EQ(cache->stats().neighbor_hits, 2);

    // Warm hints off: no neighbor lookups happen.
    ScheduleRequest off = request;
    off.warm_start_hints = false;
    off.cache = std::make_shared<ScheduleCache>();
    scheduleLayer(off, layer, ArchSpec::simbaBaseline());
    scheduleLayer(off, layer, ArchSpec::simbaBigBuffers());
    EXPECT_EQ(off.cache->stats().neighbor_hits, 0);
}

} // namespace
} // namespace cosa
