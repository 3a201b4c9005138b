#include <gtest/gtest.h>

#include "mapper/exhaustive_mapper.hpp"
#include "mapper/hybrid_mapper.hpp"
#include "mapper/random_mapper.hpp"
#include "problem/workloads.hpp"

namespace cosa {
namespace {

TEST(RandomMapper, FindsValidSchedules)
{
    const LayerSpec layer = workloads::fig1Layer();
    const ArchSpec arch = ArchSpec::simbaBaseline();
    RandomMapper mapper;
    const SearchResult result = mapper.schedule(layer, arch);
    ASSERT_TRUE(result.found);
    EXPECT_TRUE(result.eval.valid);
    EXPECT_LE(result.stats.valid_evaluated, 5);
    EXPECT_GE(result.stats.samples, result.stats.valid_evaluated);
    EXPECT_TRUE(validateMapping(result.mapping, layer, arch).valid);
}

TEST(RandomMapper, DeterministicForSameSeed)
{
    const LayerSpec layer = workloads::fig1Layer();
    const ArchSpec arch = ArchSpec::simbaBaseline();
    RandomMapperConfig config;
    config.seed = 123;
    const SearchResult a = RandomMapper(config).schedule(layer, arch);
    const SearchResult b = RandomMapper(config).schedule(layer, arch);
    ASSERT_TRUE(a.found && b.found);
    EXPECT_EQ(a.eval.cycles, b.eval.cycles);
    EXPECT_EQ(a.mapping, b.mapping);
}

TEST(RandomMapper, SampleValidReturnsRequestedCount)
{
    const LayerSpec layer = workloads::fig1Layer();
    const ArchSpec arch = ArchSpec::simbaBaseline();
    RandomMapper mapper;
    const auto samples = mapper.sampleValid(layer, arch, 20, 100'000);
    EXPECT_EQ(samples.size(), 20u);
    for (const auto& [mapping, ev] : samples) {
        EXPECT_TRUE(ev.valid);
        EXPECT_GT(ev.cycles, 0.0);
    }
}

TEST(RandomMapper, ValidScheduleLatenciesSpreadWidely)
{
    // The Fig. 1 premise: valid schedules differ by a large factor.
    const LayerSpec layer = workloads::fig1Layer();
    const ArchSpec arch = ArchSpec::simbaBaseline();
    RandomMapper mapper;
    const auto samples = mapper.sampleValid(layer, arch, 100, 500'000);
    ASSERT_GE(samples.size(), 50u);
    double best = samples[0].second.cycles, worst = best;
    for (const auto& [mapping, ev] : samples) {
        best = std::min(best, ev.cycles);
        worst = std::max(worst, ev.cycles);
    }
    EXPECT_GT(worst / best, 3.0);
}

TEST(HybridMapper, BeatsOrMatchesRandom)
{
    const LayerSpec layer = LayerSpec::fromLabel("3_14_128_256_1");
    const ArchSpec arch = ArchSpec::simbaBaseline();
    HybridMapperConfig config;
    config.num_threads = 4;
    config.victory_condition = 150;
    HybridMapper hybrid(config);
    RandomMapper random;
    const SearchResult r_hybrid = hybrid.schedule(layer, arch);
    const SearchResult r_random = random.schedule(layer, arch);
    ASSERT_TRUE(r_hybrid.found && r_random.found);
    // The hybrid search evaluates orders of magnitude more candidates.
    EXPECT_GT(r_hybrid.stats.valid_evaluated,
              r_random.stats.valid_evaluated);
    EXPECT_LE(r_hybrid.eval.cycles, r_random.eval.cycles * 1.05);
    EXPECT_TRUE(validateMapping(r_hybrid.mapping, layer, arch).valid);
}

TEST(HybridMapper, RespectsTerminationCondition)
{
    const LayerSpec layer = LayerSpec::fromLabel("1_7_512_2048_1");
    const ArchSpec arch = ArchSpec::simbaBaseline();
    HybridMapperConfig config;
    config.num_threads = 2;
    config.victory_condition = 30;
    config.max_samples_per_thread = 50'000;
    HybridMapper hybrid(config);
    const SearchResult result = hybrid.schedule(layer, arch);
    EXPECT_TRUE(result.found);
    EXPECT_LT(result.stats.samples, 2 * config.max_samples_per_thread);
}

TEST(HybridMapper, ThreadCountIsBounded)
{
    // Only the check runs here: a search with an out-of-range count
    // would hold that many funnels and queue that many helper tasks.
    HybridMapperConfig config;
    for (int threads : {1, 8, kMaxHybridThreads}) {
        config.num_threads = threads;
        EXPECT_TRUE(config.checkBounds().ok()) << threads;
    }
    for (int threads : {-1, 0, kMaxHybridThreads + 1, 1 << 30}) {
        config.num_threads = threads;
        const Status bounds = config.checkBounds();
        EXPECT_EQ(bounds.code(), ErrorCode::kInvalidInput) << threads;
        EXPECT_NE(bounds.message().find("num_threads"), std::string::npos);
    }
}

TEST(ExhaustiveMapper, AgreesWithItselfAndValid)
{
    // Tiny layer so the assignment space stays enumerable.
    LayerSpec layer;
    layer.name = "tiny";
    layer.c = 4;
    layer.k = 2;
    layer.p = layer.q = 2;
    const ArchSpec arch = ArchSpec::simbaBaseline();
    ExhaustiveMapper mapper;
    const SearchResult result = mapper.schedule(layer, arch);
    ASSERT_TRUE(result.found);
    EXPECT_TRUE(validateMapping(result.mapping, layer, arch).valid);
    EXPECT_GT(result.stats.valid_evaluated, 0);
}

TEST(ExhaustiveMapper, RefusesSpacesPastMaxPointsTyped)
{
    // A full-size layer is refused with a typed cause, not enumerated
    // for hours; so is a tiny one past a lowered max_points.
    const ArchSpec arch = ArchSpec::simbaBaseline();
    LayerSpec tiny;
    tiny.name = "tiny";
    tiny.c = 4;
    tiny.k = 2;
    tiny.p = tiny.q = 2;
    ExhaustiveMapperConfig one_point;
    one_point.max_points = 1;
    for (const SearchResult& refused :
         {ExhaustiveMapper().schedule(LayerSpec::fromLabel("7_112_3_64_2"),
                                      arch),
          ExhaustiveMapper(one_point).schedule(tiny, arch)}) {
        EXPECT_FALSE(refused.found);
        EXPECT_EQ(refused.stats.samples, 0);
        EXPECT_EQ(refused.status.code(), ErrorCode::kInvalidInput);
        EXPECT_NE(refused.status.message().find("max_points"),
                  std::string::npos);
    }
}

TEST(ExhaustiveMapper, OracleBoundsOtherSchedulers)
{
    // On a tiny layer no scheduler may beat the exhaustive optimum.
    LayerSpec layer;
    layer.name = "tiny2";
    layer.c = 8;
    layer.k = 2;
    layer.p = layer.q = 2;
    const ArchSpec arch = ArchSpec::simbaBaseline();
    ExhaustiveMapper exhaustive;
    RandomMapper random;
    const SearchResult best = exhaustive.schedule(layer, arch);
    const SearchResult rnd = random.schedule(layer, arch);
    ASSERT_TRUE(best.found);
    if (rnd.found)
        EXPECT_GE(rnd.eval.cycles, best.eval.cycles * 0.999);
}

TEST(SearchObjective, ObjectiveValueSelectsMetric)
{
    Evaluation ev;
    ev.cycles = 10.0;
    ev.energy_pj = 5.0;
    EXPECT_DOUBLE_EQ(objectiveValue(ev, SearchObjective::Latency), 10.0);
    EXPECT_DOUBLE_EQ(objectiveValue(ev, SearchObjective::Energy), 5.0);
    EXPECT_DOUBLE_EQ(objectiveValue(ev, SearchObjective::Edp), 50.0);
}

} // namespace
} // namespace cosa
