#include <gtest/gtest.h>

#include "cosa/formulation.hpp"
#include "cosa/greedy.hpp"
#include "cosa/scheduler.hpp"
#include "model/analytical_model.hpp"
#include "problem/workloads.hpp"

namespace cosa {
namespace {

CosaConfig
fastConfig()
{
    CosaConfig config;
    // A small deterministic work budget instead of a wall-clock cap:
    // results are then identical on loaded CI runners and fast hosts.
    config.mip.work_limit = 6000;
    config.mip.time_limit_sec = 20.0;
    return config;
}

TEST(Greedy, AlwaysValidAcrossWorkloads)
{
    const ArchSpec arch = ArchSpec::simbaBaseline();
    for (const auto& suite : workloads::allSuites()) {
        for (const auto& layer : suite.layers) {
            const Mapping m = greedyMapping(layer, arch);
            const auto vr = validateMapping(m, layer, arch);
            EXPECT_TRUE(vr.valid) << layer.name << ": " << vr.reason;
        }
    }
}

TEST(Greedy, ValidOnArchVariants)
{
    const LayerSpec layer = workloads::fig8Layer();
    for (const ArchSpec& arch :
         {ArchSpec::simba8x8(), ArchSpec::simbaBigBuffers()}) {
        const Mapping m = greedyMapping(layer, arch);
        EXPECT_TRUE(validateMapping(m, layer, arch).valid) << arch.name;
    }
}

TEST(Greedy, UsesSpatialResources)
{
    const ArchSpec arch = ArchSpec::simbaBaseline();
    const Mapping m = greedyMapping(workloads::fig8Layer(), arch);
    // Both spatial groups should be heavily used on a big layer.
    for (const auto& group : arch.spatial_groups)
        EXPECT_GT(m.spatialProductInGroup(group), group.fanout / 4)
            << group.name;
}

TEST(CosaFormulation, ModelHasExpectedShape)
{
    const LayerSpec layer = workloads::fig8Layer();
    const ArchSpec arch = ArchSpec::simbaBaseline();
    CosaFormulation form(layer, arch, fastConfig());
    EXPECT_GT(form.model().numVars(), 100);
    EXPECT_GT(form.model().numConstrs(), 100);
    // 3_7_512_512_1: R,S have one factor each; P,Q one; C,K nine twos.
    EXPECT_EQ(form.pool().size(), 22);
}

TEST(CosaFormulation, RelaxationFeasibleForEveryResNetLayer)
{
    const ArchSpec arch = ArchSpec::simbaBaseline();
    for (const auto& layer : workloads::resNet50().layers) {
        CosaFormulation form(layer, arch, fastConfig());
        const auto relax = form.model().optimizeRelaxation();
        EXPECT_EQ(relax.status, solver::Status::Optimal) << layer.name;
    }
}

TEST(CosaFormulation, EncodeRoundTripScoresGreedy)
{
    const LayerSpec layer = workloads::fig8Layer();
    const ArchSpec arch = ArchSpec::simbaBaseline();
    CosaFormulation form(layer, arch, fastConfig());
    const Mapping greedy = greedyMapping(layer, arch);
    const auto values = form.encodeMapping(greedy);
    // All objective terms must be finite and the composite consistent.
    const double util = form.utilObjective(values);
    const double comp = form.compObjective(values);
    const double traf = form.trafObjective(values);
    EXPECT_GT(util, 0.0);
    EXPECT_GT(comp, 0.0);
    EXPECT_GT(traf, 0.0);
    EXPECT_NEAR(form.totalObjective(values), -util + comp + traf, 1e-9);
}

TEST(CosaFormulation, ExtractedMappingRoundTripsThroughEncode)
{
    const LayerSpec layer = LayerSpec::fromLabel("3_14_128_256_1");
    const ArchSpec arch = ArchSpec::simbaBaseline();
    CosaConfig config = fastConfig();
    CosaFormulation form(layer, arch, config);
    solver::MipResult mip;
    const auto mapping = form.solve(&mip);
    ASSERT_TRUE(mapping.has_value());
    const auto values = form.encodeMapping(*mapping);
    const Mapping again = form.extractMapping(values);
    for (Dim d : kAllDims)
        EXPECT_EQ(again.totalBound(d), mapping->totalBound(d));
}

TEST(CosaScheduler, FindsValidScheduleQuickly)
{
    const LayerSpec layer = LayerSpec::fromLabel("3_14_128_256_1");
    const ArchSpec arch = ArchSpec::simbaBaseline();
    CosaScheduler scheduler(fastConfig());
    const SearchResult result = scheduler.schedule(layer, arch);
    ASSERT_TRUE(result.found);
    EXPECT_TRUE(result.eval.valid);
    EXPECT_EQ(result.stats.samples, 1);
    EXPECT_EQ(result.stats.valid_evaluated, 1);
    EXPECT_LT(result.stats.search_time_sec, 30.0);
    const auto vr = validateMapping(result.mapping, layer, arch);
    EXPECT_TRUE(vr.valid) << vr.reason;
}

TEST(CosaScheduler, NeverWorseThanGreedy)
{
    const ArchSpec arch = ArchSpec::simbaBaseline();
    AnalyticalModel dummy_guard(workloads::fig8Layer(), arch);
    for (const char* label : {"3_7_512_512_1", "1_14_256_1024_1"}) {
        const LayerSpec layer = LayerSpec::fromLabel(label);
        CosaScheduler scheduler(fastConfig());
        const SearchResult result = scheduler.schedule(layer, arch);
        ASSERT_TRUE(result.found) << label;
        AnalyticalModel model(layer, arch);
        const Evaluation greedy_ev =
            model.evaluate(greedyMapping(layer, arch));
        EXPECT_LE(result.eval.cycles, greedy_ev.cycles * 1.0001) << label;
    }
}

TEST(CosaScheduler, WeightedSumModeAlsoSolves)
{
    const LayerSpec layer = LayerSpec::fromLabel("3_14_128_256_1");
    const ArchSpec arch = ArchSpec::simbaBaseline();
    CosaConfig config = fastConfig();
    config.objective_mode = CosaObjectiveMode::WeightedSum;
    CosaScheduler scheduler(config);
    const SearchResult result = scheduler.schedule(layer, arch);
    EXPECT_TRUE(result.found);
}

TEST(CosaScheduler, WorksOnArchVariants)
{
    // The Fig. 9 variants reuse the same formulation unchanged; the
    // GPU architecture path is exercised in test_gpu.cpp.
    const LayerSpec layer = LayerSpec::fromLabel("1_14_256_256_1");
    CosaScheduler scheduler(fastConfig());
    for (const ArchSpec& arch :
         {ArchSpec::simba8x8(), ArchSpec::simbaBigBuffers()}) {
        const SearchResult result = scheduler.schedule(layer, arch);
        EXPECT_TRUE(result.found) << arch.name;
        if (result.found) {
            EXPECT_TRUE(
                validateMapping(result.mapping, layer, arch).valid);
        }
    }
}

} // namespace
} // namespace cosa
