#include <gtest/gtest.h>

#include "mapper/random_mapper.hpp"
#include "model/evaluator.hpp"
#include "noc/schedule_sim.hpp"
#include "problem/workloads.hpp"

namespace cosa {
namespace {

RandomMapperConfig
fastRandomConfig()
{
    RandomMapperConfig config;
    config.max_samples = 500;
    config.target_valid = 3;
    return config;
}

TEST(SearchObjectiveNames, RoundTrip)
{
    for (SearchObjective objective :
         {SearchObjective::Latency, SearchObjective::Energy,
          SearchObjective::Edp}) {
        SearchObjective parsed = SearchObjective::Latency;
        ASSERT_TRUE(
            parseSearchObjective(searchObjectiveName(objective), &parsed));
        EXPECT_EQ(parsed, objective);
    }
    SearchObjective parsed = SearchObjective::Energy;
    EXPECT_FALSE(parseSearchObjective("throughput", &parsed));
    EXPECT_EQ(parsed, SearchObjective::Energy); // untouched on failure
}

TEST(EvaluatorFingerprints, DistinguishBackendsAndConfigs)
{
    const AnalyticalEvaluator analytical;
    const NocSimEvaluator nocsim;
    const CascadeEvaluator cascade;
    EXPECT_NE(analytical.fingerprint(), nocsim.fingerprint());
    EXPECT_NE(analytical.fingerprint(), cascade.fingerprint());
    EXPECT_NE(nocsim.fingerprint(), cascade.fingerprint());

    // Any simulator tunable that changes results changes the key.
    ScheduleSimConfig other;
    other.dram.t_cas += 1;
    EXPECT_NE(NocSimEvaluator(other).fingerprint(), nocsim.fingerprint());
    EXPECT_NE(CascadeEvaluator(2).fingerprint(),
              CascadeEvaluator(4).fingerprint());
    // Same config => same key (the cache contract).
    EXPECT_EQ(NocSimEvaluator().fingerprint(), nocsim.fingerprint());
}

TEST(AnalyticalEvaluator, MatchesDirectModel)
{
    const LayerSpec layer = workloads::listing1Layer();
    const ArchSpec arch = ArchSpec::simbaBaseline();
    const SearchResult found =
        RandomMapper(fastRandomConfig()).schedule(layer, arch);
    ASSERT_TRUE(found.found);

    const AnalyticalEvaluator evaluator;
    const Evaluation via_evaluator =
        evaluator.evaluate(found.mapping, layer, arch);
    const Evaluation direct =
        AnalyticalModel(layer, arch).evaluate(found.mapping);
    ASSERT_TRUE(via_evaluator.valid);
    EXPECT_EQ(via_evaluator.cycles, direct.cycles);
    EXPECT_EQ(via_evaluator.energy_pj, direct.energy_pj);
    EXPECT_TRUE(evaluator.searchIsExact());
}

TEST(NocSimEvaluator, OverlaysSimulatedCyclesOnAnalyticalEvaluation)
{
    const LayerSpec layer = workloads::listing1Layer();
    const ArchSpec arch = ArchSpec::simbaBaseline();
    const SearchResult found =
        RandomMapper(fastRandomConfig()).schedule(layer, arch);
    ASSERT_TRUE(found.found);

    const NocSimEvaluator evaluator;
    const Evaluation ev = evaluator.evaluate(found.mapping, layer, arch);
    ASSERT_TRUE(ev.valid);

    const SimResult sim =
        ScheduleSimulator(layer, arch).simulate(found.mapping);
    ASSERT_TRUE(sim.ok);
    EXPECT_EQ(ev.cycles, static_cast<double>(sim.cycles));
    // Energy and the search-time pruning stay analytical.
    const Evaluation analytical =
        AnalyticalModel(layer, arch).evaluate(found.mapping);
    EXPECT_EQ(ev.energy_pj, analytical.energy_pj);
    const auto bound = evaluator.bind(layer, arch);
    EXPECT_EQ(bound->searchEvaluate(found.mapping).cycles,
              analytical.cycles);
}

TEST(NocSimEvaluator, SearchWinnerMatchesHistoricalDirectFlow)
{
    // The fig10 acceptance property: searching through the evaluator
    // must reproduce the historical flow — analytical search picks the
    // mapping, one simulation re-scores it — bit for bit.
    const LayerSpec layer = workloads::listing1Layer();
    const ArchSpec arch = ArchSpec::simbaBaseline();
    const RandomMapper mapper(fastRandomConfig());

    const SearchResult direct = mapper.schedule(layer, arch);
    ASSERT_TRUE(direct.found);
    const SimResult direct_sim =
        ScheduleSimulator(layer, arch).simulate(direct.mapping);
    ASSERT_TRUE(direct_sim.ok);

    const NocSimEvaluator evaluator;
    const SearchResult via = mapper.schedule(layer, arch, evaluator);
    ASSERT_TRUE(via.found);
    EXPECT_EQ(via.mapping, direct.mapping);
    EXPECT_EQ(via.eval.cycles, static_cast<double>(direct_sim.cycles));
    EXPECT_EQ(via.stats.samples, direct.stats.samples);
    EXPECT_EQ(via.stats.valid_evaluated, direct.stats.valid_evaluated);
}

TEST(CascadeEvaluator, WinnerAgreesWithDirectScheduleSim)
{
    // The cascade keeps the analytical top-k and lets the simulator
    // pick: its winner's reported cycles must equal a direct
    // ScheduleSimulator run on that same mapping, and no other kept
    // candidate may simulate strictly faster.
    const LayerSpec layer = workloads::listing1Layer();
    const ArchSpec arch = ArchSpec::simbaBaseline();
    RandomMapperConfig config = fastRandomConfig();
    config.target_valid = 8; // enough candidates to fill the cascade
    const RandomMapper mapper(config);

    const CascadeEvaluator cascade(4);
    const SearchResult result = mapper.schedule(layer, arch, cascade);
    ASSERT_TRUE(result.found);

    const ScheduleSimulator sim(layer, arch);
    const SimResult winner_sim = sim.simulate(result.mapping);
    ASSERT_TRUE(winner_sim.ok);
    EXPECT_EQ(result.eval.cycles, static_cast<double>(winner_sim.cycles));

    // Reconstruct the analytical top-k the cascade saw and verify its
    // choice is sim-optimal among them (sampleValid draws the same
    // deterministic candidate sequence schedule() searched).
    const auto cascade_bound = cascade.bind(layer, arch);
    CandidateSelector select(cascade, *cascade_bound, config.objective);
    const auto valid = mapper.sampleValid(layer, arch, config.target_valid,
                                          config.max_samples);
    for (const auto& [mapping, ev] : valid)
        select.offer(mapping, ev);
    ASSERT_FALSE(select.empty());
    const auto winner = select.finalize();
    ASSERT_TRUE(winner.has_value());
    EXPECT_EQ(winner->mapping, result.mapping);
    EXPECT_EQ(winner->eval.cycles, result.eval.cycles);
}

TEST(CandidateSelector, KeepsTopKDropsDuplicatesBreaksTiesEarlier)
{
    const LayerSpec layer = workloads::listing1Layer();
    const ArchSpec arch = ArchSpec::simbaBaseline();
    const AnalyticalEvaluator analytical;
    const auto bound = analytical.bind(layer, arch);

    CandidateSelector select(analytical, *bound, SearchObjective::Latency);
    Mapping a, b;
    a.levels = {{Loop{Dim::R, 2, false}}};
    b.levels = {{Loop{Dim::S, 3, false}}};
    Evaluation fast, slow;
    fast.valid = slow.valid = true;
    fast.cycles = 10.0;
    slow.cycles = 20.0;

    EXPECT_TRUE(select.offer(a, slow));   // first offer is the best
    EXPECT_FALSE(select.offer(a, slow));  // duplicate dropped
    EXPECT_TRUE(select.offer(b, fast));   // strictly better
    EXPECT_DOUBLE_EQ(select.bestSearchMetric(), 10.0);
    // Analytical is exact: finalize returns the best candidate as-is.
    const auto winner = select.finalize();
    ASSERT_TRUE(winner.has_value());
    EXPECT_EQ(winner->mapping, b);
    EXPECT_DOUBLE_EQ(winner->eval.cycles, 10.0);
}

} // namespace
} // namespace cosa
