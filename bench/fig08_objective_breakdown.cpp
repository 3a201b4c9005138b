/**
 * @file
 * Fig. 8 reproduction: the CoSA objective-function breakdown (Eq. 12
 * terms -wU*Util, wC*Comp, wT*Traf and their total) evaluated for the
 * Random, Timeloop-Hybrid and CoSA schedules of ResNet-50 layer
 * 3_7_512_512_1. CoSA must achieve the lowest total. The schedules come
 * from the comparison sweep over that one layer.
 */

#include "comparison_sweep.hpp"
#include "cosa/formulation.hpp"

int
main()
{
    using namespace cosa;
    const LayerSpec layer = workloads::fig8Layer();
    const ArchSpec arch = ArchSpec::simbaBaseline();
    const bench::Comparison comparison = bench::compareSchedulers(
        {{layer.name, {layer}}}, arch,
        {.settings = bench::BenchSettings::fromEnv()});

    CosaConfig config = bench::defaultCosaConfig();
    CosaFormulation formulation(layer, arch, config);

    TextTable table("Fig. 8: objective breakdown, layer " + layer.name);
    table.setHeader({"scheduler", "-wU*Util", "wC*Comp", "wT*Traf",
                     "Total", "model_MCycles"});
    for (std::size_t s = 0; s < bench::kSweepSchedulers.size(); ++s) {
        const char* name = schedulerKindName(bench::kSweepSchedulers[s]);
        const SearchResult& r = comparison.results[s][0].layers[0].result;
        if (!r.found) {
            table.addRow({name, "scheduler failed"});
            continue;
        }
        const auto values = formulation.encodeMapping(r.mapping);
        table.addRow(
            {name,
             TextTable::fmt(-config.w_util *
                            formulation.utilObjective(values), 2),
             TextTable::fmt(config.w_comp *
                            formulation.compObjective(values), 2),
             TextTable::fmt(config.w_traf *
                            formulation.trafObjective(values), 2),
             TextTable::fmt(formulation.totalObjective(values), 2),
             TextTable::fmt(r.eval.cycles / 1e6, 3)});
    }
    table.print(std::cout);
    std::cout << "(paper: CoSA achieves the lowest values of all three "
                 "sub-objectives and the total)\n";
    return 0;
}
