/**
 * @file
 * Fig. 7 reproduction: total-energy improvement of Timeloop-Hybrid and
 * CoSA schedules over Random search per network (all schedulers
 * optimizing for energy), normalized to Random, on the analytical
 * energy model (paper: TLH 2.7x, CoSA 3.3x overall). Each scheduler is
 * one request batching all four suites.
 */

#include "comparison_sweep.hpp"

int
main()
{
    using namespace cosa;
    const bench::Comparison comparison = bench::compareSchedulers(
        workloads::allSuites(), ArchSpec::simbaBaseline(),
        {.objective = SearchObjective::Energy,
         .settings = bench::BenchSettings::fromEnv(),
         .tag = "fig07/"});
    bench::printNetworkTable(comparison,
                             "Fig. 7: energy improvement over Random");
    std::cout << "(paper: TLH 2.7x, CoSA 3.3x)\n";
    return 0;
}
