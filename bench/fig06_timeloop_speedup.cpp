/**
 * @file
 * Fig. 6 reproduction: per-layer speedup of Timeloop-Hybrid and CoSA
 * schedules relative to Random search on the Timeloop-style analytical
 * platform, for all four DNN workloads, plus per-network and overall
 * geomeans (paper: CoSA 5.2x, TLH 3.5x overall). Each scheduler runs
 * as one request over the whole suite batch, so shapes recurring
 * across networks (e.g. the ResNet/ResNeXt stem) are solved once.
 */

#include "comparison_sweep.hpp"

int
main()
{
    using namespace cosa;
    const bench::Comparison comparison = bench::compareSchedulers(
        workloads::allSuites(), ArchSpec::simbaBaseline(),
        {.settings = bench::BenchSettings::fromEnv(), .tag = "fig06/"});
    bench::printLayerTables(comparison, "Fig. 6", "Timeloop platform",
                            "scheduler failed");
    std::cout << "OVERALL geomean speedup vs Random:  TimeloopHybrid "
              << TextTable::fmt(comparison.overall.tlh_x, 2) << "x   CoSA "
              << TextTable::fmt(comparison.overall.cosa_x, 2)
              << "x   (paper: 3.5x / 5.2x)\n";
    return 0;
}
