/**
 * @file
 * Fig. 6 reproduction: per-layer speedup of Timeloop-Hybrid and CoSA
 * schedules relative to Random search on the Timeloop-style analytical
 * platform, for all four DNN workloads, plus per-network and overall
 * geomeans (paper: CoSA 5.2x, TLH 3.5x overall). Each scheduler runs
 * as one request over the whole suite batch, so shapes recurring
 * across networks (e.g. the ResNet/ResNeXt stem) are solved once.
 */

#include "bench_util.hpp"

int
main()
{
    using namespace cosa;
    const ArchSpec arch = ArchSpec::simbaBaseline();

    std::vector<Workload> suites;
    for (const Workload& suite : workloads::allSuites())
        suites.push_back(bench::subsetOf(suite));

    const auto run = [&](const char* tag, SchedulerKind kind) {
        return bench::runWithProgress(tag, bench::defaultRequest(kind),
                                      suites, arch);
    };
    const auto r_rnd = run("fig06/Random", SchedulerKind::Random);
    const auto r_tlh = run("fig06/TLH", SchedulerKind::Hybrid);
    const auto r_cosa = run("fig06/CoSA", SchedulerKind::Cosa);

    std::vector<double> tlh_all, cosa_all;
    for (std::size_t n = 0; n < suites.size(); ++n) {
        TextTable table("Fig. 6 [" + suites[n].name +
                        "]: speedup over Random (Timeloop platform)");
        table.setHeader({"layer", "random_MCyc", "tlh_x", "cosa_x"});
        std::vector<double> tlh_net, cosa_net;
        for (std::size_t l = 0; l < suites[n].layers.size(); ++l) {
            const SearchResult& rnd = r_rnd[n].layers[l].result;
            const SearchResult& tlh = r_tlh[n].layers[l].result;
            const SearchResult& cosa = r_cosa[n].layers[l].result;
            if (!rnd.found || !tlh.found || !cosa.found) {
                table.addRow({suites[n].layers[l].name,
                              "scheduler failed"});
                continue;
            }
            const double tlh_x = rnd.eval.cycles / tlh.eval.cycles;
            const double cosa_x = rnd.eval.cycles / cosa.eval.cycles;
            tlh_net.push_back(tlh_x);
            cosa_net.push_back(cosa_x);
            table.addRow({suites[n].layers[l].name,
                          TextTable::fmt(rnd.eval.cycles / 1e6, 3),
                          TextTable::fmt(tlh_x, 2),
                          TextTable::fmt(cosa_x, 2)});
        }
        table.addRow({"GEOMEAN", "",
                      TextTable::fmt(geomean(tlh_net), 2),
                      TextTable::fmt(geomean(cosa_net), 2)});
        table.print(std::cout);
        std::cout << "\n";
        tlh_all.insert(tlh_all.end(), tlh_net.begin(), tlh_net.end());
        cosa_all.insert(cosa_all.end(), cosa_net.begin(), cosa_net.end());
    }
    std::cout << "OVERALL geomean speedup vs Random:  TimeloopHybrid "
              << TextTable::fmt(geomean(tlh_all), 2) << "x   CoSA "
              << TextTable::fmt(geomean(cosa_all), 2)
              << "x   (paper: 3.5x / 5.2x)\n";
    return 0;
}
