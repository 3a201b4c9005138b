/**
 * @file
 * Fig. 7 reproduction: total-energy improvement of Timeloop-Hybrid and
 * CoSA schedules over Random search per network (all schedulers
 * optimizing for energy), normalized to Random, on the analytical
 * energy model (paper: TLH 2.7x, CoSA 3.3x overall). Each scheduler is
 * one request batching all four suites.
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
        return bench::runWithProgress(
            tag, bench::defaultRequest(kind, SearchObjective::Energy), suites,
            arch);
    };
    const auto r_rnd = run("fig07/Random", SchedulerKind::Random);
    const auto r_tlh = run("fig07/TLH", SchedulerKind::Hybrid);
    const auto r_cosa = run("fig07/CoSA", SchedulerKind::Cosa);

    TextTable table("Fig. 7: energy improvement over Random");
    table.setHeader({"network", "tlh_x", "cosa_x"});
    std::vector<double> tlh_all, cosa_all;
    for (std::size_t n = 0; n < suites.size(); ++n) {
        std::vector<double> tlh_net, cosa_net;
        for (std::size_t l = 0; l < suites[n].layers.size(); ++l) {
            const SearchResult& rnd = r_rnd[n].layers[l].result;
            const SearchResult& tlh = r_tlh[n].layers[l].result;
            const SearchResult& cosa = r_cosa[n].layers[l].result;
            if (!rnd.found || !tlh.found || !cosa.found)
                continue;
            tlh_net.push_back(rnd.eval.energy_pj / tlh.eval.energy_pj);
            cosa_net.push_back(rnd.eval.energy_pj / cosa.eval.energy_pj);
        }
        table.addRow({suites[n].name, TextTable::fmt(geomean(tlh_net), 2),
                      TextTable::fmt(geomean(cosa_net), 2)});
        tlh_all.insert(tlh_all.end(), tlh_net.begin(), tlh_net.end());
        cosa_all.insert(cosa_all.end(), cosa_net.begin(), cosa_net.end());
    }
    table.addRow({"GEOMEAN", TextTable::fmt(geomean(tlh_all), 2),
                  TextTable::fmt(geomean(cosa_all), 2)});
    table.print(std::cout);
    std::cout << "(paper: TLH 2.7x, CoSA 3.3x)\n";
    return 0;
}
