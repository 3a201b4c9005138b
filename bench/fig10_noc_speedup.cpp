/**
 * @file
 * Fig. 10 reproduction: per-layer speedup over Random on the
 * cycle-driven NoC simulation platform, which — unlike the analytical
 * model the searches optimize against — charges real communication
 * latency, congestion and DRAM timing (paper: CoSA 3.3x, TLH 1.3x
 * overall, with TLH sometimes *below* Random on conv layers and FC
 * layers showing little differentiation).
 *
 *   ./bench_fig10_noc_speedup [--pick {analytical,cascade}]
 *
 * --pick analytical (default): each search's winner is the best
 * *analytical* candidate, re-scored once by the simulator
 * (NocSimEvaluator) — the paper's protocol and the historical
 * behavior, byte-identical output.
 *
 * --pick cascade: the simulator re-scores the top-k analytical
 * candidates and picks among them (CascadeEvaluator), so simulation
 * can overturn the analytical ranking. The bench then runs *both*
 * backends and reports, per scheduler, how often the cascade's pick
 * differs from the analytical pick and what the simulated cycles
 * gained — quantifying how often the two platforms disagree about
 * which schedule is best.
 *
 * Runs entirely through the scheduler service: each scheduler searches
 * against the analytical model exactly as the historical hand-rolled
 * loop did, and the service re-scores winners with full
 * ScheduleSimulator runs — with batch dedup, async submission and live
 * progress instead of a bespoke per-layer loop.
 */

#include <cstring>

#include "bench_util.hpp"
#include "common/logging.hpp"

int
main(int argc, char** argv)
{
    using namespace cosa;
    bool cascade_pick = false;
    for (int a = 1; a < argc; ++a) {
        if (std::strcmp(argv[a], "--pick") == 0 && a + 1 < argc) {
            const std::string value = argv[++a];
            if (value == "cascade")
                cascade_pick = true;
            else if (value != "analytical")
                fatal("unknown --pick \"", value,
                      "\" (expected analytical or cascade)");
        } else {
            fatal("unknown argument \"", argv[a], "\"");
        }
    }

    const ArchSpec arch = ArchSpec::simbaBaseline();

    std::vector<Workload> suites;
    for (const Workload& suite : workloads::allSuites())
        suites.push_back(bench::subsetOf(suite));

    // One backend instance per platform, shared by the requests.
    const auto noc_sim = std::make_shared<NocSimEvaluator>();
    const auto cascade = std::make_shared<CascadeEvaluator>();
    auto scheduleAll = [&](SchedulerKind kind,
                           std::shared_ptr<const Evaluator> evaluator,
                           const char* tag) {
        ScheduleRequest request = bench::defaultRequest(kind);
        request.evaluator = std::move(evaluator);
        // Parity with the historical direct per-layer loop (and the
        // paper's protocol): every solve is cold, no cross-layer seeds.
        request.warm_start_hints = false;
        return bench::runWithProgress(
            std::string("fig10/") + tag + schedulerKindName(kind),
            std::move(request), suites, arch);
    };
    const SchedulerKind kinds[3] = {SchedulerKind::Random,
                                    SchedulerKind::Hybrid,
                                    SchedulerKind::Cosa};
    std::vector<NetworkResult> analytical_pick[3];
    for (int s = 0; s < 3; ++s)
        analytical_pick[s] = scheduleAll(kinds[s], noc_sim, "");
    std::vector<NetworkResult> cascade_results[3];
    if (cascade_pick) {
        for (int s = 0; s < 3; ++s)
            cascade_results[s] =
                scheduleAll(kinds[s], cascade, "cascade/");
    }
    // The speedup tables report the requested pick's schedules.
    const auto& r_rnd = cascade_pick ? cascade_results[0]
                                     : analytical_pick[0];
    const auto& r_tlh = cascade_pick ? cascade_results[1]
                                     : analytical_pick[1];
    const auto& r_cosa = cascade_pick ? cascade_results[2]
                                      : analytical_pick[2];

    std::vector<double> tlh_all, cosa_all;
    for (std::size_t n = 0; n < suites.size(); ++n) {
        TextTable table("Fig. 10 [" + suites[n].name +
                        "]: speedup over Random (NoC simulator" +
                        (cascade_pick ? ", cascade pick)" : ")"));
        table.setHeader({"layer", "random_MCyc", "tlh_x", "cosa_x"});
        std::vector<double> tlh_net, cosa_net;
        for (std::size_t l = 0; l < suites[n].layers.size(); ++l) {
            const SearchResult& rnd = r_rnd[n].layers[l].result;
            const SearchResult& tlh = r_tlh[n].layers[l].result;
            const SearchResult& cosa = r_cosa[n].layers[l].result;
            if (!rnd.found || !tlh.found || !cosa.found) {
                table.addRow({suites[n].layers[l].name,
                              "schedule/simulation failed"});
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
    std::cout << "OVERALL geomean speedup vs Random (NoC sim): "
              << "TimeloopHybrid " << TextTable::fmt(geomean(tlh_all), 2)
              << "x   CoSA " << TextTable::fmt(geomean(cosa_all), 2)
              << "x   (paper: 1.3x / 3.3x)\n";

    if (cascade_pick) {
        // How often does simulating the top-k candidates overturn the
        // analytical ranking — i.e. the cascade keeps a different
        // schedule than "best analytical candidate, then simulate"?
        TextTable table("Cascade vs analytical pick (per scheduler)");
        table.setHeader({"scheduler", "layers", "overturned", "share",
                         "sim_speedup_all", "sim_speedup_overturned"});
        for (int s = 0; s < 3; ++s) {
            int layers = 0;
            int overturned = 0;
            std::vector<double> gain_all, gain_overturned;
            for (std::size_t n = 0; n < suites.size(); ++n) {
                for (std::size_t l = 0; l < suites[n].layers.size();
                     ++l) {
                    const SearchResult& ana =
                        analytical_pick[s][n].layers[l].result;
                    const SearchResult& cas =
                        cascade_results[s][n].layers[l].result;
                    if (!ana.found || !cas.found)
                        continue;
                    ++layers;
                    const double gain = ana.eval.cycles / cas.eval.cycles;
                    gain_all.push_back(gain);
                    if (!(cas.mapping == ana.mapping)) {
                        ++overturned;
                        gain_overturned.push_back(gain);
                    }
                }
            }
            table.addRow(
                {schedulerKindName(kinds[s]), std::to_string(layers),
                 std::to_string(overturned),
                 TextTable::fmt(layers == 0
                                    ? 0.0
                                    : 100.0 * overturned / layers,
                                1) + "%",
                 TextTable::fmt(geomean(gain_all), 3) + "x",
                 gain_overturned.empty()
                     ? std::string("-")
                     : TextTable::fmt(geomean(gain_overturned), 3) + "x"});
        }
        table.print(std::cout);
        std::cout << "(overturned = the simulator kept a different "
                     "top-k candidate than the analytical ranking; "
                     "speedups are simulated cycles, analytical pick / "
                     "cascade pick)\n";
    }
    return 0;
}
