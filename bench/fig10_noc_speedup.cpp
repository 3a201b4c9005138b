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
 * Runs through the comparison sweep: each scheduler searches against
 * the analytical model, and the service re-scores winners with full
 * ScheduleSimulator runs.
 */

#include <cstring>

#include "comparison_sweep.hpp"
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

    // One backend instance per platform, shared by the requests.
    const auto sweep = [&](std::shared_ptr<const Evaluator> evaluator,
                           const char* tag) {
        return bench::compareSchedulers(
            workloads::allSuites(), ArchSpec::simbaBaseline(),
            {.settings = bench::BenchSettings::fromEnv(),
             .evaluator = std::move(evaluator),
             .tag = tag});
    };
    const bench::Comparison analytical_pick =
        sweep(std::make_shared<NocSimEvaluator>(), "fig10/");
    bench::Comparison cascade;
    if (cascade_pick)
        cascade = sweep(std::make_shared<CascadeEvaluator>(),
                        "fig10/cascade/");
    // The speedup tables report the requested pick's schedules.
    const bench::Comparison& picked =
        cascade_pick ? cascade : analytical_pick;
    bench::printLayerTables(picked, "Fig. 10",
                            cascade_pick ? "NoC simulator, cascade pick"
                                         : "NoC simulator",
                            "schedule/simulation failed");
    std::cout << "OVERALL geomean speedup vs Random (NoC sim): "
              << "TimeloopHybrid " << TextTable::fmt(picked.overall.tlh_x, 2)
              << "x   CoSA " << TextTable::fmt(picked.overall.cosa_x, 2)
              << "x   (paper: 1.3x / 3.3x)\n";

    if (cascade_pick) {
        // How often does simulating the top-k candidates overturn the
        // analytical ranking — i.e. the cascade keeps a different
        // schedule than "best analytical candidate, then simulate"?
        TextTable table("Cascade vs analytical pick (per scheduler)");
        table.setHeader({"scheduler", "layers", "overturned", "share",
                         "sim_speedup_all", "sim_speedup_overturned"});
        for (std::size_t s = 0; s < bench::kSweepSchedulers.size(); ++s) {
            std::vector<double> gain_all, gain_overturned;
            const auto& ana_nets = analytical_pick.results[s];
            const auto& cas_nets = cascade.results[s];
            for (std::size_t n = 0; n < ana_nets.size(); ++n) {
                for (std::size_t l = 0; l < ana_nets[n].layers.size(); ++l) {
                    const SearchResult& ana = ana_nets[n].layers[l].result;
                    const SearchResult& cas = cas_nets[n].layers[l].result;
                    if (!ana.found || !cas.found)
                        continue;
                    const double gain = ana.eval.cycles / cas.eval.cycles;
                    gain_all.push_back(gain);
                    if (!(cas.mapping == ana.mapping))
                        gain_overturned.push_back(gain);
                }
            }
            const std::size_t layers = gain_all.size();
            const std::size_t overturned = gain_overturned.size();
            table.addRow(
                {schedulerKindName(bench::kSweepSchedulers[s]),
                 std::to_string(layers), std::to_string(overturned),
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
