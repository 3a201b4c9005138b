#pragma once

/**
 * @file
 * The comparison sweep behind Figs. 6, 7, 9 and 10 and the scorecard
 * test. Random, Timeloop-Hybrid (TLH) and CoSA each schedule the batch
 * as one SchedulerService request. Each layer's Random/TLH and
 * Random/CoSA ratio of one metric (cycles, or energy under the energy
 * objective) is a speedup over Random, summarized by per-network and
 * overall geomeans; a layer that any scheduler failed on is left out.
 * Each request runs on a private cache, so every solve is cold, with no
 * cross-layer warm start: the paper's protocol. The sweep reads no
 * environment: its layers and budgets are arguments.
 */

#include <array>

#include "bench_util.hpp"

namespace cosa::bench {

/** The compared schedulers, in the order of Comparison::results. */
inline constexpr std::array<SchedulerKind, 3> kSweepSchedulers = {
    SchedulerKind::Random, SchedulerKind::Hybrid, SchedulerKind::Cosa};

struct SweepOptions
{
    /** Energy compares energy; any other objective, cycles. */
    SearchObjective objective = SearchObjective::Latency;
    BenchSettings settings;
    std::shared_ptr<const Evaluator> evaluator; //!< null: analytical
    std::string tag; //!< prefix of the stderr progress lines; empty: none
};

/** Speedups over Random of one layer, or their geomeans over several. */
struct Speedup
{
    std::string name;
    /** Layers compared: for one layer 1, or 0 when a scheduler failed
     *  on it (the figures are then unset). */
    int layers = 0;
    double tlh_x = 0.0;
    double cosa_x = 0.0;
    double random = 0.0; //!< Random's metric (one layer only)
};

struct NetworkSpeedups
{
    Speedup geomean;
    std::vector<Speedup> layers;
};

struct Comparison
{
    std::vector<NetworkSpeedups> networks;
    Speedup overall;
    std::array<std::vector<NetworkResult>, 3> results;
};

/** Sweep @p suites (every third layer in quick mode) on @p arch. */
inline Comparison
compareSchedulers(const std::vector<Workload>& suites, const ArchSpec& arch,
                  const SweepOptions& options)
{
    std::vector<Workload> batch;
    for (const Workload& suite : suites)
        batch.push_back({suite.name, layersOf(suite, options.settings.quick)});

    Comparison out;
    for (std::size_t s = 0; s < kSweepSchedulers.size(); ++s) {
        ScheduleRequest request = defaultRequest(
            kSweepSchedulers[s], options.objective, options.settings);
        request.workloads = batch;
        request.arch = arch;
        request.evaluator = options.evaluator;
        ScheduleJob::ProgressCallback progress;
        if (!options.tag.empty()) {
            progress = [tag = options.tag +
                              schedulerKindName(kSweepSchedulers[s])](
                           const JobProgress& p) {
                std::cerr << "[" << tag << "] " << p.completed << "/"
                          << p.total << " " << p.layer
                          << (p.from_cache ? " (cached)" : "") << "\n";
            };
        }
        out.results[s] = schedule(std::move(request), std::move(progress));
    }

    const auto metric = [&](const SearchResult& r) {
        return options.objective == SearchObjective::Energy ? r.eval.energy_pj
                                                            : r.eval.cycles;
    };
    const auto summarize = [](const std::string& name,
                              const std::vector<double>& tlh,
                              const std::vector<double>& cosa) {
        return Speedup{name, static_cast<int>(tlh.size()), geomean(tlh),
                       geomean(cosa)};
    };
    std::vector<double> tlh_all, cosa_all;
    for (std::size_t n = 0; n < batch.size(); ++n) {
        NetworkSpeedups net;
        std::vector<double> tlh_net, cosa_net;
        for (std::size_t l = 0; l < batch[n].layers.size(); ++l) {
            const SearchResult& rnd = out.results[0][n].layers[l].result;
            const SearchResult& tlh = out.results[1][n].layers[l].result;
            const SearchResult& cosa = out.results[2][n].layers[l].result;
            Speedup row{batch[n].layers[l].name};
            if (rnd.found && tlh.found && cosa.found) {
                row = {row.name, 1, metric(rnd) / metric(tlh),
                       metric(rnd) / metric(cosa), metric(rnd)};
                tlh_net.push_back(row.tlh_x);
                cosa_net.push_back(row.cosa_x);
            }
            net.layers.push_back(std::move(row));
        }
        net.geomean = summarize(batch[n].name, tlh_net, cosa_net);
        out.networks.push_back(std::move(net));
        tlh_all.insert(tlh_all.end(), tlh_net.begin(), tlh_net.end());
        cosa_all.insert(cosa_all.end(), cosa_net.begin(), cosa_net.end());
    }
    out.overall = summarize("overall", tlh_all, cosa_all);
    return out;
}

/**
 * Figs. 6 and 10: per network, one row per layer (Random's Mcycles and
 * both speedups, or @p failed) and a geomean row, titled
 * "@p figure [network]: speedup over Random (@p platform)".
 */
inline void
printLayerTables(const Comparison& comparison, const std::string& figure,
                 const std::string& platform, const char* failed)
{
    for (const NetworkSpeedups& net : comparison.networks) {
        TextTable table(figure + " [" + net.geomean.name +
                        "]: speedup over Random (" + platform + ")");
        table.setHeader({"layer", "random_MCyc", "tlh_x", "cosa_x"});
        for (const Speedup& row : net.layers) {
            if (row.layers == 0)
                table.addRow({row.name, failed});
            else
                table.addRow({row.name, TextTable::fmt(row.random / 1e6, 3),
                              TextTable::fmt(row.tlh_x, 2),
                              TextTable::fmt(row.cosa_x, 2)});
        }
        table.addRow({"GEOMEAN", "", TextTable::fmt(net.geomean.tlh_x, 2),
                      TextTable::fmt(net.geomean.cosa_x, 2)});
        table.print(std::cout);
        std::cout << "\n";
    }
}

/** Figs. 7 and 9: one geomean row per network, then the overall one. */
inline void
printNetworkTable(const Comparison& comparison, const std::string& title)
{
    TextTable table(title);
    table.setHeader({"network", "tlh_x", "cosa_x"});
    for (const NetworkSpeedups& net : comparison.networks)
        table.addRow({net.geomean.name, TextTable::fmt(net.geomean.tlh_x, 2),
                      TextTable::fmt(net.geomean.cosa_x, 2)});
    table.addRow({"GEOMEAN", TextTable::fmt(comparison.overall.tlh_x, 2),
                  TextTable::fmt(comparison.overall.cosa_x, 2)});
    table.print(std::cout);
}

} // namespace cosa::bench
