/**
 * @file
 * Table VI reproduction: time-to-solution comparison. Average runtime,
 * samples drawn and valid schedules evaluated per layer for CoSA,
 * Random (5x) and Timeloop-Hybrid search over a representative layer
 * set (paper: 4.2s / 4.6s / 379.9s per layer; 1 / 20K / 67M samples;
 * 1 / 5 / 16K+ evaluations). Runs through the scheduler service with
 * dedup and caching OFF: this bench measures per-layer solve cost, so
 * every instance must pay its real solve.
 *
 * Solver-core mode:
 *   bench_tab06_time_to_solution --solver-json [path]
 * runs CoSA alone over the 23 unique ResNet-50 layers, one request
 * per layer on a shared cache so each solve can warm-start from the
 * nearest previously solved shape, and writes machine-readable per-layer
 * records (solve time, LP iterations, branch-and-bound nodes,
 * warm-start hits, schedule metrics) plus the geomean solve time to
 * @p path (default BENCH_solver.json). This is the solver's perf
 * trajectory file: commit-over-commit comparisons diff its geomean at
 * a fixed work budget.
 *
 * --metrics-out / --trace-out (see docs/observability.md) dump the
 * process metric registry and Chrome trace at exit. Any other argument
 * prints the usage line and exits with status 2.
 */

#include <cmath>
#include <cstring>
#include <fstream>

#include "bench_util.hpp"
#include "common/telemetry.hpp"

namespace {

using namespace cosa;

struct SweepTotals
{
    double geomean = 0.0;
    double total_time = 0.0;
    std::int64_t nodes = 0, iters = 0, warm_hits = 0;
    int solved = 0;
    // Solver-phase and basis-work totals (the PR 6 stats-silo fix:
    // BasisLu::Stats and the MIP phase timings flow through
    // SearchStats into this report).
    double presolve_time = 0.0, root_lp_time = 0.0, tree_time = 0.0;
    std::int64_t lu_factorizations = 0, lu_eta_updates = 0;
    std::int64_t lu_refactor_requests = 0;
};

/** One sequential CoSA sweep over the unique ResNet-50 layers,
 *  streaming per-layer JSON records to @p out. */
SweepTotals
runSolverSweep(SearchObjective objective, std::ofstream& out)
{
    const Workload net = workloads::resNet50();

    ScheduleRequest request =
        bench::defaultRequest(SchedulerKind::Cosa, objective);
    request.arch = ArchSpec::simbaBaseline();
    request.max_parallelism = 1; // sequential: contention-free times
    // One cache for the whole sweep: later layers see the earlier
    // schedules and warm-start from their nearest neighbor.
    request.cache = std::make_shared<ScheduleCache>();

    SweepTotals totals;
    double log_sum = 0.0;
    for (std::size_t l = 0; l < net.layers.size(); ++l) {
        const LayerSpec& layer = net.layers[l];
        request.workloads = {Workload{"layer:" + layer.name, {layer}}};
        const NetworkResult run = bench::schedule(request).front();
        const SearchResult& result = run.layers.front().result;
        const SearchStats& st = result.stats;

        out << "    {\"layer\": \"" << layer.name << "\""
            << ", \"found\": " << (result.found ? "true" : "false")
            << ", \"solve_time_sec\": " << st.search_time_sec
            << ", \"lp_iterations\": " << st.lp_iterations
            << ", \"mip_nodes\": " << st.mip_nodes
            << ", \"warm_hint_installed\": " << st.warm_starts_installed
            << ", \"warm_start_hits\": " << st.warm_start_hits
            << ", \"presolve_sec\": " << st.presolve_time_sec
            << ", \"root_lp_sec\": " << st.root_lp_time_sec
            << ", \"tree_sec\": " << st.tree_time_sec
            << ", \"lu_factorizations\": " << st.lu_factorizations
            << ", \"lu_eta_updates\": " << st.lu_eta_updates
            << ", \"lu_refactor_requests\": "
            << (st.lu_unstable_updates + st.lu_fill_refactor_requests)
            << ", \"cycles\": " << result.eval.cycles
            << ", \"energy_pj\": " << result.eval.energy_pj << "}"
            << (l + 1 < net.layers.size() ? "," : "") << "\n";

        log_sum += std::log(std::max(st.search_time_sec, 1e-9));
        totals.total_time += st.search_time_sec;
        totals.nodes += st.mip_nodes;
        totals.iters += st.lp_iterations;
        totals.warm_hits += st.warm_start_hits;
        totals.solved += result.found ? 1 : 0;
        totals.presolve_time += st.presolve_time_sec;
        totals.root_lp_time += st.root_lp_time_sec;
        totals.tree_time += st.tree_time_sec;
        totals.lu_factorizations += st.lu_factorizations;
        totals.lu_eta_updates += st.lu_eta_updates;
        totals.lu_refactor_requests +=
            st.lu_unstable_updates + st.lu_fill_refactor_requests;
    }
    totals.geomean =
        std::exp(log_sum / static_cast<double>(net.layers.size()));
    return totals;
}

int
solverJsonMode(const std::string& path, SearchObjective objective)
{
    const Workload net = workloads::resNet50();
    const solver::MipParams mip = bench::defaultCosaConfig().mip;

    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot open " << path << " for writing\n";
        return 1;
    }
    out.precision(17);
    out << "{\n  \"bench\": \"tab06_solver_core\",\n";
    out << "  \"arch\": \"" << ArchSpec::simbaBaseline().name << "\",\n";
    out << "  \"work_limit\": " << mip.work_limit << ",\n";
    out << "  \"presolve\": " << (mip.presolve ? "true" : "false") << ",\n";
    out << "  \"layers\": [\n";

    const SweepTotals totals = runSolverSweep(objective, out);
    out << "  ],\n";
    out << "  \"num_layers\": " << net.layers.size() << ",\n";
    out << "  \"num_found\": " << totals.solved << ",\n";
    out << "  \"geomean_solve_time_sec\": " << totals.geomean << ",\n";
    out << "  \"total_solve_time_sec\": " << totals.total_time << ",\n";
    out << "  \"total_lp_iterations\": " << totals.iters << ",\n";
    out << "  \"total_mip_nodes\": " << totals.nodes << ",\n";
    out << "  \"total_presolve_time_sec\": " << totals.presolve_time
        << ",\n";
    out << "  \"total_root_lp_time_sec\": " << totals.root_lp_time << ",\n";
    out << "  \"total_tree_time_sec\": " << totals.tree_time << ",\n";
    out << "  \"total_lu_factorizations\": " << totals.lu_factorizations
        << ",\n";
    out << "  \"total_lu_eta_updates\": " << totals.lu_eta_updates << ",\n";
    out << "  \"total_lu_refactor_requests\": "
        << totals.lu_refactor_requests << ",\n";
    out << "  \"total_warm_start_hits\": " << totals.warm_hits << "\n}\n";

    std::cout << "solver core over " << net.layers.size()
              << " unique ResNet-50 layers: geomean "
              << TextTable::fmt(totals.geomean, 3) << "s/layer, total "
              << TextTable::fmt(totals.total_time, 1) << "s, "
              << totals.nodes << " nodes, " << totals.warm_hits
              << " warm-start hits -> " << path << "\n";
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace cosa;
    SearchObjective objective = SearchObjective::Latency;
    bool solver_json = false;
    std::string solver_json_path = "BENCH_solver.json";
    for (int a = 1; a < argc; ++a) {
        if (parseObjectiveFlag(argc, argv, &a, &objective))
            continue;
        if (parseTelemetryFlag(argc, argv, &a))
            continue;
        if (std::strcmp(argv[a], "--solver-json") == 0) {
            solver_json = true;
            if (a + 1 < argc && std::strncmp(argv[a + 1], "--", 2) != 0)
                solver_json_path = argv[++a];
            continue;
        }
        std::cerr << "unknown argument: " << argv[a] << "\n"
                  << "usage: " << argv[0]
                  << " [--solver-json [PATH]] [--objective "
                     "{latency,energy,edp}] [--metrics-out PATH] "
                     "[--trace-out PATH]\n";
        return 2;
    }
    if (solver_json)
        return solverJsonMode(solver_json_path, objective);

    const ArchSpec arch = ArchSpec::simbaBaseline();

    Workload layers;
    layers.name = "TableVI-subset";
    for (const Workload& suite : workloads::allSuites()) {
        const auto subset = bench::layersOf(suite);
        // A representative subset keeps this bench minutes-scale.
        for (std::size_t i = 0; i < subset.size();
             i += bench::quickMode() ? 3 : 2)
            layers.layers.push_back(subset[i]);
    }

    const SchedulerKind kinds[3] = {SchedulerKind::Cosa,
                                    SchedulerKind::Random,
                                    SchedulerKind::Hybrid};
    NetworkResult results[3];
    for (int s = 0; s < 3; ++s) {
        ScheduleRequest request = bench::defaultRequest(kinds[s], objective);
        request.workloads = {layers};
        request.arch = arch;
        request.deduplicate = false; // every instance pays its solve
        request.use_cache = false;
        request.max_parallelism = 1; // sequential: contention-free times
        results[s] = bench::schedule(std::move(request)).front();
    }

    TextTable table("Table VI: time-to-solution over " +
                    std::to_string(layers.layers.size()) + " layers");
    table.setHeader({"", "CoSA", "Random(5x)", "TimeloopHybrid"});
    auto avg = [&](int s, auto field) {
        const auto solved = std::max<std::int64_t>(results[s].num_solved, 1);
        return field(results[s].search) / static_cast<double>(solved);
    };
    auto row = [&](const char* label, auto field, int precision) {
        table.addRow({label, TextTable::fmt(avg(0, field), precision),
                      TextTable::fmt(avg(1, field), precision),
                      TextTable::fmt(avg(2, field), precision)});
    };
    row("Avg. runtime / layer [s]",
        [](const SearchStats& s) { return s.search_time_sec; }, 2);
    row("Avg. samples / layer",
        [](const SearchStats& s) { return static_cast<double>(s.samples); },
        0);
    row("Avg. evaluations / layer",
        [](const SearchStats& s) {
            return static_cast<double>(s.valid_evaluated);
        },
        0);
    table.print(std::cout);
    std::cout << "(paper: 4.2s/4.6s/379.9s; 1/20K/67M samples; "
                 "1/5/16K+ evaluations)\n";
    return 0;
}
