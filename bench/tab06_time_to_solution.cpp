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
 * --metrics-out / --trace-out (see docs/observability.md) dump the
 * process metric registry and Chrome trace at exit. Any other argument
 * prints the usage line and exits with status 2.
 */

#include "bench_util.hpp"
#include "common/telemetry.hpp"

int
main(int argc, char** argv)
{
    using namespace cosa;
    SearchObjective objective = SearchObjective::Latency;
    for (int a = 1; a < argc; ++a) {
        if (parseObjectiveFlag(argc, argv, &a, &objective))
            continue;
        if (parseTelemetryFlag(argc, argv, &a))
            continue;
        std::cerr << "unknown argument: " << argv[a] << "\n"
                  << "usage: " << argv[0]
                  << " [--objective {latency,energy,edp}] "
                     "[--metrics-out PATH] [--trace-out PATH]\n";
        return 2;
    }

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
