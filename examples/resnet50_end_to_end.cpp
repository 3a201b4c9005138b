/**
 * @file
 * End-to-end network scheduling through the multi-tenant service: run
 * CoSA and both baselines over the full 53-layer ResNet-50 and report
 * total network latency and energy — the whole-network view behind the
 * paper's per-layer Fig. 6 bars. The three schedulers are submitted as
 * three *concurrent jobs* on one SchedulerService, sharing its
 * executor crew (and one schedule cache, which their scheduler keys
 * partition); each job canonicalizes the 53 layer instances down to 23
 * unique scheduling problems, so each scheduler performs 23 solves,
 * not 53.
 *
 *   ./examples/resnet50_end_to_end [time_limit_seconds] [--threads N]
 *       [--objective {latency,energy,edp}] [--cache-dir DIR]
 *       [--priority {interactive,normal,batch}] [--deadline-ms N]
 *
 * The time limit is expressed in dense-core-equivalent seconds: it maps
 * onto CoSA's deterministic work budget (5000 simplex iterations per
 * second) so results are machine-independent. --threads sets the
 * service's shared executor width (0 = hardware concurrency).
 * --objective picks the search metric of every scheduler. --cache-dir
 * mounts the persistent cache store in DIR (created when missing), as
 * `cosad --cache-dir` does: every solve is durable once inserted, so
 * repeated runs revive prior solves and cross-layer warm starts and
 * only pay for problems they have never seen.
 * --priority and --deadline-ms apply to all three jobs: the strict
 * tier they run at, and an auto-cancel budget after which unfinished
 * solves are skipped (solved layers keep their results).
 */

#include <cstring>
#include <iostream>

#include "cachestore/store.hpp"
#include "common/flag_value.hpp"
#include "common/logging.hpp"
#include "common/table.hpp"
#include "common/telemetry.hpp"
#include "engine/scheduler_service.hpp"

int
main(int argc, char** argv)
{
    using namespace cosa;
    double time_limit = 0.0;
    int threads = 0;
    SearchObjective objective = SearchObjective::Latency;
    JobPriority priority = JobPriority::Normal;
    double deadline_ms = 0.0;
    std::string cache_dir;
    for (int a = 1; a < argc; ++a) {
        if (std::strcmp(argv[a], "--threads") == 0 && a + 1 < argc) {
            threads = flagValue(argv, a, 0);
        } else if (parseObjectiveFlag(argc, argv, &a, &objective) ||
                   parsePriorityFlag(argc, argv, &a, &priority) ||
                   parseTelemetryFlag(argc, argv, &a)) {
            continue;
        } else if (std::strcmp(argv[a], "--deadline-ms") == 0 &&
                   a + 1 < argc) {
            deadline_ms = flagValue(argv, a, 0.0);
        } else if (std::strcmp(argv[a], "--cache-dir") == 0 &&
                   a + 1 < argc) {
            cache_dir = argv[++a];
        } else if (std::strncmp(argv[a], "--", 2) == 0) {
            fatal("unknown argument \"", argv[a], "\"");
        } else {
            time_limit = numberValue("the time limit argument", argv[a],
                                     0.0, CosaConfig::kMaxBudgetSeconds);
        }
    }

    const ArchSpec arch = ArchSpec::simbaBaseline();
    const Workload net = workloads::resNet50Full();

    // One cache shared by the three jobs (their scheduler keys keep the
    // entries apart), persisted across runs when requested.
    std::shared_ptr<ScheduleCache> cache = std::make_shared<ScheduleCache>();
    if (!cache_dir.empty()) {
        cachestore::StoreConfig store_config;
        store_config.dir = cache_dir;
        auto store = cachestore::PersistentScheduleCache::open(store_config);
        if (!store.ok())
            fatal("cannot open cache dir '", cache_dir, "': ",
                  store.status().message());
        std::cout << "schedule cache: " << store.value()->size()
                  << " entries in " << cache_dir << "\n";
        cache = std::move(store).value();
    }

    ServiceConfig service_config;
    service_config.num_threads = threads;
    SchedulerService service(service_config);

    const SchedulerKind kinds[3] = {SchedulerKind::Random,
                                    SchedulerKind::Hybrid,
                                    SchedulerKind::Cosa};
    // Multi-tenant front door: all three schedulers are submitted up
    // front and run concurrently on the shared executor; per-problem
    // progress streams live from each job.
    ScheduleJob jobs[3];
    for (int s = 0; s < 3; ++s) {
        ScheduleRequest request;
        request.workloads.push_back(net);
        request.arch = arch;
        request.scheduler = kinds[s];
        request.objective = objective;
        request.cache = cache;
        request.priority = priority;
        request.deadline_sec = deadline_ms / 1000.0;
        request.tag = std::string("resnet50/") + schedulerKindName(kinds[s]);
        if (time_limit > 0.0) {
            request.cosa.mip.work_limit =
                CosaConfig::workLimitFromSeconds(time_limit);
            request.cosa.mip.time_limit_sec =
                CosaConfig::timeSafetyNetFromSeconds(time_limit);
        }
        SubmitResult submitted = service.submit(
            std::move(request), [s, &kinds](const JobProgress& p) {
                std::cerr << "[" << schedulerKindName(kinds[s]) << "] "
                          << p.completed << "/" << p.total << " "
                          << p.layer << (p.from_cache ? " (cached)" : "")
                          << "\n";
            });
        if (!submitted) {
            std::cerr << "rejected: " << submitted.rejection().message
                      << "\n";
            return 1;
        }
        jobs[s] = submitted.takeJob();
    }
    NetworkResult results[3];
    for (int s = 0; s < 3; ++s)
        results[s] = jobs[s].wait().front();

    TextTable table("ResNet-50 (53 layers) end to end on " + arch.name);
    table.setHeader({"layer", "count", "random_MCyc", "tlh_MCyc",
                     "cosa_MCyc"});
    for (std::size_t l = 0; l < net.layers.size(); ++l) {
        if (results[0].layers[l].deduplicated)
            continue; // one row per unique shape
        int count = 0;
        for (const auto& other : results[0].layers) {
            if (other.unique_index == results[0].layers[l].unique_index)
                ++count;
        }
        std::vector<std::string> row{net.layers[l].name,
                                     std::to_string(count)};
        for (int s = 0; s < 3; ++s) {
            const SearchResult& r = results[s].layers[l].result;
            row.push_back(
                r.found ? TextTable::fmt(r.eval.cycles / 1e6, 3) : "-");
        }
        table.addRow(row);
    }
    table.addRow({"TOTAL", std::to_string(results[0].num_layers),
                  TextTable::fmt(results[0].total_cycles / 1e6, 2),
                  TextTable::fmt(results[1].total_cycles / 1e6, 2),
                  TextTable::fmt(results[2].total_cycles / 1e6, 2)});
    table.print(std::cout);

    std::cout << "objective: " << searchObjectiveName(objective) << "\n";
    std::cout << "network energy [mJ]: random "
              << results[0].total_energy_pj / 1e9 << ", hybrid "
              << results[1].total_energy_pj / 1e9 << ", cosa "
              << results[2].total_energy_pj / 1e9 << "\n";
    std::cout << "network speedup of CoSA over Random: "
              << results[0].total_cycles / results[2].total_cycles
              << "x\n";
    for (int s = 0; s < 3; ++s) {
        const NetworkResult& r = results[s];
        std::cout << r.scheduler << ": " << r.num_layers
                  << " layer instances -> " << r.num_unique
                  << " unique problems, " << r.num_solved << " solved, "
                  << r.num_cache_hits << " cache hits, "
                  << r.num_warm_hints << " warm-started ("
                  << r.num_warm_hits << " accepted); solve time "
                  << TextTable::fmt(r.search.search_time_sec, 1)
                  << "s, wall "
                  << TextTable::fmt(r.wall_time_sec, 1) << "s"
                  << (r.deadline_expired
                          ? " [deadline expired: " +
                                std::to_string(r.num_cancelled) +
                                " problems skipped]"
                          : "")
                  << "\n";
    }
    const ServiceStats service_stats = service.stats();
    std::cout << "service: " << service_stats.completed
              << " jobs completed, "
              << service_stats.executor.tasks_executed
              << " solve tasks on " << service.config().num_threads
              << " shared workers, " << service_stats.executor.steals
              << " cross-job steals\n";
    return 0;
}
