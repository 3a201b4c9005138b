/**
 * @file
 * Architecture exploration through the multi-tenant service: schedule
 * the same layer with CoSA across the baseline, 8x8-PE and big-buffer
 * architecture variants — the kind of pre-silicon what-if study
 * one-shot scheduling enables (paper §V-B4). The whole sweep is
 * submitted as *concurrent jobs* (one per variant) through a single
 * SchedulerService: the variants share the service's executor crew and
 * one schedule cache, which separates them by arch fingerprint and
 * serves repeated queries (the final baseline re-query below) for
 * free. A sweep is also the showcase for cross-layer warm starts: a
 * variant whose solve starts after a sibling's finished seeds its MIP
 * with the nearest cached schedule (with concurrent jobs, how many
 * hints land depends on overlap — see the README's determinism notes).
 *
 *   ./examples/arch_exploration [R_P_C_K_Stride] [--threads N]
 *       [--objective {latency,energy,edp}] [--cache-dir DIR]
 *       [--priority {interactive,normal,batch}] [--deadline-ms N]
 *
 * --cache-dir mounts the persistent cache store in DIR (created when
 * missing), as `cosad --cache-dir` does: every solve is durable once
 * inserted, so a repeated exploration reuses every prior solve and
 * warm-starts the rest. --priority/--deadline-ms set each sweep job's
 * tier and auto-cancel budget.
 */

#include <cstring>
#include <iostream>

#include "cachestore/store.hpp"
#include "common/flag_value.hpp"
#include "common/logging.hpp"
#include "common/table.hpp"
#include "common/telemetry.hpp"
#include "cosa/greedy.hpp"
#include "engine/scheduler_service.hpp"

int
main(int argc, char** argv)
{
    using namespace cosa;
    std::string label = "3_14_256_256_2";
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
            label = argv[a];
        }
    }
    const LayerSpec layer = LayerSpec::fromLabel(label);

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

    const ArchSpec variants[3] = {ArchSpec::simbaBaseline(),
                                  ArchSpec::simba8x8(),
                                  ArchSpec::simbaBigBuffers()};
    auto makeRequest = [&](const ArchSpec& arch) {
        ScheduleRequest request; // CoSA, warm-start hints on
        request.workloads.push_back(
            Workload{"sweep:" + layer.name, {layer}});
        request.arch = arch;
        request.objective = objective;
        request.cache = cache; // shared across the sweep
        request.priority = priority;
        request.deadline_sec = deadline_ms / 1000.0;
        request.tag = "sweep/" + arch.name;
        return request;
    };

    // Submit the whole sweep up front; the variants run concurrently
    // on the shared executor.
    ScheduleJob jobs[3];
    for (int v = 0; v < 3; ++v) {
        SubmitResult submitted = service.submit(makeRequest(variants[v]));
        if (!submitted) {
            std::cerr << "rejected: " << submitted.rejection().message
                      << "\n";
            return 1;
        }
        jobs[v] = submitted.takeJob();
    }

    std::int64_t warm_installed = 0;
    std::int64_t warm_hits = 0;
    TextTable table("CoSA across architectures, layer " + layer.name);
    table.setHeader({"arch", "PEs", "cycles", "energy_mJ", "util",
                     "solve_s"});
    for (int v = 0; v < 3; ++v) {
        const ArchSpec& arch = variants[v];
        const SearchResult result =
            jobs[v].wait().front().layers.front().result;
        warm_installed += result.stats.warm_starts_installed;
        warm_hits += result.stats.warm_start_hits;
        if (!result.found) {
            table.addRow({arch.name, "no schedule"});
            continue;
        }
        table.addRow({arch.name, std::to_string(arch.numPEs()),
                      TextTable::fmt(result.eval.cycles, 0),
                      TextTable::fmt(result.eval.energy_pj / 1e9, 3),
                      TextTable::fmt(result.eval.spatial_utilization, 3),
                      TextTable::fmt(result.stats.search_time_sec, 2)});
    }
    table.print(std::cout);

    // Re-query the baseline: identical (layer, arch, scheduler) triple,
    // so this is a pure cache hit — no solve happens.
    service.submit(makeRequest(variants[0])).takeJob().wait();
    const ScheduleCacheStats stats = cache->stats();
    std::cout << "\nschedule cache: " << stats.entries << " entries, "
              << stats.hits << " hits / " << stats.misses
              << " misses across the sweep\n";
    std::cout << "nearest-neighbor warm starts: " << stats.neighbor_hits
              << " candidates, " << warm_installed << " installed, "
              << warm_hits << " accepted as MIP incumbents\n";
    const ServiceStats service_stats = service.stats();
    std::cout << "service: " << service_stats.completed
              << " concurrent sweep jobs on "
              << service.config().num_threads << " shared workers ("
              << service_stats.executor.steals << " cross-job steals)\n";

    std::cout << "\nGreedy reference schedule on the baseline:\n"
              << greedyMapping(layer, ArchSpec::simbaBaseline())
                     .toString(ArchSpec::simbaBaseline());
    return 0;
}
