/**
 * @file
 * Quickstart: schedule one ResNet-50 layer on the baseline Simba-like
 * accelerator with CoSA through the SchedulerService front door, print
 * the generated loop nest (Listing-1 style) and its analytical
 * evaluation, and cross-check the schedule on the cycle-driven NoC
 * simulator.
 *
 *   ./examples/quickstart [R_P_C_K_Stride]
 *       [--objective {latency,energy,edp}]
 *       [--priority {interactive,normal,batch}] [--deadline-ms N]
 *
 * --objective picks the metric CoSA uses to choose among the solver's
 * feasible schedules (MIP incumbents, greedy floor). --priority and
 * --deadline-ms are the service knobs: the priority tier this query
 * runs at next to other jobs in the process, and an auto-cancel
 * deadline after which the job gives up cooperatively.
 */

#include <cstring>
#include <iostream>

#include "common/flag_value.hpp"
#include "common/logging.hpp"
#include "common/telemetry.hpp"
#include "engine/scheduler_service.hpp"
#include "noc/schedule_sim.hpp"

int
main(int argc, char** argv)
{
    using namespace cosa;

    std::string label = "3_14_256_256_1";
    SearchObjective objective = SearchObjective::Latency;
    JobPriority priority = JobPriority::Normal;
    double deadline_ms = 0.0;
    for (int a = 1; a < argc; ++a) {
        if (parseObjectiveFlag(argc, argv, &a, &objective) ||
            parsePriorityFlag(argc, argv, &a, &priority) ||
            parseTelemetryFlag(argc, argv, &a)) {
            continue;
        } else if (std::strcmp(argv[a], "--deadline-ms") == 0 &&
                   a + 1 < argc) {
            deadline_ms = flagValue(argv, a, 0.0);
        } else if (std::strncmp(argv[a], "--", 2) == 0) {
            fatal("unknown argument \"", argv[a], "\"");
        } else {
            label = argv[a];
        }
    }
    const LayerSpec layer = LayerSpec::fromLabel(label);
    const ArchSpec arch = ArchSpec::simbaBaseline();

    std::cout << "Layer " << layer.name << ": " << layer.macs()
              << " MACs, weights " << layer.tensorElements(Tensor::Weights)
              << " elements\n";
    std::cout << "Architecture: " << arch.name << " (" << arch.numPEs()
              << " PEs x " << arch.macs_per_pe << " MACs)\n\n";

    // The service API in one screen: fold the whole query into a
    // ScheduleRequest and submit it to the process-wide service.
    ScheduleRequest request;
    request.workloads.push_back(
        Workload{"quickstart:" + layer.name, {layer}});
    request.arch = arch;
    request.scheduler = SchedulerKind::Cosa;
    request.objective = objective;
    request.priority = priority;
    request.deadline_sec = deadline_ms / 1000.0;
    request.tag = "quickstart";

    SubmitResult submitted =
        SchedulerService::defaultService().submit(std::move(request));
    if (!submitted) {
        std::cerr << "rejected: " << submitted.rejection().message << "\n";
        return 1;
    }
    const NetworkResult net = submitted.takeJob().wait().front();
    if (net.deadline_expired) {
        std::cerr << "no schedule: the --deadline-ms " << deadline_ms
                  << " budget expired before the solve finished\n";
        return 1;
    }
    const SearchResult& result = net.layers.front().result;
    if (!result.found) {
        std::cerr << "no schedule found\n";
        return 1;
    }

    std::cout << "CoSA schedule (objective "
              << searchObjectiveName(objective) << ", priority "
              << jobPriorityName(priority) << ", solved in "
              << result.stats.search_time_sec << "s):\n"
              << result.mapping.toString(arch) << "\n";
    std::cout << "Analytical model:\n"
              << "  cycles        " << result.eval.cycles << "\n"
              << "  compute       " << result.eval.compute_cycles << "\n"
              << "  memory        " << result.eval.memory_cycles << "\n"
              << "  energy        " << result.eval.energy_pj / 1e9
              << " mJ\n"
              << "  NoC traffic   " << result.eval.noc_bytes / 1e6
              << " MB\n"
              << "  utilization   " << result.eval.spatial_utilization
              << "\n\n";

    ScheduleSimulator sim(layer, arch);
    const SimResult sim_result = sim.simulate(result.mapping);
    if (sim_result.ok) {
        std::cout << "NoC simulator:\n"
                  << "  cycles        " << sim_result.cycles << "\n"
                  << "  PE busy       " << sim_result.pe_busy_fraction
                  << "\n"
                  << "  packets       "
                  << sim_result.noc.packets_injected << "\n"
                  << "  DRAM bursts   "
                  << sim_result.dram_reads + sim_result.dram_writes
                  << "\n";
    } else {
        std::cout << "NoC simulation failed: " << sim_result.error << "\n";
    }
    return 0;
}
