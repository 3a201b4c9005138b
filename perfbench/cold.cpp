/**
 * @file
 * Workload resnet50_cold: one caller sends whole-network CoSA queries,
 * one at a time, to an in-process SchedulerService (executor width 4)
 * with a private cache, so every query pays all 23 unique solves of
 * ResNet-50's 53 instances. The seed permutes the instance order.
 *
 * The traced run adds one spanned query and then replays the query's
 * unique problems through the CoSA layers one call at a time
 * (cosa_replay.hpp).
 */

#include <iostream>
#include <map>

#include "bench.hpp"
#include "common/rng.hpp"
#include "cosa_replay.hpp"
#include "engine/scheduler_service.hpp"
#include "problem/workloads.hpp"
#include "server/wire.hpp"

namespace perfbench {
namespace {

using cosa::json::Value;

constexpr int kColdWidth = 4;
constexpr int kSetupRepeats = 3;

cosa::ScheduleRequest
coldRequest(const Options& options)
{
    cosa::ScheduleRequest request;
    cosa::Workload net = cosa::workloads::resNet50Full();
    cosa::Rng rng(options.seed);
    rng.shuffle(net.layers);
    request.workloads.push_back(std::move(net));
    request.arch = cosa::ArchSpec::simbaBaseline();
    request.scheduler = cosa::SchedulerKind::Cosa;
    request.tag = "resnet50_cold";
    // The smoke setting keeps the whole path but cuts each solve short.
    if (options.smoke)
        request.cosa.mip.work_limit = 300;
    return request;
}

/** Submit @p request and wait; empty when it was not admitted. */
std::vector<cosa::NetworkResult>
runQuery(cosa::SchedulerService& service, const cosa::ScheduleRequest& request,
         double* seconds)
{
    const double start = nowSec();
    cosa::SubmitResult submitted = service.submit(request);
    std::vector<cosa::NetworkResult> results;
    if (submitted.accepted())
        results = submitted.job().wait();
    *seconds = nowSec() - start;
    return results;
}

/** Schedules of the query's unique problems that fail validateMapping
 *  (check a). */
std::int64_t
invalidSchedules(const cosa::NetworkResult& net, const cosa::ArchSpec& arch)
{
    std::int64_t invalid = 0;
    for (const cosa::LayerScheduleResult& lr : net.layers) {
        if (lr.deduplicated)
            continue;
        if (!lr.result.found ||
            !cosa::validateMapping(lr.result.mapping, lr.layer, arch).valid)
            ++invalid;
    }
    return invalid;
}

} // namespace

bool
runResnet50Cold(const Options& options, Value& report)
{
    const cosa::ScheduleRequest request = coldRequest(options);
    cosa::ServiceConfig config;
    config.num_threads = kColdWidth;

    // Set-up: service start plus one untimed query, repeated so the
    // reported set-up time is a median.
    const int repeats = options.smoke || options.trace ? 1 : kSetupRepeats;
    std::unique_ptr<cosa::SchedulerService> service;
    std::vector<cosa::NetworkResult> reference;
    Value setup = Value::array();
    for (int k = 0; k < repeats; ++k) {
        service.reset();
        const double start = nowSec();
        service = std::make_unique<cosa::SchedulerService>(config);
        double query_seconds = 0.0;
        reference = runQuery(*service, request, &query_seconds);
        setup.push(nowSec() - start);
        if (reference.size() != 1) {
            std::cerr << "perfbench: set-up query was not admitted\n";
            return false;
        }
    }
    const cosa::NetworkResult& ref = reference.front();
    const std::string ref_bytes = cosa::server::resultsToJson(reference).dump();
    const std::int64_t invalid = invalidSchedules(ref, request.arch);

    // Check b: every query of the run returns the set-up query's bytes
    // and LP-iteration total.
    auto matches = [&](const std::vector<cosa::NetworkResult>& results) {
        return results.size() == 1 && results.front().all_found &&
               !results.front().cancelled &&
               results.front().search.lp_iterations ==
                   ref.search.lp_iterations &&
               cosa::server::resultsToJson(results).dump() == ref_bytes;
    };

    std::int64_t attempted = 0;
    std::int64_t mismatched = 0; //!< queries failing check b
    std::int64_t replay_failures = 0;
    Value latencies = Value::array();
    Value layer = Value::object();
    Value findings = Value::object();
    Value rows = Value::array();
    double wall = 0.0;
    if (!options.trace) {
        const double start = nowSec();
        do {
            double seconds = 0.0;
            const auto results = runQuery(*service, request, &seconds);
            ++attempted;
            if (!matches(results))
                ++mismatched;
            latencies.push(seconds);
        } while (nowSec() - start < options.seconds);
        wall = nowSec() - start;
    } else {
        // One untimed-span query, then the same query inside a span:
        // their difference is the tracing overhead on the query path.
        double untraced = 0.0;
        const auto plain = runQuery(*service, request, &untraced);
        ++attempted;
        if (!matches(plain))
            ++mismatched;

        Spans::global().setEnabled(true);
        const cosa::ServiceStats before = service->stats();
        Span query_span("engine.query", 0, 1);
        double traced = 0.0;
        const auto results = runQuery(*service, request, &traced);
        query_span.end();
        const cosa::ServiceStats after = service->stats();
        ++attempted;
        if (!matches(results))
            ++mismatched;
        findings.set("untraced_query_s", untraced);
        findings.set("traced_query_s", traced);

        const cosa::NetworkResult& net =
            results.empty() ? ref : results.front();
        double search_seconds = 0.0;
        for (const cosa::LayerScheduleResult& lr : net.layers) {
            if (!lr.deduplicated && !lr.from_cache)
                search_seconds += lr.result.stats.search_time_sec;
        }
        layer.set("engine.dedup_ratio",
                  static_cast<double>(net.num_unique) /
                      static_cast<double>(net.num_layers));
        layer.set("engine.cache_hit_ratio",
                  static_cast<double>(net.num_cache_hits) /
                      static_cast<double>(net.num_unique));
        layer.set("engine.warm_hint_hit_ratio",
                  net.num_warm_hints == 0
                      ? 0.0
                      : static_cast<double>(net.num_warm_hits) /
                            static_cast<double>(net.num_warm_hints));
        layer.set("engine.parallel_eff",
                  search_seconds / (kColdWidth * traced));
        layer.set("engine.executor_tasks",
                  after.executor.tasks_executed -
                      before.executor.tasks_executed);
        layer.set("engine.executor_steals",
                  after.executor.steals - before.executor.steals);
        layer.set("engine.queue_wait_ms",
                  1e3 * after.tiers[static_cast<int>(
                                        cosa::JobPriority::Normal)]
                            .meanQueueWaitSec());

        // Replay the unique problems in unique-index order; the LP work
        // must add up to the query's own total exactly.
        std::map<int, const cosa::LayerScheduleResult*> unique;
        std::map<int, std::int64_t> instances;
        for (const cosa::LayerScheduleResult& lr : ref.layers) {
            unique.emplace(lr.unique_index, &lr);
            ++instances[lr.unique_index];
        }
        ReplayTotals totals;
        std::int64_t eval_mismatches = 0;
        for (const auto& [u, lr] : unique) {
            Value row = Value::object();
            row.set("instances", instances[u]);
            const ReplayOutcome outcome = replayCosa(
                lr->layer, request.arch, request.cosa, {}, totals, row);
            if (!outcome.found ||
                outcome.eval.cycles != lr->result.eval.cycles ||
                outcome.eval.energy_pj != lr->result.eval.energy_pj)
                ++eval_mismatches;
            rows.push(std::move(row));
        }
        ++attempted;
        if (eval_mismatches != 0 ||
            totals.lp_iterations != ref.search.lp_iterations)
            ++replay_failures;
        totals.writeTo(layer);
        layer.set("mapping.invalid", invalid + totals.invalid);
        findings.set("replay_lp_iterations", totals.lp_iterations);
        findings.set("query_lp_iterations", ref.search.lp_iterations);
        findings.set("replay_eval_mismatches", eval_mismatches);
    }

    Value net = Value::object();
    Value cycles = Value::array();
    Value energy = Value::array();
    for (const cosa::LayerScheduleResult& lr : ref.layers) {
        cycles.push(lr.result.eval.cycles);
        energy.push(lr.result.eval.energy_pj);
    }
    net.set("cycles", std::move(cycles));
    net.set("energy_pj", std::move(energy));
    net.set("lp_iterations", ref.search.lp_iterations);
    net.set("mip_nodes", ref.search.mip_nodes);
    net.set("num_layers", ref.num_layers);
    net.set("num_unique", ref.num_unique);

    Value checks = Value::object();
    checks.set("a_invalid_schedules", invalid);
    checks.set("b_mismatched_queries", mismatched);

    Value facts = Value::object();
    facts.set("executor_width", kColdWidth);
    facts.set("clients", 1);
    facts.set("work_limit", request.cosa.mip.work_limit);
    facts.set("setup_repeats", repeats);

    report.set("facts", std::move(facts));
    report.set("setup_s", std::move(setup));
    report.set("attempted", attempted);
    // An invalid schedule is in every query's result.
    report.set("failed", invalid > 0 ? attempted
                                     : mismatched + replay_failures);
    report.set("checks", std::move(checks));
    report.set("latency_s", std::move(latencies));
    report.set("wall_s", wall);
    report.set("net", std::move(net));
    if (options.trace) {
        report.set("layer", std::move(layer));
        report.set("layer_rows", std::move(rows));
        report.set("findings", std::move(findings));
    }
    return true;
}

} // namespace perfbench
