#include "cosa/scheduler.hpp"

#include "common/logging.hpp"
#include "common/trace.hpp"
#include "cosa/greedy.hpp"

namespace cosa {

CosaScheduler::CosaScheduler(CosaConfig config, SearchObjective objective)
    : config_(std::move(config)), objective_(objective)
{
}

SearchResult
CosaScheduler::schedule(const LayerSpec& layer, const ArchSpec& arch) const
{
    return schedule(layer, arch, {});
}

SearchResult
CosaScheduler::schedule(const LayerSpec& layer, const ArchSpec& arch,
                        const std::vector<Mapping>& warm_hints) const
{
    return schedule(layer, arch, warm_hints, defaultEvaluator());
}

SearchResult
CosaScheduler::schedule(const LayerSpec& layer, const ArchSpec& arch,
                        const std::vector<Mapping>& warm_hints,
                        const Evaluator& evaluator) const
{
    const double start = wallTimeSec();
    SearchResult result;
    result.scheduler = "CoSA";

    trace::Span span("cosa.schedule", "cosa");
    span.arg(layer.name);

    CosaFormulation formulation(layer, arch, config_);

    // Cross-layer warm starts: refit each hint to this layer's factor
    // pool and keep the ones that survive the true (shared-buffer)
    // validity check; the MIP's LP completion re-checks them against
    // the formulation's own capacity splits.
    // Hints install first, so they occupy the leading setStart() slots
    // and mip.start_accepted[0 .. hints-1] reports their acceptance.
    std::vector<Mapping> hint_schedules;
    int hints_installed = 0;
    for (const Mapping& hint : warm_hints) {
        std::vector<double> values = formulation.encodeMapping(hint);
        Mapping refit = formulation.extractMapping(values);
        if (!validateMapping(refit, layer, arch).valid)
            continue;
        formulation.model().setStart(std::move(values));
        hint_schedules.push_back(std::move(refit));
        ++hints_installed;
    }

    solver::MipResult mip;
    const auto mapping = formulation.solve(&mip);
    result.stats.samples = 1;
    result.stats.mip_nodes = mip.nodes;
    result.stats.lp_iterations = mip.lp_iterations;
    result.stats.presolve_time_sec = mip.presolve_time_sec;
    result.stats.root_lp_time_sec = mip.root_lp_time_sec;
    result.stats.tree_time_sec = mip.tree_time_sec;
    result.stats.lu_factorizations = mip.basis.factorizations;
    result.stats.lu_eta_updates = mip.basis.eta_updates;
    result.stats.lu_unstable_updates = mip.basis.unstable_updates;
    result.stats.lu_fill_refactor_requests =
        mip.basis.fill_refactor_requests;
    result.stats.warm_starts_installed = hints_installed;
    for (int h = 0; h < hints_installed; ++h) {
        if (h < static_cast<int>(mip.start_accepted.size()) &&
            mip.start_accepted[static_cast<std::size_t>(h)])
            ++result.stats.warm_start_hits;
    }

    // The solver's improving-incumbent trajectory consists entirely of
    // feasible schedules; evaluate them once each and keep the best
    // (the MIP objective is a proxy, so the newest incumbent is not
    // always the best schedule under the full evaluation platform).
    const auto bound = evaluator.bind(layer, arch);
    CandidateSelector select(evaluator, *bound, objective_);
    auto consider = [&](const Mapping& candidate) {
        const Evaluation ev = bound->searchEvaluate(candidate);
        if (!ev.valid)
            return;
        select.offer(candidate, ev);
    };
    if (mapping)
        consider(*mapping);
    for (const auto& values : mip.incumbent_pool)
        consider(formulation.extractMapping(values));
    // The greedy warm-start schedule is a guaranteed-valid floor (the
    // MIP may reject it as a start when it straddles the per-tensor
    // capacity split, and very tight time limits can leave the solver
    // without an incumbent, so score the greedy schedule directly).
    const Mapping greedy = greedyMapping(layer, arch);
    consider(greedy);
    // Valid neighbor hints compete directly too: on arch sweeps the
    // refit of a neighboring layer's schedule is occasionally better
    // under the full model than anything the budgeted MIP reached.
    for (const Mapping& hint : hint_schedules)
        consider(hint);

    auto winner = select.finalize();
    if (!winner) {
        // A re-scoring backend may reject every kept candidate (a failed
        // simulation); the greedy floor serves if the full platform can.
        if (Evaluation ev = bound->evaluate(greedy); ev.valid)
            winner = CandidateSelector::Winner{greedy, std::move(ev)};
    }
    if (winner) {
        result.found = true;
        result.mapping = std::move(winner->mapping);
        result.eval = std::move(winner->eval);
    }
    result.stats.search_time_sec = wallTimeSec() - start;
    if (!result.found) {
        // Distinguish a solver *fault* (typed, firewall-routable) from
        // a genuinely empty search: the MIP's typed fault propagates
        // only when nothing — incumbents, greedy floor, hints — scored.
        if (mip.status == solver::Status::NumericalError &&
            !mip.fault.ok()) {
            result.status =
                mip.fault.withContext("layer " + layer.name);
        }
        warn("CoSA: extracted schedules failed validation for layer ",
             layer.name);
        return result;
    }
    result.stats.valid_evaluated = 1;
    return result;
}

} // namespace cosa
