#include "cosa_replay.hpp"

#include <cmath>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "cosa/greedy.hpp"

namespace perfbench {

using cosa::json::Value;

namespace {

/** Gaps of exactly 0 are floored here so the geometric mean stays
 *  defined; the floor sits far below the solver's 5e-3 gap limit. */
constexpr double kGapFloor = 1e-12;

} // namespace

void
ReplayTotals::writeTo(Value& layer) const
{
    const double n = std::max<double>(1.0, static_cast<double>(solves));
    layer.set("cosa.rows", rows);
    layer.set("cosa.cols", cols);
    layer.set("solver.lp_iterations", lp_iterations);
    layer.set("solver.mip_nodes", mip_nodes);
    layer.set("solver.presolve_s", presolve_s);
    layer.set("solver.root_lp_s", root_lp_s);
    layer.set("solver.tree_s", tree_s);
    layer.set("solver.lu_factorizations", lu_factorizations);
    layer.set("solver.lu_eta_updates", lu_eta_updates);
    layer.set("solver.proven_frac",
              solves == 0 ? 0.0 : static_cast<double>(proven) / n);
    layer.set("solver.gap_geomean",
              solves == 0 ? 0.0 : std::exp(log_gap_sum / n));
    layer.set("model.evals", evals);
}

ReplayOutcome
replayCosa(const cosa::LayerSpec& layer, const cosa::ArchSpec& arch,
           const cosa::CosaConfig& config,
           const std::vector<cosa::Mapping>& hints, ReplayTotals& totals,
           Value& row)
{
    Span root("replay.layer");
    root.arg("layer", layer.label());
    const std::int64_t parent = root.id();

    Span build("cosa.build", parent);
    cosa::CosaFormulation formulation(layer, arch, config);
    build.end();

    // Hints install first and in order, exactly as CosaScheduler does:
    // the MIP's starts, and so its search, follow that order.
    std::vector<cosa::Mapping> hint_schedules;
    if (!hints.empty()) {
        Span span("cosa.hint", parent);
        for (const cosa::Mapping& hint : hints) {
            std::vector<double> values = formulation.encodeMapping(hint);
            cosa::Mapping refit = formulation.extractMapping(values);
            if (!cosa::validateMapping(refit, layer, arch).valid)
                continue;
            formulation.model().setStart(std::move(values));
            hint_schedules.push_back(std::move(refit));
        }
    }

    cosa::solver::MipResult mip;
    Span solve("solver.solve", parent);
    const std::optional<cosa::Mapping> mapping = formulation.solve(&mip);
    solve.end();

    Span bind("model.bind", parent);
    const cosa::Evaluator& evaluator = cosa::defaultEvaluator();
    const std::unique_ptr<cosa::BoundEvaluator> bound =
        evaluator.bind(layer, arch);
    bind.end();
    cosa::CandidateSelector select(evaluator, *bound,
                                   cosa::SearchObjective::Latency);
    double eval_seconds = 0.0;
    std::int64_t evals = 0;
    auto consider = [&](const cosa::Mapping& candidate) {
        Span span("model.eval", parent);
        const cosa::Evaluation ev = bound->searchEvaluate(candidate);
        span.end();
        eval_seconds += span.seconds();
        ++evals;
        if (ev.valid)
            select.offer(candidate, ev);
    };
    if (mapping)
        consider(*mapping);
    double extract_seconds = 0.0;
    for (const auto& values : mip.incumbent_pool) {
        Span span("cosa.extract", parent);
        const cosa::Mapping candidate = formulation.extractMapping(values);
        span.end();
        extract_seconds += span.seconds();
        consider(candidate);
    }
    Span greedy_span("cosa.greedy", parent);
    const cosa::Mapping greedy = cosa::greedyMapping(layer, arch);
    greedy_span.end();
    consider(greedy);
    for (const cosa::Mapping& hint : hint_schedules)
        consider(hint);

    ReplayOutcome outcome;
    if (auto winner = select.finalize()) {
        Span span("mapping.validate", parent);
        const bool valid =
            cosa::validateMapping(winner->mapping, layer, arch).valid;
        span.end();
        outcome.found = true;
        outcome.eval = std::move(winner->eval);
        if (!valid)
            ++totals.invalid;
    } else {
        ++totals.invalid;
    }
    root.end();

    const double gap = std::abs(mip.objective - mip.best_bound) /
                       (std::abs(mip.objective) + 1e-9);
    const bool proven = mip.status == cosa::solver::Status::Optimal;

    ++totals.solves;
    totals.proven += proven ? 1 : 0;
    totals.rows += formulation.model().numConstrs();
    totals.cols += formulation.model().numVars();
    totals.lp_iterations += mip.lp_iterations;
    totals.mip_nodes += mip.nodes;
    totals.lu_factorizations += mip.basis.factorizations;
    totals.lu_eta_updates += mip.basis.eta_updates;
    totals.evals += evals;
    totals.presolve_s += mip.presolve_time_sec;
    totals.root_lp_s += mip.root_lp_time_sec;
    totals.tree_s += mip.tree_time_sec;
    totals.log_gap_sum += std::log(std::max(gap, kGapFloor));

    row.set("layer", layer.label());
    row.set("rows", formulation.model().numConstrs());
    row.set("cols", formulation.model().numVars());
    row.set("lp_iterations", mip.lp_iterations);
    row.set("mip_nodes", mip.nodes);
    row.set("lu_factorizations", mip.basis.factorizations);
    row.set("lu_eta_updates", mip.basis.eta_updates);
    row.set("proven", proven);
    row.set("gap", gap);
    row.set("build_ms", 1e3 * build.seconds());
    row.set("solve_s", solve.seconds());
    row.set("presolve_s", mip.presolve_time_sec);
    row.set("root_lp_s", mip.root_lp_time_sec);
    row.set("tree_s", mip.tree_time_sec);
    row.set("extract_ms", 1e3 * extract_seconds);
    row.set("greedy_ms", 1e3 * greedy_span.seconds());
    row.set("evals", evals);
    row.set("eval_ms", 1e3 * eval_seconds);
    row.set("wall_s", root.seconds());
    row.set("cycles", outcome.eval.cycles);
    row.set("energy_uj", outcome.eval.energy_pj * 1e-6);
    return outcome;
}

} // namespace perfbench
