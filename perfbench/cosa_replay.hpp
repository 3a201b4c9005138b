#pragma once

/**
 * @file
 * Layer-by-layer replay of one CoSA solve for the traced run: the same
 * public calls, in the same order, that CosaScheduler::schedule makes —
 * CosaFormulation, solve, extractMapping, Evaluator::bind /
 * searchEvaluate, greedyMapping — with a span around each and
 * validateMapping as the independent check of the winner.
 */

#include <cstdint>
#include <vector>

#include "common/json.hpp"
#include "cosa/formulation.hpp"
#include "model/evaluator.hpp"

namespace perfbench {

/** Counts summed over every replayed solve of a run. */
struct ReplayTotals
{
    std::int64_t solves = 0;
    std::int64_t proven = 0; //!< solves that ended Optimal
    std::int64_t rows = 0;
    std::int64_t cols = 0;
    std::int64_t lp_iterations = 0;
    std::int64_t mip_nodes = 0;
    std::int64_t lu_factorizations = 0;
    std::int64_t lu_eta_updates = 0;
    std::int64_t evals = 0;
    std::int64_t invalid = 0; //!< winners failing validateMapping
    double presolve_s = 0.0;
    double root_lp_s = 0.0;
    double tree_s = 0.0;
    double log_gap_sum = 0.0;

    /** Set the count-based per-layer metrics on @p layer. */
    void writeTo(cosa::json::Value& layer) const;
};

struct ReplayOutcome
{
    bool found = false;
    cosa::Evaluation eval;
};

/**
 * Replay one (layer, arch) CoSA solve with @p hints as warm starts.
 * Adds to @p totals and fills @p row with the per-layer breakdown.
 */
ReplayOutcome replayCosa(const cosa::LayerSpec& layer,
                         const cosa::ArchSpec& arch,
                         const cosa::CosaConfig& config,
                         const std::vector<cosa::Mapping>& hints,
                         ReplayTotals& totals, cosa::json::Value& row);

} // namespace perfbench
