#pragma once

/**
 * @file
 * Common interface for all schedulers (CoSA and the search baselines):
 * given a layer and an architecture, produce a mapping plus evaluation
 * and search statistics (samples drawn, valid schedules evaluated,
 * wall-clock time) for the paper's Table VI comparison.
 */

#include <cstdint>
#include <string>

// SearchObjective, objectiveValue() and the pluggable evaluation
// backends live with the models; mappers re-export them because every
// scheduler config embeds an objective and every schedule() call can
// take an Evaluator.
#include "common/status.hpp"
#include "model/evaluator.hpp"

namespace cosa {

/** Statistics of one scheduling run (Table VI columns). */
struct SearchStats
{
    std::int64_t samples = 0;          //!< mappings drawn/constructed
    std::int64_t valid_evaluated = 0;  //!< valid mappings evaluated
    double search_time_sec = 0.0;      //!< wall-clock time to solution
    std::int64_t mip_nodes = 0;        //!< branch-and-bound nodes (CoSA)
    std::int64_t lp_iterations = 0;    //!< simplex iterations (CoSA)
    /** Cross-layer warm-start hints that survived validation and were
     *  installed as MIP starts. */
    std::int64_t warm_starts_installed = 0;
    /** Installed hints the MIP accepted as incumbents. */
    std::int64_t warm_start_hits = 0;
    // Solver-phase breakdown (CoSA only; zero for sampling mappers).
    // Mirrors MipResult: presolve + root LP + tree ~ the MIP wall time.
    double presolve_time_sec = 0.0;
    double root_lp_time_sec = 0.0;
    double tree_time_sec = 0.0;
    // Basis-factorization work (CoSA only; see BasisLu::Stats for the
    // trigger semantics).
    std::int64_t lu_factorizations = 0;
    std::int64_t lu_eta_updates = 0;
    std::int64_t lu_unstable_updates = 0;
    std::int64_t lu_fill_refactor_requests = 0;

    /** Field-wise accumulation (network roll-ups). */
    void
    add(const SearchStats& other)
    {
        samples += other.samples;
        valid_evaluated += other.valid_evaluated;
        search_time_sec += other.search_time_sec;
        mip_nodes += other.mip_nodes;
        lp_iterations += other.lp_iterations;
        warm_starts_installed += other.warm_starts_installed;
        warm_start_hits += other.warm_start_hits;
        presolve_time_sec += other.presolve_time_sec;
        root_lp_time_sec += other.root_lp_time_sec;
        tree_time_sec += other.tree_time_sec;
        lu_factorizations += other.lu_factorizations;
        lu_eta_updates += other.lu_eta_updates;
        lu_unstable_updates += other.lu_unstable_updates;
        lu_fill_refactor_requests += other.lu_fill_refactor_requests;
    }
};

/** Outcome of one scheduling run. */
struct SearchResult
{
    bool found = false;
    Mapping mapping;
    Evaluation eval;
    SearchStats stats;
    std::string scheduler;
    /** Typed cause when the run produced nothing because of a *fault*
     *  (solver numeric trouble, a poisoned model) rather than a
     *  genuinely empty search, or kInvalidInput when the exhaustive
     *  oracle refuses a layer too large to enumerate. Ok — including
     *  for found == false — on any fault-free run, so results stay
     *  bit-identical to the pre-firewall stack. The service firewall
     *  routes faults into retries and the degradation ladder. */
    Status status;
};

/** Monotonic wall clock in seconds (shared by all schedulers). */
double wallTimeSec();

} // namespace cosa
