#pragma once

/**
 * @file
 * Depth-first branch and bound over the LP relaxation.
 *
 * Strategy: presolve the standard-form problem (row elimination + bound
 * tightening with a postsolve map), solve the root LP with the primal
 * simplex; each descent fixes one fractional integer variable and
 * re-solves with the warm-started dual simplex (bound changes keep the
 * parent basis dual feasible). Backtracking restores the branched
 * variable's bounds, and the sibling re-solves warm from the current
 * basis, with no basis reload. The dive direction follows the LP value,
 * so the first leaf reached is already a good incumbent (built-in
 * diving heuristic). Pruning uses the incumbent and a relative gap
 * tolerance.
 *
 * The search runs entirely in the presolved (reduced) variable space;
 * every solution that escapes — incumbents, pool entries, relaxation
 * values — is postsolved back to the model's variable space first.
 */

#include <memory>
#include <vector>

#include "solver/model.hpp"
#include "solver/presolve.hpp"
#include "solver/simplex.hpp"

namespace cosa::solver {

/** Branch-and-bound MIP solver over a Model. */
class MipSolver
{
  public:
    MipSolver(const Model& model, const MipParams& params);

    /** Run the solve; with @p relaxation_only just the root LP. */
    MipResult solve(bool relaxation_only);

  private:
    const Model& model_;
    MipParams params_;
    LpProblem lp_;               //!< reduced (presolved) problem
    /** Presolve run with the reduced->original maps; kept whenever
     *  presolve ran feasibly (even reduction-free runs, whose maps are
     *  then identities); null when params disable presolve or it
     *  proved infeasibility. */
    std::unique_ptr<Presolve> presolve_;
    bool presolve_infeasible_ = false;
    /** Wall time of buildLp() (standard-form build + presolve), for the
     *  MipResult phase breakdown. */
    double presolve_time_sec_ = 0.0;
    std::vector<int> int_vars_;  //!< reduced columns with integral domains
    std::vector<int> priorities_; //!< branch priority per reduced column
    double sign_ = 1.0;          //!< +1 minimize, -1 maximize
    double fixed_obj_ = 0.0;     //!< internal objective of eliminated cols
    /** Work units consumed before the tree search (root LP and
     *  warm-start repairs); the tree gets what remains of work_limit. */
    std::int64_t work_used_ = 0;
    /** Raw simplex iterations (unscaled), for MipResult reporting. */
    std::int64_t iters_used_ = 0;
    /** Work units one simplex iteration costs on this problem (scales
     *  with the row count so a budget means comparable effort on small
     *  and large models). */
    std::int64_t work_per_iter_ = 1;
    /** Sink for the improving-incumbent trajectory during solve(). */
    std::vector<std::vector<double>>* incumbent_pool_ = nullptr;

    void buildLp();
    /** Reduced-space solution -> model variable space. */
    std::vector<double> toModelSpace(std::vector<double> x) const;
    /** Iteration count at which @p splx must stop to respect the
     *  remaining work budget (Simplex copies inherit their source's
     *  iteration counter, so the cap is relative to the entry count). */
    std::int64_t workDeadline(const Simplex& splx) const;
    /** Pick the branching variable: most fractional integer column. */
    int selectBranchVar(const std::vector<double>& x) const;
    /** The depth-first dive-and-backtrack search; see the .cpp comment. */
    bool dfs(Simplex& splx, double deadline, std::int64_t work_deadline,
             double& incumbent_obj, std::vector<double>& incumbent_x,
             std::int64_t& nodes);
};

} // namespace cosa::solver
