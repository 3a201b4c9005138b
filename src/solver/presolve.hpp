#pragma once

/**
 * @file
 * LP/MIP presolve: shrink a standard-form problem before the simplex
 * ever sees it, with an exact postsolve map back to the original
 * variable space.
 *
 * Reductions performed (to a fixed point, at most four rounds):
 *  - empty rows: dropped after a feasibility check of their rhs;
 *  - singleton rows (one nonzero): converted into a variable bound and
 *    dropped — CoSA models carry many indicator-link rows that collapse
 *    this way once neighbors are fixed;
 *  - activity-based bound tightening: each row's residual activity
 *    implies bounds on its variables (rounded inward for integers);
 *  - redundant rows: rows their variables' bounds already satisfy at
 *    the worst case are dropped;
 *  - fixed columns (lb == ub): substituted into every row's rhs and the
 *    objective, and eliminated from the reduced problem.
 *
 * All reductions are primal-feasibility preserving for the *integer*
 * problem as well (no dual reductions), so branch-and-bound on the
 * reduced problem explores the same solution set.
 */

#include <cstdint>
#include <vector>

#include "solver/simplex.hpp"
#include "solver/types.hpp"

namespace cosa::solver {

/** Reduction counters of one presolve run. */
struct PresolveStats
{
    int empty_rows = 0;       //!< removed rows with no (live) coefficients
    int singleton_rows = 0;   //!< rows converted into a variable bound
    int redundant_rows = 0;   //!< rows implied by the variable bounds
    int cols_eliminated = 0;  //!< fixed columns substituted out
    int bounds_tightened = 0; //!< individual lb/ub improvements

    int rowsRemoved() const
    {
        return empty_rows + singleton_rows + redundant_rows;
    }
};

/**
 * One presolve run over an LpProblem. The reduced problem keeps the
 * original row and column order (minus removals), so simplex behavior
 * on an unreducible problem is unchanged.
 */
class Presolve
{
  public:
    /**
     * Run presolve on @p original. @p types gives per-column domains for
     * integral rounding; pass an empty vector for an all-continuous LP.
     */
    Presolve(const LpProblem& original, const std::vector<VarType>& types);

    /** True when presolve proved the problem has no feasible point. */
    bool infeasible() const { return infeasible_; }

    /** The reduced problem (valid only when !infeasible()). */
    const LpProblem& reduced() const { return reduced_; }

    const PresolveStats& stats() const { return stats_; }

    /** Reduced column index of an original column; -1 if eliminated. */
    int reducedCol(int orig) const { return col_to_reduced_[orig]; }

    /** Original column index of a reduced column. */
    int origCol(int reduced) const { return reduced_to_col_[reduced]; }

    int numReducedCols() const
    {
        return static_cast<int>(reduced_to_col_.size());
    }

    /** Objective contribution of the eliminated (fixed) columns, in the
     *  original problem's objective space. */
    double fixedObjective() const { return fixed_objective_; }

    /**
     * Map a reduced-space solution back to the original variable space:
     * surviving columns copy through, eliminated columns take their
     * fixed values.
     */
    std::vector<double> postsolve(const std::vector<double>& reduced_x) const;

    /** Project an original-space point onto the reduced space. */
    std::vector<double> restrict(const std::vector<double>& orig_x) const;

  private:
    bool run(const LpProblem& original, const std::vector<VarType>& types);
    void extract(const LpProblem& original);

    // Working bound arrays in original column space.
    std::vector<double> lb_, ub_;
    std::vector<char> row_alive_, col_alive_;
    std::vector<double> rhs_;          //!< original rhs (rows keep senses)
    std::vector<double> fixed_value_;  //!< value of eliminated columns

    std::vector<int> col_to_reduced_;
    std::vector<int> reduced_to_col_;
    double fixed_objective_ = 0.0;

    LpProblem reduced_;
    PresolveStats stats_;
    bool infeasible_ = false;
};

} // namespace cosa::solver
