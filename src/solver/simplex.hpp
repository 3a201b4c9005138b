#pragma once

/**
 * @file
 * Bounded-variable revised simplex over a sparse constraint matrix.
 *
 * Supports:
 *  - primal simplex from scratch (phase 1 with artificial variables,
 *    then phase 2),
 *  - dual simplex warm-started from a previously optimal basis after
 *    bound changes (the workhorse of branch-and-bound re-solves),
 *  - bound flips for nonbasic variables (long-step handling of boxed
 *    variables),
 *  - refactorization and a Bland's-rule anti-cycling fallback.
 *
 * The basis is a sparse LU factorization with product-form eta updates
 * and stability-triggered refactorization (basis_lu.hpp). On a common
 * problem it performs the same pivot sequence as the dense-tableau
 * reference solver the tests keep as an oracle; see
 * docs/solver-numerics.md.
 *
 * The problem is held in computational standard form
 *     min c'x   s.t.  A x + s = b,   l <= (x, s) <= u
 * with one slack per row whose bounds encode the row sense.
 *
 * Storage: the structural matrix A is CSC+CSR compressed (CoSA models
 * are >95% zeros) and shared, not copied, across the branch-and-bound
 * tree's Simplex clones. Slack and artificial columns are unit vectors
 * and are never materialized — every kernel (pricing, btran row, ftran,
 * reduced costs) special-cases them in O(1). Nonzeros iterate in row
 * order within a column, so the pivot sequence is identical to the
 * dense tableau this solver replaced.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "solver/basis_lu.hpp"
#include "solver/sparse_matrix.hpp"
#include "solver/types.hpp"

namespace cosa::solver {

/** LP in computational standard form (columns = structural then slack). */
struct LpProblem
{
    int num_rows = 0;
    int num_structural = 0;
    /** Sparse structural matrix (num_rows x num_structural). */
    SparseMatrix matrix;
    std::vector<double> rhs;  // per row
    std::vector<Sense> senses; // per row; encoded into slack bounds
    std::vector<double> obj;  // structural objective coefficients
    std::vector<double> lb, ub; // structural bounds
};

/** Result status of a single LP solve. */
enum class LpStatus {
    Optimal,
    Infeasible,
    Unbounded,
    IterLimit,
    Numerical,
};

/** Snapshot of a simplex basis, sufficient to warm-start a re-solve. */
struct Basis
{
    std::vector<std::int32_t> basic;  //!< var index basic in each row
    std::vector<std::uint8_t> state;  //!< per-column NonbasicState

    bool empty() const { return basic.empty(); }
};

/** Sparse bounded-variable revised simplex solver. */
class Simplex
{
  public:
    /** Load @p prob; slack and artificial columns are added implicitly.
     *  The structural matrix is shared (not copied) by Simplex copies. */
    explicit Simplex(const LpProblem& prob);

    /** Override bounds of a structural column (branch-and-bound). */
    void setVarBounds(int structural_col, double lb, double ub);

    /** Current bounds (structural columns only). */
    double varLb(int structural_col) const { return lb_[structural_col]; }
    double varUb(int structural_col) const { return ub_[structural_col]; }

    /** Cold solve: phase 1 + phase 2 primal simplex. */
    LpStatus solvePrimal();

    /**
     * Warm solve with the dual simplex starting from @p basis, which must
     * have been optimal for some previous bound configuration of this
     * problem (reduced costs are then still dual feasible).
     */
    LpStatus solveDual(const Basis& basis);

    /** Re-solve with the dual simplex from the *current* internal basis.
     *  Numerical when the last refactorization failed (no valid
     *  factors); the caller then re-solves cold. */
    LpStatus solveDualFromCurrent();

    /** Objective value of the last solve. */
    double objective() const { return objective_; }

    /** Primal values of the structural columns after a solve. */
    std::vector<double> solution() const;

    /** Basis snapshot after a successful solve. */
    Basis saveBasis() const;

    /** Total simplex iterations performed by this instance. */
    std::int64_t iterations() const { return iterations_; }

    /** Basis-factorization counters. */
    const BasisLu::Stats& basisStats() const { return lu_.stats(); }

    /** Times the anti-cycling Bland fallback engaged (stall runs). */
    std::int32_t blandActivations() const { return bland_activations_; }

    static constexpr double kTol = 1e-7;     //!< feasibility tolerance
    static constexpr double kPivotTol = 1e-8; //!< minimum pivot magnitude
    /**
     * Relative tie window of every pivot-selection comparison (pricing
     * violations, ratio-test steps and pivot magnitudes): candidates
     * closer than this are treated as mathematically tied, and the tie
     * breaks by scan order (lowest index). CoSA models are packed with
     * symmetric columns whose pivotal quantities are *exactly* equal in
     * real arithmetic but differ in the last ulps between arithmetic
     * orders — without the window, the LU simplex and the dense
     * reference oracle would pick different (equally valid) pivots at
     * such ties and the pivot-sequence equivalence contract would not
     * hold. The window is orders of magnitude above that rounding
     * noise (~1e-14 relative) and below any intentional modeling
     * difference.
     */
    static constexpr double kTieRelTol = 1e-9;
    /**
     * Absolute ratio-test step window (Harris-style): candidate steps
     * within this of the smallest are treated as tied and the largest
     * pivot magnitude wins (then lowest index). Must sit well above
     * rounding noise in the basic values (~1e-12 after
     * hundreds of pivots). Taking a tied-but-larger step drives each
     * losing row past its bound by (t_best - t_i) * |rate_i|, i.e. up
     * to window * |rate_i| — within kTol for the |rate| <= ~100 range
     * CoSA's unit-scale coefficients produce, but not bounded by kTol
     * in general. A transient overshoot is self-repairing: the
     * overshot row prices as a zero-step (degenerate) ratio-test
     * winner on a later iteration, and the dual loop treats it as an
     * ordinary bound violation.
     */
    static constexpr double kRatioTieTol = 1e-9;

  private:
    enum NonbasicState : std::uint8_t {
        kAtLower = 0,
        kAtUpper = 1,
        kBasic = 2,
    };

    int m_ = 0;            //!< rows
    int n_ = 0;            //!< structural + slack columns
    int total_ = 0;        //!< n_ + m_ artificial columns
    int num_structural_ = 0;

    /** Shared immutable structural matrix (slack/artificials implicit). */
    std::shared_ptr<const SparseMatrix> matrix_;
    std::vector<double> b_;
    std::vector<double> c_;      //!< phase-2 costs (artificials: 0)
    std::vector<double> lb_, ub_;
    std::vector<double> art_sign_; //!< +-1 sign of each artificial column

    std::vector<std::int32_t> basic_;   //!< size m_
    std::vector<std::uint8_t> state_;   //!< size total_
    BasisLu lu_;                        //!< LU factors + eta file
    std::vector<double> xb_;            //!< basic variable values
    std::vector<double> work_col_;      //!< scratch: B^-1 * A_j
    std::vector<double> work_row_;      //!< scratch: structural part of
                                        //!< row of B^-1 A
    std::vector<double> work_rho_;      //!< scratch: e_r B^-1
    std::vector<std::int32_t> rho_rows_;  //!< rows with rho_i != 0, ascending
    std::vector<std::int32_t> viol_rows_; //!< scratch: violated rows
    /** Scratch: the basis as one flat CSC, kept across refactorize()
     *  calls so a factorization allocates nothing for its input. */
    std::vector<std::int64_t> basis_start_;
    std::vector<BasisLu::Entry> basis_entries_;
    std::vector<double> dual_y_;        //!< scratch: simplex multipliers
    std::vector<double> redcost_;       //!< scratch: reduced costs

    double objective_ = 0.0;
    std::int64_t iterations_ = 0;
    std::int32_t bland_activations_ = 0;

    double colValue(int j) const; //!< value of a nonbasic column
    /** r -= value * (column j), iterating column j's nonzeros only. */
    void subtractColumn(int j, double value, double* r) const;
    void computeXb();             //!< xb = B^-1 (b - N x_N)
    bool refactorize();           //!< factorize the basis; false if
                                  //!< the basis matrix is singular
    void ftran(int j);            //!< work_col_ = B^-1 * column j
    void btranRow(int r);         //!< work_rho_, rho_rows_ and, per
                                  //!< structural j, (e_r B^-1 A)_j
    void computeDuals(const double* costs);
    void computeReducedCosts(const double* costs);
    void pivot(int entering, int leaving_row, double entering_value);
    double currentObjective(const double* costs) const;

    LpStatus primalLoop(const double* costs, bool phase1);
    LpStatus dualLoop();
    bool phase1Feasible() const;
    void setupInitialArtificialBasis();
};

} // namespace cosa::solver
