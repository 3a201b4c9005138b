#pragma once

/**
 * @file
 * The modeling front-end of the MIP solver: a small Gurobi-like API that
 * collects variables, linear constraints and a linear objective, and
 * hands a standard-form problem to the branch-and-bound engine.
 */

#include <string>
#include <vector>

#include "common/status.hpp"
#include "solver/basis_lu.hpp"
#include "solver/lin_expr.hpp"
#include "solver/types.hpp"

namespace cosa::solver {

/** Tunable solve parameters (Gurobi-parameter equivalents). */
struct MipParams
{
    double time_limit_sec = 30.0;   //!< wall-clock budget
    /**
     * Deterministic work budget; 0 = unlimited. One unit is a simplex
     * iteration on a ~300-row reference model; larger models charge
     * proportionally more per iteration, so a budget buys comparable
     * effort at any problem size. When set, the search is cut off by
     * accumulated LP work instead of the wall clock, so the solve
     * performs an identical pivot sequence — and returns identical
     * schedules — on any machine at any load; time_limit_sec remains
     * as a wall-clock safety net. The budget is checked between LP
     * solves, so the final node may overshoot it by one re-solve —
     * deterministically. CoSA solves set this by default (reproducible
     * paper tables); plain LP/MIP users keep the wall-clock semantics.
     */
    std::int64_t work_limit = 0;
    double rel_gap = 1e-4;          //!< relative optimality gap to stop at
    double int_tol = 1e-6;          //!< integrality tolerance
    std::int64_t node_limit = 2'000'000; //!< max branch-and-bound nodes
    bool presolve = true;           //!< row/bound presolve before the solve
};

/** Outcome of Model::optimize(). */
struct MipResult
{
    Status status = Status::Infeasible;
    double objective = 0.0;     //!< incumbent objective (model sense)
    double best_bound = 0.0;    //!< proven bound (model sense)
    std::vector<double> values; //!< per-variable values of the incumbent
    /** Trajectory of improving incumbents (most recent last, capped);
     *  every entry is integer-feasible. */
    std::vector<std::vector<double>> incumbent_pool;
    std::int64_t nodes = 0;     //!< branch-and-bound nodes explored
    std::int64_t lp_iterations = 0; //!< total simplex iterations
    double solve_time_sec = 0.0;
    /** Wall-clock phase breakdown: model build + presolve, the root
     *  relaxation, and everything after it (warm-start repairs and the
     *  tree). The three sum to ~solve_time_sec. */
    double presolve_time_sec = 0.0;
    double root_lp_time_sec = 0.0;
    double tree_time_sec = 0.0;
    /** Basis-factorization work summed over every simplex instance the
     *  solve ran (root LP, warm-start repairs, the tree). */
    BasisLu::Stats basis;
    /** Per-setStart() flag: 1 when that start's integer fixing had a
     *  feasible LP completion (it was installed as an incumbent). */
    std::vector<std::uint8_t> start_accepted;
    std::int32_t presolve_rows_removed = 0;   //!< rows dropped by presolve
    std::int32_t presolve_cols_eliminated = 0; //!< fixed columns removed
    std::int32_t presolve_bounds_tightened = 0; //!< lb/ub improvements
    /** Typed cause when the solve failed for a reason other than the
     *  model's mathematics (non-finite input data, numeric trouble in
     *  the simplex). Ok for Optimal/Feasible/Infeasible/limit exits;
     *  accompanies status == NumericalError so callers can report and
     *  route the failure (see common/status.hpp). */
    cosa::Status fault;

    bool
    hasSolution() const
    {
        return status == Status::Optimal || status == Status::Feasible;
    }
};

/**
 * A mixed-integer linear program under construction.
 *
 * Usage:
 *   Model m;
 *   Var x = m.addVar(0, 1, VarType::Binary, "x");
 *   m.addConstr(x + y, Sense::LessEqual, 1.0);
 *   m.setObjective(3.0 * x + y, ObjSense::Maximize);
 *   MipResult r = m.optimize(params);
 */
class Model
{
  public:
    /** Add a variable with the given bounds, domain and debug name. */
    Var addVar(double lb, double ub, VarType type, std::string name = "");

    /** Shorthand for a [0,1] binary variable. */
    Var
    addBinary(std::string name = "")
    {
        return addVar(0.0, 1.0, VarType::Binary, std::move(name));
    }

    /** Shorthand for a bounded continuous variable. */
    Var
    addContinuous(double lb, double ub, std::string name = "")
    {
        return addVar(lb, ub, VarType::Continuous, std::move(name));
    }

    /** Add the linear constraint `expr sense rhs`. Returns its row id. */
    int addConstr(const LinExpr& expr, Sense sense, double rhs,
                  std::string name = "");

    /**
     * Add a continuous variable z constrained to equal the product of two
     * binary variables (McCormick linearization):
     *   z <= x,  z <= y,  z >= x + y - 1,  z in [0, 1].
     */
    Var addBinaryProduct(Var x, Var y, std::string name = "");

    /** Set the (replaceable) linear objective. */
    void setObjective(const LinExpr& expr, ObjSense sense);

    /** Tighten a variable's bounds after creation (e.g. to fix it). */
    void setBounds(Var v, double lb, double ub);

    /**
     * Branch-and-bound picks fractional integer variables of the highest
     * priority first (default 0). Structural decisions (e.g. CoSA's
     * factor-to-level assignment) should outrank tie-break decisions
     * (e.g. permutation ranks).
     */
    void setBranchPriority(Var v, int priority);

    /**
     * Provide a known-feasible starting point (MIP warm start). Only
     * the integer components are used: the solver fixes them and solves
     * an LP for the continuous completion, so auxiliary variables need
     * not be filled in exactly. Ignored if the completion is infeasible.
     */
    void setStart(std::vector<double> values);

    /** Solve with branch and bound. Thread-safe w.r.t. other Models. */
    MipResult optimize(const MipParams& params = {}) const;

    /** Solve only the LP relaxation (integer domains relaxed). */
    MipResult optimizeRelaxation() const;

    int numVars() const { return static_cast<int>(lb_.size()); }
    int numConstrs() const { return static_cast<int>(rhs_.size()); }
    /** Read-only row inspection: folded (column, coefficient) terms. */
    const std::vector<std::pair<int, double>>& rowTerms(int r) const
    {
        return rows_[static_cast<std::size_t>(r)];
    }
    Sense rowSense(int r) const { return senses_[static_cast<std::size_t>(r)]; }
    double rowRhs(int r) const { return rhs_[static_cast<std::size_t>(r)]; }
    /** Objective coefficient of @p v (model sense). */
    double objCoef(Var v) const { return obj_[v.index]; }
    ObjSense objSense() const { return obj_sense_; }
    const std::string& varName(Var v) const { return names_[v.index]; }
    VarType varType(Var v) const { return types_[v.index]; }
    double lowerBound(Var v) const { return lb_[v.index]; }
    double upperBound(Var v) const { return ub_[v.index]; }

    /** Evaluate @p expr at a value vector from a MipResult. */
    static double evalExpr(const LinExpr& expr,
                           const std::vector<double>& values);

  private:
    friend class MipSolver;

    // Column-oriented variable storage.
    std::vector<double> lb_, ub_;
    std::vector<VarType> types_;
    std::vector<std::string> names_;
    std::vector<int> priorities_;

    // Row storage: sparse rows with folded duplicate coefficients.
    std::vector<std::vector<std::pair<int, double>>> rows_;
    std::vector<Sense> senses_;
    std::vector<double> rhs_;
    std::vector<std::string> row_names_;

    // Objective as a dense coefficient vector (internally: minimize).
    std::vector<double> obj_;
    double obj_constant_ = 0.0;
    ObjSense obj_sense_ = ObjSense::Minimize;

    // Optional warm-start points (integer components used), tried in
    // order until one has a feasible completion.
    std::vector<std::vector<double>> start_;
};

} // namespace cosa::solver
