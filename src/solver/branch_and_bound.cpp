#include "solver/branch_and_bound.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/trace.hpp"

namespace cosa::solver {

namespace {

double
now_seconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

/** Nodes between deadline polls: now_seconds() is a syscall-backed
 *  chrono read, and at microsecond-scale warm re-solves per node it was
 *  measurable in profiles. Node/iteration caps still apply every node. */
constexpr std::int64_t kDeadlineCheckMask = 63;

/** Relative tie window of the tree-search decisions that compare
 *  solver-computed floats (branch fractionalities, incumbent
 *  improvements). Mirrors Simplex::kTieRelTol: CoSA's symmetric
 *  variables produce *exact* ties that differ only in rounding noise,
 *  and the tree must not fork on that noise — ties resolve by scan
 *  order instead. */
constexpr double kTieRelTol = 1e-9;

} // namespace

MipSolver::MipSolver(const Model& model, const MipParams& params)
    : model_(model), params_(params)
{
    buildLp();
}

void
MipSolver::buildLp()
{
    trace::Span span("mip.presolve", "solver");
    const double phase_start = now_seconds();
    const int n = model_.numVars();
    const int m = model_.numConstrs();

    LpProblem orig;
    orig.num_rows = m;
    orig.num_structural = n;
    orig.rhs = model_.rhs_;
    orig.senses = model_.senses_;
    orig.lb = model_.lb_;
    orig.ub = model_.ub_;
    orig.obj.assign(static_cast<std::size_t>(n), 0.0);

    sign_ = model_.obj_sense_ == ObjSense::Minimize ? 1.0 : -1.0;
    for (int j = 0; j < n; ++j)
        orig.obj[static_cast<std::size_t>(j)] = sign_ * model_.obj_[j];

    std::vector<Triplet> triplets;
    for (int r = 0; r < m; ++r) {
        for (const auto& [col, coef] : model_.rows_[static_cast<std::size_t>(r)])
            triplets.push_back({r, col, coef});
    }
    orig.matrix = SparseMatrix(m, n, triplets);

    if (params_.presolve) {
        auto pre = std::make_unique<Presolve>(orig, model_.types_);
        if (pre->infeasible()) {
            presolve_infeasible_ = true;
            lp_ = std::move(orig);
        } else {
            fixed_obj_ = pre->fixedObjective();
            lp_ = pre->reduced();
            presolve_ = std::move(pre);
        }
    } else {
        lp_ = std::move(orig);
    }

    // One work unit = one simplex iteration on a ~300-row reference
    // model. Larger models charge proportionally more per iteration
    // (m^3/64 amortized refactorization + m^2 kernels + m*n pricing,
    // the dense tableau's historical cost model), so a fixed
    // work_limit buys comparable solve effort — and comparable
    // schedule quality — across layer sizes, deterministically.
    {
        const double mr = lp_.num_rows;
        const double nr = lp_.num_structural;
        work_per_iter_ = std::max<std::int64_t>(
            1, std::llround((mr * mr * (mr / 64.0 + 5.0) + mr * nr) /
                            1.2e6));
    }

    int_vars_.clear();
    priorities_.assign(static_cast<std::size_t>(lp_.num_structural), 0);
    for (int j = 0; j < lp_.num_structural; ++j) {
        const int orig_col = presolve_ ? presolve_->origCol(j) : j;
        priorities_[static_cast<std::size_t>(j)] = model_.priorities_[orig_col];
        if (model_.types_[orig_col] != VarType::Continuous)
            int_vars_.push_back(j);
    }
    presolve_time_sec_ = now_seconds() - phase_start;
}

std::vector<double>
MipSolver::toModelSpace(std::vector<double> x) const
{
    return presolve_ ? presolve_->postsolve(x) : x;
}

int
MipSolver::selectBranchVar(const std::vector<double>& x) const
{
    // Highest branch priority first; most-fractional within a priority.
    int best = -1;
    int best_prio = 0;
    double best_frac = params_.int_tol;
    for (int j : int_vars_) {
        const double v = x[j];
        const double frac = std::abs(v - std::floor(v + 0.5));
        if (frac <= params_.int_tol)
            continue;
        const int prio = priorities_[static_cast<std::size_t>(j)];
        if (best < 0 || prio > best_prio ||
            (prio == best_prio &&
             frac > best_frac * (1.0 + kTieRelTol))) {
            best = j;
            best_prio = prio;
            best_frac = frac;
        }
    }
    return best;
}

std::int64_t
MipSolver::workDeadline(const Simplex& splx) const
{
    if (params_.work_limit <= 0)
        return std::numeric_limits<std::int64_t>::max();
    return splx.iterations() +
           std::max<std::int64_t>(0, params_.work_limit - work_used_) /
               work_per_iter_;
}

/**
 * Depth-first dive-and-backtrack search over one Simplex instance whose
 * current basis is LP-optimal for its bounds. Updates the incumbent.
 * Returns true when the tree was exhausted (a proof); false when the
 * node cap, the work deadline or the wall deadline cut it short.
 */
bool
MipSolver::dfs(Simplex& splx, double deadline, std::int64_t work_deadline,
               double& incumbent_obj, std::vector<double>& incumbent_x,
               std::int64_t& nodes)
{
    struct Frame
    {
        int var;
        double saved_lb, saved_ub;
        double second_lb, second_ub;
        bool on_second;
        double parent_obj;
    };
    std::vector<Frame> stack;

    auto recover_cold = [&](LpStatus status) {
        if (status == LpStatus::Optimal || status == LpStatus::Infeasible)
            return status;
        return splx.solvePrimal();
    };
    auto cutoff = [&]() {
        return incumbent_obj -
               params_.rel_gap * (std::abs(incumbent_obj) + 1e-9) - 1e-9;
    };

    bool exhausted = false;
    std::int64_t ticks = 0;
    LpStatus node_status = LpStatus::Optimal;

    while (true) {
        if (nodes > params_.node_limit || splx.iterations() > work_deadline)
            break;
        if ((ticks++ & kDeadlineCheckMask) == 0 &&
            now_seconds() > deadline)
            break;

        bool prune = node_status != LpStatus::Optimal;
        if (!prune && std::isfinite(incumbent_obj) &&
            splx.objective() >= cutoff())
            prune = true;

        if (!prune) {
            std::vector<double> x = splx.solution();
            const int branch_var = selectBranchVar(x);
            if (branch_var < 0) {
                if (!std::isfinite(incumbent_obj) ||
                    splx.objective() <
                        incumbent_obj -
                            kTieRelTol * (1.0 + std::abs(incumbent_obj))) {
                    incumbent_obj = splx.objective();
                    incumbent_x = x;
                    if (incumbent_pool_) {
                        incumbent_pool_->push_back(
                            toModelSpace(std::move(x)));
                        if (incumbent_pool_->size() > 8) {
                            incumbent_pool_->erase(
                                incumbent_pool_->begin());
                        }
                    }
                }
                prune = true;
            } else {
                Frame frame;
                frame.var = branch_var;
                frame.saved_lb = splx.varLb(branch_var);
                frame.saved_ub = splx.varUb(branch_var);
                frame.parent_obj = splx.objective();
                frame.on_second = false;

                const double v = x[branch_var];
                const double floor_v = std::floor(v);
                const double ceil_v = floor_v + 1.0;
                // Exactly-half fractions (common in CoSA relaxations)
                // dive down whatever their rounding; only a clear
                // majority side overrides that.
                const bool down_first = (v - floor_v) < 0.5 + kTieRelTol;
                double first_lb, first_ub;
                if (down_first) {
                    first_lb = frame.saved_lb;
                    first_ub = floor_v;
                    frame.second_lb = ceil_v;
                    frame.second_ub = frame.saved_ub;
                } else {
                    first_lb = ceil_v;
                    first_ub = frame.saved_ub;
                    frame.second_lb = frame.saved_lb;
                    frame.second_ub = floor_v;
                }
                splx.setVarBounds(branch_var, first_lb, first_ub);
                stack.push_back(std::move(frame));
                ++nodes;
                node_status = recover_cold(splx.solveDualFromCurrent());
                continue;
            }
        }

        // Backtrack to the deepest frame with an untried sibling.
        bool advanced = false;
        while (!stack.empty()) {
            Frame& frame = stack.back();
            if (!frame.on_second) {
                frame.on_second = true;
                if (std::isfinite(incumbent_obj) &&
                    frame.parent_obj >= cutoff()) {
                    splx.setVarBounds(frame.var, frame.saved_lb,
                                      frame.saved_ub);
                    stack.pop_back();
                    continue;
                }
                splx.setVarBounds(frame.var, frame.second_lb,
                                  frame.second_ub);
                ++nodes;
                // The current basis is dual feasible for any bound set
                // (reduced costs do not depend on bounds), so the
                // sibling re-solves warm from wherever the first
                // child's subtree left the simplex — no basis reload.
                node_status = recover_cold(splx.solveDualFromCurrent());
                advanced = true;
                break;
            }
            splx.setVarBounds(frame.var, frame.saved_lb, frame.saved_ub);
            stack.pop_back();
        }
        if (!advanced && stack.empty()) {
            exhausted = true;
            break;
        }
    }

    // Unwind any remaining frames so the caller sees original bounds.
    while (!stack.empty()) {
        Frame& frame = stack.back();
        splx.setVarBounds(frame.var, frame.saved_lb, frame.saved_ub);
        stack.pop_back();
    }
    return exhausted;
}

MipResult
MipSolver::solve(bool relaxation_only)
{
    const double start = now_seconds();
    const double deadline = start + params_.time_limit_sec;
    MipResult result;
    result.start_accepted.assign(model_.start_.size(), 0);
    result.presolve_time_sec = presolve_time_sec_;
    if (presolve_) {
        result.presolve_rows_removed = presolve_->stats().rowsRemoved();
        result.presolve_cols_eliminated = presolve_->stats().cols_eliminated;
        result.presolve_bounds_tightened =
            presolve_->stats().bounds_tightened;
    }

    if (presolve_infeasible_) {
        result.status = Status::Infeasible;
        result.solve_time_sec = now_seconds() - start;
        return result;
    }

    Simplex base(lp_);
    LpStatus root;
    {
        trace::Span span("mip.root_lp", "solver");
        root = base.solvePrimal();
    }
    iters_used_ = base.iterations();
    work_used_ = base.iterations() * work_per_iter_;
    result.lp_iterations = iters_used_;
    // base's counters start from zero, so its lifetime stats are the
    // root-LP work; clone work below is accounted as exit-minus-entry
    // deltas (copies inherit their source's counters).
    result.basis = base.basisStats();
    result.root_lp_time_sec = now_seconds() - start;

    if (root == LpStatus::Infeasible) {
        result.status = Status::Infeasible;
        return result;
    }
    if (root == LpStatus::Unbounded) {
        result.status = Status::Unbounded;
        return result;
    }
    if (root != LpStatus::Optimal) {
        result.status = Status::NumericalError;
        result.fault = {cosa::ErrorCode::kNumericFailure,
                        "root LP exited with numeric trouble"};
        return result;
    }

    const double obj_const = model_.obj_constant_;
    auto to_model_obj = [&](double internal) {
        return sign_ * (internal + fixed_obj_) + obj_const;
    };
    const double root_bound = base.objective();

    if (relaxation_only) {
        result.status = Status::Optimal;
        result.objective = to_model_obj(base.objective());
        result.best_bound = result.objective;
        result.values = toModelSpace(base.solution());
        result.lp_iterations = iters_used_;
        result.solve_time_sec = now_seconds() - start;
        return result;
    }

    double incumbent_obj = kInf;
    std::vector<double> incumbent_x;
    std::int64_t nodes = 0;
    incumbent_pool_ = &result.incumbent_pool;

    // Phase 0: repair the user-provided warm starts, if any — fix the
    // integer components and solve the LP for the continuous part; the
    // best feasible completion becomes the initial incumbent.
    // The starts run even with the budget already exhausted (a large
    // root LP can eat a small work_limit): each is a cheap fixed-
    // integer completion, and they are the incumbent floor the caller
    // relies on — the budget cuts the tree search, not the repairs.
    for (std::size_t s = 0; s < model_.start_.size(); ++s) {
        const auto& start_values = model_.start_[s];
        trace::Span span("mip.warm_start", "solver");
        Simplex splx = base;
        const std::int64_t entry_iters = splx.iterations();
        const BasisLu::Stats entry_basis = splx.basisStats();
        for (int j : int_vars_) {
            const int orig_col = presolve_ ? presolve_->origCol(j) : j;
            const double v =
                std::clamp(std::floor(start_values[orig_col] + 0.5),
                           splx.varLb(j), splx.varUb(j));
            splx.setVarBounds(j, v, v);
        }
        // A cold primal solve is fast here: with every integer fixed,
        // only the continuous completion remains.
        const LpStatus st = splx.solvePrimal();
        iters_used_ += splx.iterations() - entry_iters;
        work_used_ += (splx.iterations() - entry_iters) * work_per_iter_;
        result.basis.add(splx.basisStats().since(entry_basis));
        if (st == LpStatus::Optimal) {
            result.start_accepted[s] = 1;
            if (!std::isfinite(incumbent_obj) ||
                splx.objective() <
                    incumbent_obj -
                        kTieRelTol * (1.0 + std::abs(incumbent_obj))) {
                incumbent_obj = splx.objective();
                incumbent_x = splx.solution();
            }
        }
    }

    // Phase 1: deterministic dive-and-backtrack. If it exhausts the
    // tree within the budget, the incumbent is proven optimal (or, with
    // no incumbent, the problem is proven infeasible); otherwise a node,
    // work or wall-clock limit cut it short.
    bool proven = false;
    {
        trace::Span span("mip.dfs", "solver");
        Simplex splx = base;
        const std::int64_t entry_iters = splx.iterations();
        const BasisLu::Stats entry_basis = splx.basisStats();
        proven = dfs(splx, deadline, workDeadline(splx), incumbent_obj,
                     incumbent_x, nodes);
        iters_used_ += splx.iterations() - entry_iters;
        result.basis.add(splx.basisStats().since(entry_basis));
    }

    result.nodes = nodes;
    incumbent_pool_ = nullptr;
    result.lp_iterations = iters_used_;
    result.solve_time_sec = now_seconds() - start;
    result.tree_time_sec =
        result.solve_time_sec - result.root_lp_time_sec;

    if (!incumbent_x.empty()) {
        result.values = toModelSpace(std::move(incumbent_x));
        for (int j = 0; j < model_.numVars(); ++j) {
            if (model_.types_[static_cast<std::size_t>(j)] !=
                VarType::Continuous)
                result.values[static_cast<std::size_t>(j)] =
                    std::floor(result.values[static_cast<std::size_t>(j)] +
                               0.5);
        }
        result.objective = to_model_obj(incumbent_obj);
        result.best_bound = to_model_obj(proven ? incumbent_obj : root_bound);
        result.status = proven ? Status::Optimal : Status::Feasible;
        return result;
    }
    result.status = proven ? Status::Infeasible : Status::TimeLimit;
    return result;
}

} // namespace cosa::solver
