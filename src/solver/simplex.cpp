#include "solver/simplex.hpp"

#include <algorithm>
#include <cmath>

#include "common/failpoint.hpp"
#include "common/logging.hpp"
#include "common/trace.hpp"

namespace cosa::solver {

namespace {

constexpr int kRefreshInterval = 64;    // pivots between recomputes of
                                        // the incrementally-updated
                                        // basic values (and duals)
constexpr int kStallLimit = 40;         // degenerate pivots before Bland
constexpr std::int64_t kMaxIterations = 20000;  // cold primal solves
constexpr std::int64_t kMaxDualIterations = 4000; // warm re-solves: fall
    // back to a cold solve instead of grinding a degenerate dual run

} // namespace

Simplex::Simplex(const LpProblem& prob)
{
    m_ = prob.num_rows;
    num_structural_ = prob.num_structural;
    n_ = num_structural_ + m_;       // structural + one slack per row
    total_ = n_ + m_;                // + one artificial per row

    // The structural matrix is immutable for the lifetime of the solve
    // tree; share one compressed copy across all Simplex clones instead
    // of duplicating a dense m x n block per branch-and-bound clone.
    matrix_ = std::make_shared<SparseMatrix>(prob.matrix);
    b_ = prob.rhs;
    c_.assign(total_, 0.0);
    lb_.assign(total_, 0.0);
    ub_.assign(total_, 0.0);
    art_sign_.assign(m_, 1.0);

    for (int j = 0; j < num_structural_; ++j) {
        c_[j] = prob.obj[j];
        lb_[j] = prob.lb[j];
        ub_[j] = prob.ub[j];
        COSA_ASSERT(std::isfinite(lb_[j]) || std::isfinite(ub_[j]),
                    "free variables are not supported (column ", j, ")");
    }
    // Slack columns encode the row sense: Ax + s = b. They are unit
    // vectors and stay implicit; only their bounds are stored.
    for (int r = 0; r < m_; ++r) {
        const int j = num_structural_ + r;
        switch (prob.senses[r]) {
          case Sense::LessEqual:
            lb_[j] = 0.0;
            ub_[j] = kInf;
            break;
          case Sense::GreaterEqual:
            lb_[j] = -kInf;
            ub_[j] = 0.0;
            break;
          case Sense::Equal:
            lb_[j] = 0.0;
            ub_[j] = 0.0;
            break;
        }
    }
    // Artificial columns (also implicit unit vectors) start disabled
    // (fixed at zero); phase 1 opens them and orients their sign toward
    // the initial residual.
    for (int r = 0; r < m_; ++r) {
        const int j = n_ + r;
        lb_[j] = 0.0;
        ub_[j] = 0.0;
    }

    basic_.assign(m_, -1);
    state_.assign(total_, kAtLower);
    work_rho_.assign(m_, 0.0);
    xb_.assign(m_, 0.0);
    work_col_.assign(m_, 0.0);
    work_row_.assign(num_structural_, 0.0);
    rho_rows_.reserve(m_);
    viol_rows_.assign(m_, 0);
    dual_y_.assign(m_, 0.0);
    redcost_.assign(total_, 0.0);
}

void
Simplex::setVarBounds(int structural_col, double lb, double ub)
{
    COSA_ASSERT(structural_col >= 0 && structural_col < num_structural_);
    COSA_ASSERT(lb <= ub);
    lb_[structural_col] = lb;
    ub_[structural_col] = ub;
    // Keep the nonbasic state meaningful under the new bounds.
    if (state_[structural_col] == kAtLower && !std::isfinite(lb))
        state_[structural_col] = kAtUpper;
    if (state_[structural_col] == kAtUpper && !std::isfinite(ub))
        state_[structural_col] = kAtLower;
}

double
Simplex::colValue(int j) const
{
    if (state_[j] == kAtUpper)
        return ub_[j];
    return lb_[j];
}

void
Simplex::subtractColumn(int j, double value, double* r) const
{
    if (j < num_structural_) {
        for (const SparseMatrix::Entry& e : matrix_->column(j))
            r[e.index] -= e.value * value;
    } else if (j < n_) {
        r[j - num_structural_] -= value; // slack: +1 at its row
    } else {
        r[j - n_] -= art_sign_[j - n_] * value;
    }
}

void
Simplex::computeXb()
{
    // r = b - N x_N over all nonbasic columns with nonzero value.
    std::vector<double> r = b_;
    for (int j = 0; j < total_; ++j) {
        if (state_[j] == kBasic)
            continue;
        const double v = colValue(j);
        if (v == 0.0)
            continue;
        subtractColumn(j, v, r.data());
    }
    lu_.ftran(r.data());
    std::copy(r.begin(), r.end(), xb_.begin());
}

bool
Simplex::refactorize()
{
    trace::Span span("simplex.refactorize", "solver", /*fine=*/true);
    COSA_FAILPOINT("simplex.factorize", ErrorCode::kSingularBasis);
    // Gather the basis columns (implicit unit columns included) into
    // one flat CSC, in buffers kept across calls, and hand it to the
    // Markowitz LU; cost scales with fill, not m^3.
    std::vector<std::int64_t>& start = basis_start_;
    std::vector<BasisLu::Entry>& entries = basis_entries_;
    start.assign(1, 0);
    entries.clear();
    for (int col = 0; col < m_; ++col) {
        const int j = basic_[col];
        if (j < num_structural_) {
            const auto column = matrix_->column(j);
            entries.insert(entries.end(), column.begin(), column.end());
        } else if (j < n_) {
            entries.push_back({j - num_structural_, 1.0});
        } else {
            entries.push_back({j - n_, art_sign_[j - n_]});
        }
        start.push_back(static_cast<std::int64_t>(entries.size()));
    }
    return lu_.factorize(m_, start, entries);
}

void
Simplex::ftran(int j)
{
    COSA_FAILPOINT("simplex.ftran", ErrorCode::kNumericFailure);
    // Scatter column j (structural nonzeros, or the implicit unit
    // column of a slack/artificial) and solve against the factors.
    std::fill(work_col_.begin(), work_col_.end(), 0.0);
    if (j < num_structural_) {
        for (const SparseMatrix::Entry& e : matrix_->column(j))
            work_col_[e.index] = e.value;
    } else if (j < n_) {
        work_col_[j - num_structural_] = 1.0;
    } else {
        work_col_[j - n_] = art_sign_[j - n_];
    }
    lu_.ftran(work_col_.data());
}

void
Simplex::btranRow(int r)
{
    // rho = e_r B^-1 (one BTRAN of the unit vector e_r), then
    // work_row_[j] = rho . A_j for every structural column, walking the
    // CSR rows with rho_i != 0 in ascending order, so each sum adds the
    // nonzero terms a column-wise dot product would, in the same order;
    // the skipped terms are exact +-0 additions to a sum that starts at
    // +0. Slack and artificial columns are unit vectors: their entry is
    // a single rho element, nonzero only on rho_rows_.
    std::fill(work_rho_.begin(), work_rho_.end(), 0.0);
    work_rho_[r] = 1.0;
    lu_.btran(work_rho_.data());
    const double* rho = work_rho_.data();
    std::fill(work_row_.begin(), work_row_.end(), 0.0);
    rho_rows_.clear();
    for (int i = 0; i < m_; ++i) {
        const double rho_i = rho[i];
        if (rho_i == 0.0)
            continue;
        rho_rows_.push_back(i);
        for (const SparseMatrix::Entry& e : matrix_->row(i))
            work_row_[e.index] += rho_i * e.value;
    }
}

void
Simplex::computeDuals(const double* costs)
{
    // y = B^-T c_B: one BTRAN.
    for (int i = 0; i < m_; ++i)
        dual_y_[i] = costs[basic_[i]];
    lu_.btran(dual_y_.data());
}

void
Simplex::computeReducedCosts(const double* costs)
{
    for (int j = 0; j < total_; ++j) {
        if (state_[j] == kBasic || ub_[j] - lb_[j] < kTol) {
            redcost_[j] = 0.0;
            continue;
        }
        double acc = 0.0;
        if (j < num_structural_) {
            for (const SparseMatrix::Entry& e : matrix_->column(j))
                acc += dual_y_[e.index] * e.value;
        } else if (j < n_) {
            acc = dual_y_[j - num_structural_];
        } else {
            acc = art_sign_[j - n_] * dual_y_[j - n_];
        }
        redcost_[j] = costs[j] - acc;
    }
}

void
Simplex::pivot(int entering, int leaving_row, double entering_value)
{
    COSA_FAILPOINT("simplex.pivot", ErrorCode::kNumericFailure);
    // Absorb the basis change (work_col_ must hold B^-1 A_entering)
    // as a product-form eta, O(nnz(work_col_)).
    const double alpha_r = work_col_[leaving_row];
    COSA_ASSERT(std::abs(alpha_r) > kPivotTol, "pivot too small: ", alpha_r);
    lu_.update(leaving_row, work_col_.data());
    basic_[leaving_row] = entering;
    state_[entering] = kBasic;
    xb_[leaving_row] = entering_value;
}

double
Simplex::currentObjective(const double* costs) const
{
    double obj = 0.0;
    for (int i = 0; i < m_; ++i)
        obj += costs[basic_[i]] * xb_[i];
    for (int j = 0; j < total_; ++j) {
        if (state_[j] != kBasic && costs[j] != 0.0)
            obj += costs[j] * colValue(j);
    }
    return obj;
}

void
Simplex::setupInitialArtificialBasis()
{
    // All structural and slack columns nonbasic at their closest finite
    // bound; artificials basic holding the residual.
    for (int j = 0; j < n_; ++j) {
        const bool lb_fin = std::isfinite(lb_[j]);
        const bool ub_fin = std::isfinite(ub_[j]);
        if (lb_fin && ub_fin)
            state_[j] = std::abs(lb_[j]) <= std::abs(ub_[j]) ? kAtLower
                                                             : kAtUpper;
        else
            state_[j] = lb_fin ? kAtLower : kAtUpper;
    }
    std::vector<double> residual = b_;
    for (int j = 0; j < n_; ++j) {
        const double v = colValue(j);
        if (v == 0.0)
            continue;
        subtractColumn(j, v, residual.data());
    }
    for (int r = 0; r < m_; ++r) {
        const int j = n_ + r;
        const double sign = residual[r] < 0.0 ? -1.0 : 1.0;
        art_sign_[r] = sign;
        lb_[j] = 0.0;
        ub_[j] = kInf; // opened for phase 1
        basic_[r] = j;
        state_[j] = kBasic;
        xb_[r] = std::abs(residual[r]);
    }
    // Factorizing a signed identity is trivial and cannot fail.
    refactorize();
}

LpStatus
Simplex::primalLoop(const double* costs, bool phase1)
{
    int since_refresh = 0;
    int stall = 0;
    bool bland = false;

    for (std::int64_t iter = 0; iter < kMaxIterations; ++iter) {
        ++iterations_;
        ++since_refresh;
        // Refactorize when the LU asks (eta growth/fill triggers, with
        // the eta count cap as the hard backstop), and recompute the
        // incrementally-updated basic values after every
        // refactorization and at least every kRefreshInterval pivots:
        // one cheap FTRAN bounds their drift, the same cadence the
        // dense reference oracle refreshes on.
        const bool refactor = lu_.needsRefactorization();
        if (refactor && !refactorize())
            return LpStatus::Numerical;
        if (refactor || since_refresh >= kRefreshInterval) {
            computeXb();
            since_refresh = 0;
        }
        computeDuals(costs);
        computeReducedCosts(costs);

        // Entering column: Dantzig pricing, Bland fallback on stalls.
        int q = -1;
        double best_viol = kTol;
        for (int j = 0; j < total_; ++j) {
            if (state_[j] == kBasic || ub_[j] - lb_[j] < kTol)
                continue;
            const double d = redcost_[j];
            double viol = 0.0;
            if (state_[j] == kAtLower && d < -kTol)
                viol = -d;
            else if (state_[j] == kAtUpper && d > kTol)
                viol = d;
            else
                continue;
            if (bland) {
                q = j;
                break;
            }
            // Strictly-better only beyond the relative tie window: at
            // a mathematical tie the first (lowest-index) candidate
            // wins, whatever the rounding.
            if (viol > best_viol * (1.0 + kTieRelTol)) {
                best_viol = viol;
                q = j;
            }
        }
        if (q < 0) {
            if (phase1 && !phase1Feasible())
                return LpStatus::Infeasible;
            objective_ = currentObjective(costs);
            return LpStatus::Optimal;
        }

        ftran(q);
        const int dir = state_[q] == kAtLower ? 1 : -1;

        // Ratio test: smallest step that drives a basic variable to a
        // bound, or flips the entering variable to its opposite bound.
        double t_best = ub_[q] - lb_[q]; // may be +inf
        int leave = -1;
        double leave_alpha = 0.0;
        std::uint8_t leave_state = kAtLower;
        for (int i = 0; i < m_; ++i) {
            const double rate = -dir * work_col_[i];
            if (std::abs(rate) <= kPivotTol)
                continue;
            const int bj = basic_[i];
            double t_i;
            std::uint8_t hit;
            if (rate < 0.0) {
                if (!std::isfinite(lb_[bj]))
                    continue;
                t_i = (xb_[i] - lb_[bj]) / (-rate);
                hit = kAtLower;
            } else {
                if (!std::isfinite(ub_[bj]))
                    continue;
                t_i = (ub_[bj] - xb_[i]) / rate;
                hit = kAtUpper;
            }
            t_i = std::max(t_i, 0.0);
            const bool better =
                t_i < t_best - kRatioTieTol ||
                (t_i < t_best + kRatioTieTol &&
                 std::abs(work_col_[i]) >
                     std::abs(leave_alpha) * (1.0 + kTieRelTol));
            if (better) {
                t_best = t_i;
                leave = i;
                leave_alpha = work_col_[i];
                leave_state = hit;
            }
        }
        if (!std::isfinite(t_best))
            return phase1 ? LpStatus::Numerical : LpStatus::Unbounded;

        if (t_best <= 1e-11)
            ++stall;
        else
            stall = 0;
        if (stall > kStallLimit && !bland) {
            bland = true;
            ++bland_activations_;
        }

        if (leave < 0) {
            // Bound flip: entering variable moves to its opposite bound.
            for (int i = 0; i < m_; ++i)
                xb_[i] += -dir * work_col_[i] * t_best;
            state_[q] = state_[q] == kAtLower ? kAtUpper : kAtLower;
            continue;
        }

        const double entering_value = colValue(q) + dir * t_best;
        for (int i = 0; i < m_; ++i) {
            if (i != leave)
                xb_[i] += -dir * work_col_[i] * t_best;
        }
        const int leaving_var = basic_[leave];
        pivot(q, leave, entering_value);
        state_[leaving_var] = leave_state;
    }
    return LpStatus::IterLimit;
}

bool
Simplex::phase1Feasible() const
{
    double infeas = 0.0;
    for (int i = 0; i < m_; ++i) {
        if (basic_[i] >= n_)
            infeas += std::abs(xb_[i]);
    }
    for (int j = n_; j < total_; ++j) {
        if (state_[j] == kAtUpper && std::isfinite(ub_[j]))
            infeas += std::abs(ub_[j]);
    }
    return infeas < 1e-6;
}

LpStatus
Simplex::solvePrimal()
{
    trace::Span span("simplex.primal", "solver", /*fine=*/true);
    setupInitialArtificialBasis();

    // Phase 1: minimize the sum of artificial variables.
    std::vector<double> phase1_costs(total_, 0.0);
    for (int j = n_; j < total_; ++j)
        phase1_costs[j] = 1.0;
    LpStatus st = primalLoop(phase1_costs.data(), /*phase1=*/true);
    if (st != LpStatus::Optimal)
        return st == LpStatus::Unbounded ? LpStatus::Numerical : st;
    if (objective_ > 1e-6)
        return LpStatus::Infeasible;

    // Close the artificials and optimize the true objective.
    for (int j = n_; j < total_; ++j)
        ub_[j] = 0.0;
    return primalLoop(c_.data(), /*phase1=*/false);
}

LpStatus
Simplex::solveDual(const Basis& basis)
{
    trace::Span span("simplex.dual", "solver", /*fine=*/true);
    COSA_ASSERT(static_cast<int>(basis.basic.size()) == m_ &&
                static_cast<int>(basis.state.size()) == total_,
                "warm basis has wrong shape");
    basic_ = basis.basic;
    state_ = basis.state;
    // Artificials stay closed on warm solves.
    for (int j = n_; j < total_; ++j)
        ub_[j] = 0.0;
    // Re-normalize nonbasic states against possibly-changed bounds.
    for (int j = 0; j < n_; ++j) {
        if (state_[j] == kAtLower && !std::isfinite(lb_[j]))
            state_[j] = kAtUpper;
        else if (state_[j] == kAtUpper && !std::isfinite(ub_[j]))
            state_[j] = kAtLower;
    }
    // The loaded basis does not match the maintained inverse: rebuild.
    if (!refactorize())
        return LpStatus::Numerical;
    computeXb();
    return dualLoop();
}

LpStatus
Simplex::solveDualFromCurrent()
{
    trace::Span span("simplex.dual_warm", "solver", /*fine=*/true);
    // The LU factors + eta file are maintained across pivots and stay
    // valid under pure bound changes (the branch-and-bound dive path),
    // so no refactorization is needed here — only the basic values
    // must be refreshed against the new bounds. The dual loop
    // refactorizes on its own triggers for numerical hygiene anyway.
    // A failed refactorization leaves no factors to solve against.
    if (!lu_.factorized())
        return LpStatus::Numerical;
    computeXb();
    return dualLoop();
}

LpStatus
Simplex::dualLoop()
{
    int since_refresh = 0;
    int stall = 0;
    bool bland = false;
    // Reduced costs are maintained incrementally across pivots (the
    // pivot row needed for the update is computed anyway for the ratio
    // test) and recomputed from scratch at every refactorization.
    computeDuals(c_.data());
    computeReducedCosts(c_.data());
    // Bound relaxations (branch-and-bound backtracking) can leave a
    // previously fixed nonbasic variable with a wrong-signed reduced
    // cost for its state. Repair by flipping it to its other bound; if
    // that bound is infinite the basis is beyond dual repair and the
    // caller must fall back to a cold primal solve.
    bool states_changed = false;
    for (int j = 0; j < total_; ++j) {
        if (state_[j] == kBasic || ub_[j] - lb_[j] < kTol)
            continue;
        if (state_[j] == kAtLower && redcost_[j] < -kTol) {
            if (!std::isfinite(ub_[j]))
                return LpStatus::Numerical;
            state_[j] = kAtUpper;
            states_changed = true;
        } else if (state_[j] == kAtUpper && redcost_[j] > kTol) {
            if (!std::isfinite(lb_[j]))
                return LpStatus::Numerical;
            state_[j] = kAtLower;
            states_changed = true;
        }
    }
    if (states_changed)
        computeXb();
    for (std::int64_t iter = 0; iter < kMaxDualIterations; ++iter) {
        ++iterations_;
        ++since_refresh;
        // Same policy as the primal loop, refreshing the incrementally
        // maintained reduced costs along with the basic values.
        const bool refactor = lu_.needsRefactorization();
        if (refactor && !refactorize())
            return LpStatus::Numerical;
        if (refactor || since_refresh >= kRefreshInterval) {
            computeXb();
            computeDuals(c_.data());
            computeReducedCosts(c_.data());
            since_refresh = 0;
        }

        // Leaving row: most bound-violating basic variable (or the
        // first violating row under the anti-cycling rule). Only a row
        // violated by more than the floor can win or move the
        // incumbent, so the selection runs over those rows alone, in
        // ascending order.
        constexpr double kViolationFloor = 1e-7;
        std::size_t violated = 0;
        for (int i = 0; i < m_; ++i) {
            const int bj = basic_[i];
            viol_rows_[violated] = i;
            violated += (lb_[bj] - xb_[i] > kViolationFloor) |
                        (xb_[i] - ub_[bj] > kViolationFloor);
        }
        int r = -1;
        double worst = kViolationFloor;
        int s = 0;
        for (std::size_t t = 0; t < violated; ++t) {
            const int i = viol_rows_[t];
            const int bj = basic_[i];
            const double below = lb_[bj] - xb_[i];
            const double above = xb_[i] - ub_[bj];
            // Relative tie window: equally violated rows (symmetric
            // model structure) resolve by index, not by whose rounding
            // looks worse.
            if (below > worst * (1.0 + kTieRelTol)) {
                worst = below;
                r = i;
                s = -1;
            }
            if (above > worst * (1.0 + kTieRelTol)) {
                worst = above;
                r = i;
                s = +1;
            }
            if (bland && r >= 0)
                break;
        }
        if (r < 0) {
            objective_ = currentObjective(c_.data());
            return LpStatus::Optimal;
        }

        btranRow(r);
        const double* rho = work_rho_.data();

        // Entering column: dual ratio test (lowest index under Bland).
        // It visits every column whose pivot-row entry can be nonzero,
        // in ascending order: the structural columns, then the slack
        // and then the artificial column of each row in rho_rows_. The
        // columns it skips hold an exact zero and are never candidates.
        int q = -1;
        double best_theta = kInf;
        double best_a = 0.0;
        double alpha_q = 0.0; // pivot-row entry of column q
        // Returns true when the anti-cycling rule stops the test at j.
        const auto consider = [&](int j, double alpha) {
            if (state_[j] == kBasic || ub_[j] - lb_[j] < kTol)
                return false;
            const double a = s * alpha;
            const bool candidate =
                (state_[j] == kAtLower && a > kPivotTol) ||
                (state_[j] == kAtUpper && a < -kPivotTol);
            if (!candidate)
                return false;
            const double theta = redcost_[j] / a;
            if (bland) {
                // Any candidate with (near-)zero ratio keeps dual
                // feasibility; take the first to break cycles.
                if (theta <= kTol) {
                    q = j;
                    best_a = a;
                    alpha_q = alpha;
                    return true;
                }
            }
            // First candidate always wins; afterwards the step window
            // scales with the incumbent ratio (thetas span many
            // magnitudes) and pivot-size ties resolve relatively.
            bool better;
            if (q < 0) {
                better = true;
            } else {
                const double window =
                    kRatioTieTol * (1.0 + std::abs(best_theta));
                better = theta < best_theta - window ||
                         (theta < best_theta + window &&
                          std::abs(a) >
                              std::abs(best_a) * (1.0 + kTieRelTol));
            }
            if (better) {
                best_theta = theta;
                best_a = a;
                alpha_q = alpha;
                q = j;
            }
            return false;
        };
        bool stopped = false;
        for (int j = 0; j < num_structural_ && !stopped; ++j)
            stopped = consider(j, work_row_[j]);
        for (std::size_t t = 0; t < rho_rows_.size() && !stopped; ++t) {
            const int i = rho_rows_[t];
            stopped = consider(num_structural_ + i, rho[i]);
        }
        for (std::size_t t = 0; t < rho_rows_.size() && !stopped; ++t) {
            const int i = rho_rows_[t];
            stopped = consider(n_ + i, art_sign_[i] * rho[i]);
        }
        if (q < 0)
            return LpStatus::Infeasible; // dual unbounded

        ftran(q);
        const int bj = basic_[r];
        const double leave_val = s > 0 ? ub_[bj] : lb_[bj];
        const double alpha_rq = work_col_[r];
        if (std::abs(alpha_rq) <= kPivotTol)
            return LpStatus::Numerical;
        const double delta = (xb_[r] - leave_val) / alpha_rq;

        if (std::abs(delta) <= 1e-11)
            ++stall;
        else
            stall = 0;
        if (stall > kStallLimit && !bland) {
            bland = true;
            ++bland_activations_;
        }

        for (int i = 0; i < m_; ++i) {
            if (i != r)
                xb_[i] -= work_col_[i] * delta;
        }
        // Incremental dual update: d' = d - gamma * (row r of B^-1 A)
        // with gamma chosen to zero the entering column's reduced cost.
        // Over the pivot row's possible nonzeros only: subtracting
        // gamma * (+-0) could change nothing but a zero's sign, and a
        // zero reduced cost's sign reaches no comparison and no nonzero
        // value.
        const double gamma = redcost_[q] / alpha_q;
        for (int j = 0; j < num_structural_; ++j)
            redcost_[j] -= gamma * work_row_[j];
        for (const std::int32_t i : rho_rows_) {
            redcost_[num_structural_ + i] -= gamma * rho[i];
            redcost_[n_ + i] -= gamma * (art_sign_[i] * rho[i]);
        }
        const double entering_value = colValue(q) + delta;
        pivot(q, r, entering_value);
        state_[bj] = s > 0 ? kAtUpper : kAtLower;
        redcost_[q] = 0.0;
        redcost_[bj] = -gamma;
    }
    return LpStatus::IterLimit;
}

std::vector<double>
Simplex::solution() const
{
    std::vector<double> x(num_structural_, 0.0);
    for (int j = 0; j < num_structural_; ++j) {
        if (state_[j] != kBasic)
            x[j] = colValue(j);
    }
    for (int i = 0; i < m_; ++i) {
        if (basic_[i] < num_structural_)
            x[basic_[i]] = xb_[i];
    }
    return x;
}

Basis
Simplex::saveBasis() const
{
    return Basis{basic_, state_};
}

} // namespace cosa::solver
