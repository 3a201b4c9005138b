#pragma once

/**
 * @file
 * Test-only reference solver: the seed repo's dense-tableau
 * bounded-variable primal simplex, kept verbatim (minus the dual
 * machinery) as the ground truth the sparse revised core is checked
 * against. The sparse core iterates nonzeros in the same order this
 * dense loop visits them, so on a common problem the two must agree
 * not just on the objective but on the entire pivot sequence — the
 * equivalence suite asserts objectives and iteration counts match.
 *
 * One deliberate deviation from the seed: pivot selection uses the
 * same relative tie window (Simplex::kTieRelTol) as the production
 * solver. CoSA models carry many *exact* pivotal ties (symmetric
 * columns); resolving them by last-ulp rounding would bind the pivot
 * sequence to this dense inverse's arithmetic, so the production LU
 * simplex could not be held to it. See docs/solver-numerics.md.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "solver/types.hpp"

namespace cosa::solver::testing {

/** Dense column-major LP in computational standard form. */
struct DenseLp
{
    int num_rows = 0;
    int num_structural = 0;
    std::vector<double> cols; // num_rows * num_structural, column-major
    std::vector<double> rhs;
    std::vector<Sense> senses;
    std::vector<double> obj;
    std::vector<double> lb, ub;

    double&
    at(int row, int col)
    {
        return cols[static_cast<std::size_t>(col) * num_rows + row];
    }
};

enum class RefStatus { Optimal, Infeasible, Unbounded, IterLimit, Numerical };

/** The seed's dense bounded-variable primal simplex. */
class RefDenseSimplex
{
  public:
    explicit RefDenseSimplex(const DenseLp& prob)
    {
        m_ = prob.num_rows;
        num_structural_ = prob.num_structural;
        n_ = num_structural_ + m_;
        total_ = n_ + m_;

        cols_.assign(static_cast<std::size_t>(m_) * total_, 0.0);
        b_ = prob.rhs;
        c_.assign(total_, 0.0);
        lb_.assign(total_, 0.0);
        ub_.assign(total_, 0.0);

        for (int j = 0; j < num_structural_; ++j) {
            for (int i = 0; i < m_; ++i)
                cols_[static_cast<std::size_t>(j) * m_ + i] =
                    prob.cols[static_cast<std::size_t>(j) * m_ + i];
            c_[j] = prob.obj[j];
            lb_[j] = prob.lb[j];
            ub_[j] = prob.ub[j];
        }
        for (int r = 0; r < m_; ++r) {
            const int j = num_structural_ + r;
            cols_[static_cast<std::size_t>(j) * m_ + r] = 1.0;
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
        for (int r = 0; r < m_; ++r)
            cols_[static_cast<std::size_t>(n_ + r) * m_ + r] = 1.0;

        basic_.assign(m_, -1);
        state_.assign(total_, kAtLower);
        binv_.assign(static_cast<std::size_t>(m_) * m_, 0.0);
        xb_.assign(m_, 0.0);
        work_col_.assign(m_, 0.0);
        dual_y_.assign(m_, 0.0);
        redcost_.assign(total_, 0.0);
    }

    RefStatus
    solvePrimal()
    {
        setupInitialArtificialBasis();
        std::vector<double> phase1_costs(total_, 0.0);
        for (int j = n_; j < total_; ++j)
            phase1_costs[j] = 1.0;
        RefStatus st = primalLoop(phase1_costs.data(), true);
        if (st != RefStatus::Optimal)
            return st == RefStatus::Unbounded ? RefStatus::Numerical : st;
        if (objective_ > 1e-6)
            return RefStatus::Infeasible;
        for (int j = n_; j < total_; ++j)
            ub_[j] = 0.0;
        return primalLoop(c_.data(), false);
    }

    double objective() const { return objective_; }
    std::int64_t iterations() const { return iterations_; }

    std::vector<double>
    solution() const
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

    static constexpr double kTol = 1e-7;
    static constexpr double kPivotTol = 1e-8;
    /** Mirror Simplex::kTieRelTol / kRatioTieTol (see there). */
    static constexpr double kTieRelTol = 1e-9;
    static constexpr double kRatioTieTol = 1e-9;

  private:
    enum NonbasicState : std::uint8_t { kAtLower = 0, kAtUpper = 1, kBasic = 2 };
    static constexpr int kRefactorInterval = 64;
    static constexpr int kStallLimit = 40;
    static constexpr std::int64_t kMaxIterations = 20000;

    int m_ = 0, n_ = 0, total_ = 0, num_structural_ = 0;
    std::vector<double> cols_, b_, c_, lb_, ub_;
    std::vector<std::int32_t> basic_;
    std::vector<std::uint8_t> state_;
    std::vector<double> binv_, xb_, work_col_, dual_y_, redcost_;
    double objective_ = 0.0;
    std::int64_t iterations_ = 0;

    double
    colValue(int j) const
    {
        return state_[j] == kAtUpper ? ub_[j] : lb_[j];
    }

    void
    computeXb()
    {
        std::vector<double> r = b_;
        for (int j = 0; j < total_; ++j) {
            if (state_[j] == kBasic)
                continue;
            const double v = colValue(j);
            if (v == 0.0)
                continue;
            const double* col = &cols_[static_cast<std::size_t>(j) * m_];
            for (int i = 0; i < m_; ++i)
                r[i] -= col[i] * v;
        }
        for (int i = 0; i < m_; ++i) {
            const double* row = &binv_[static_cast<std::size_t>(i) * m_];
            double acc = 0.0;
            for (int k = 0; k < m_; ++k)
                acc += row[k] * r[k];
            xb_[i] = acc;
        }
    }

    bool
    refactorize()
    {
        std::vector<double> mat(static_cast<std::size_t>(m_) * m_, 0.0);
        for (int col = 0; col < m_; ++col) {
            const int j = basic_[col];
            const double* src = &cols_[static_cast<std::size_t>(j) * m_];
            for (int i = 0; i < m_; ++i)
                mat[static_cast<std::size_t>(i) * m_ + col] = src[i];
        }
        std::fill(binv_.begin(), binv_.end(), 0.0);
        for (int i = 0; i < m_; ++i)
            binv_[static_cast<std::size_t>(i) * m_ + i] = 1.0;
        for (int col = 0; col < m_; ++col) {
            int piv = col;
            double best =
                std::abs(mat[static_cast<std::size_t>(col) * m_ + col]);
            for (int i = col + 1; i < m_; ++i) {
                const double v =
                    std::abs(mat[static_cast<std::size_t>(i) * m_ + col]);
                if (v > best) {
                    best = v;
                    piv = i;
                }
            }
            if (best < 1e-11)
                return false;
            if (piv != col) {
                for (int k = 0; k < m_; ++k) {
                    std::swap(mat[static_cast<std::size_t>(piv) * m_ + k],
                              mat[static_cast<std::size_t>(col) * m_ + k]);
                    std::swap(binv_[static_cast<std::size_t>(piv) * m_ + k],
                              binv_[static_cast<std::size_t>(col) * m_ + k]);
                }
            }
            const double inv_p =
                1.0 / mat[static_cast<std::size_t>(col) * m_ + col];
            for (int k = 0; k < m_; ++k) {
                mat[static_cast<std::size_t>(col) * m_ + k] *= inv_p;
                binv_[static_cast<std::size_t>(col) * m_ + k] *= inv_p;
            }
            for (int i = 0; i < m_; ++i) {
                if (i == col)
                    continue;
                const double f = mat[static_cast<std::size_t>(i) * m_ + col];
                if (f == 0.0)
                    continue;
                for (int k = 0; k < m_; ++k) {
                    mat[static_cast<std::size_t>(i) * m_ + k] -=
                        f * mat[static_cast<std::size_t>(col) * m_ + k];
                    binv_[static_cast<std::size_t>(i) * m_ + k] -=
                        f * binv_[static_cast<std::size_t>(col) * m_ + k];
                }
            }
        }
        return true;
    }

    void
    ftran(int j)
    {
        const double* col = &cols_[static_cast<std::size_t>(j) * m_];
        for (int i = 0; i < m_; ++i) {
            const double* row = &binv_[static_cast<std::size_t>(i) * m_];
            double acc = 0.0;
            for (int k = 0; k < m_; ++k)
                acc += row[k] * col[k];
            work_col_[i] = acc;
        }
    }

    void
    computeDuals(const double* costs)
    {
        for (int k = 0; k < m_; ++k) {
            double acc = 0.0;
            for (int i = 0; i < m_; ++i)
                acc += costs[basic_[i]] *
                       binv_[static_cast<std::size_t>(i) * m_ + k];
            dual_y_[k] = acc;
        }
    }

    void
    computeReducedCosts(const double* costs)
    {
        for (int j = 0; j < total_; ++j) {
            if (state_[j] == kBasic || ub_[j] - lb_[j] < kTol) {
                redcost_[j] = 0.0;
                continue;
            }
            const double* col = &cols_[static_cast<std::size_t>(j) * m_];
            double acc = 0.0;
            for (int k = 0; k < m_; ++k)
                acc += dual_y_[k] * col[k];
            redcost_[j] = costs[j] - acc;
        }
    }

    void
    pivot(int entering, int leaving_row, double entering_value)
    {
        const double alpha_r = work_col_[leaving_row];
        double* prow = &binv_[static_cast<std::size_t>(leaving_row) * m_];
        const double inv_p = 1.0 / alpha_r;
        for (int k = 0; k < m_; ++k)
            prow[k] *= inv_p;
        for (int i = 0; i < m_; ++i) {
            if (i == leaving_row)
                continue;
            const double f = work_col_[i];
            if (f == 0.0)
                continue;
            double* row = &binv_[static_cast<std::size_t>(i) * m_];
            for (int k = 0; k < m_; ++k)
                row[k] -= f * prow[k];
        }
        basic_[leaving_row] = entering;
        state_[entering] = kBasic;
        xb_[leaving_row] = entering_value;
    }

    double
    currentObjective(const double* costs) const
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
    setupInitialArtificialBasis()
    {
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
            const double* col = &cols_[static_cast<std::size_t>(j) * m_];
            for (int i = 0; i < m_; ++i)
                residual[i] -= col[i] * v;
        }
        for (int r = 0; r < m_; ++r) {
            const int j = n_ + r;
            const double sign = residual[r] < 0.0 ? -1.0 : 1.0;
            cols_[static_cast<std::size_t>(j) * m_ + r] = sign;
            lb_[j] = 0.0;
            ub_[j] = kInf;
            basic_[r] = j;
            state_[j] = kBasic;
            xb_[r] = std::abs(residual[r]);
        }
        std::fill(binv_.begin(), binv_.end(), 0.0);
        for (int r = 0; r < m_; ++r)
            binv_[static_cast<std::size_t>(r) * m_ + r] =
                cols_[static_cast<std::size_t>(n_ + r) * m_ + r];
    }

    RefStatus
    primalLoop(const double* costs, bool phase1)
    {
        int since_refactor = 0;
        int stall = 0;
        bool bland = false;

        for (std::int64_t iter = 0; iter < kMaxIterations; ++iter) {
            ++iterations_;
            if (++since_refactor >= kRefactorInterval) {
                if (!refactorize())
                    return RefStatus::Numerical;
                computeXb();
                since_refactor = 0;
            }
            computeDuals(costs);
            computeReducedCosts(costs);

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
                if (viol > best_viol * (1.0 + kTieRelTol)) {
                    best_viol = viol;
                    q = j;
                }
            }
            if (q < 0) {
                if (phase1 && !phase1Feasible())
                    return RefStatus::Infeasible;
                objective_ = currentObjective(costs);
                return RefStatus::Optimal;
            }

            ftran(q);
            const int dir = state_[q] == kAtLower ? 1 : -1;

            double t_best = ub_[q] - lb_[q];
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
                return phase1 ? RefStatus::Numerical : RefStatus::Unbounded;

            if (t_best <= 1e-11)
                ++stall;
            else
                stall = 0;
            if (stall > kStallLimit)
                bland = true;

            if (leave < 0) {
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
        return RefStatus::IterLimit;
    }

    bool
    phase1Feasible() const
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
};

} // namespace cosa::solver::testing
