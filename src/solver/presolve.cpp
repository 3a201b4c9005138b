#include "solver/presolve.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"

namespace cosa::solver {

namespace {

constexpr int kMaxRounds = 4;       //!< fixed-point iteration cap
constexpr double kFeasTol = 1e-7;   //!< infeasibility detection tolerance
/** Required bound improvement before a tightening is applied; keeps
 *  noise-level cuts from perturbing the LP path. */
constexpr double kMinImprovement = 1e-9;

/** Minimum contribution of one coefficient over its variable's box. */
inline double
minContribution(double a, double lb, double ub)
{
    return a > 0.0 ? a * lb : a * ub;
}

inline double
maxContribution(double a, double lb, double ub)
{
    return a > 0.0 ? a * ub : a * lb;
}

/** Row activity bound: finite part plus a count of infinite terms. */
struct Activity
{
    double finite = 0.0;
    int num_inf = 0;

    void
    add(double contribution)
    {
        if (std::isfinite(contribution))
            finite += contribution;
        else
            ++num_inf;
    }
};

} // namespace

Presolve::Presolve(const LpProblem& original, const std::vector<VarType>& types)
{
    COSA_ASSERT(types.empty() ||
                    static_cast<int>(types.size()) == original.num_structural,
                "presolve type vector has wrong size");
    infeasible_ = !run(original, types);
    if (!infeasible_)
        extract(original);
}

bool
Presolve::run(const LpProblem& original, const std::vector<VarType>& types)
{
    const int m = original.num_rows;
    const int n = original.num_structural;
    lb_ = original.lb;
    ub_ = original.ub;
    rhs_ = original.rhs;
    row_alive_.assign(static_cast<std::size_t>(m), 1);
    col_alive_.assign(static_cast<std::size_t>(n), 1);
    fixed_value_.assign(static_cast<std::size_t>(n), 0.0);

    auto isInt = [&](int j) {
        return !types.empty() && types[static_cast<std::size_t>(j)] !=
                                     VarType::Continuous;
    };
    // Round integer bounds inward; returns false on an empty domain.
    auto normalizeBounds = [&](int j) {
        if (isInt(j)) {
            if (std::isfinite(lb_[j]))
                lb_[j] = std::ceil(lb_[j] - 1e-6);
            if (std::isfinite(ub_[j]))
                ub_[j] = std::floor(ub_[j] + 1e-6);
        }
        if (lb_[j] > ub_[j]) {
            if (lb_[j] - ub_[j] > kFeasTol)
                return false;
            ub_[j] = lb_[j];
        }
        return true;
    };
    auto tightenUb = [&](int j, double cap) {
        if (!std::isfinite(cap) || cap >= ub_[j] - kMinImprovement)
            return true;
        ub_[j] = cap;
        ++stats_.bounds_tightened;
        return normalizeBounds(j);
    };
    auto tightenLb = [&](int j, double floor_v) {
        if (!std::isfinite(floor_v) ||
            floor_v <= lb_[j] + kMinImprovement)
            return true;
        lb_[j] = floor_v;
        ++stats_.bounds_tightened;
        return normalizeBounds(j);
    };

    bool changed = true;
    for (int round = 0; changed && round < kMaxRounds; ++round) {
        changed = false;
        for (int r = 0; r < m; ++r) {
            if (!row_alive_[r])
                continue;
            const Sense sense = original.senses[r];

            // Live entries and activity bounds of this row.
            int live = 0;
            std::int32_t single_col = -1;
            double single_coef = 0.0;
            Activity lo, hi;
            for (const SparseMatrix::Entry& e : original.matrix.row(r)) {
                if (!col_alive_[e.index] || e.value == 0.0)
                    continue;
                ++live;
                single_col = e.index;
                single_coef = e.value;
                lo.add(minContribution(e.value, lb_[e.index], ub_[e.index]));
                hi.add(maxContribution(e.value, lb_[e.index], ub_[e.index]));
            }
            const double rtol = kFeasTol * (1.0 + std::abs(rhs_[r]));

            if (live == 0) {
                const bool ok =
                    (sense == Sense::LessEqual && rhs_[r] >= -rtol) ||
                    (sense == Sense::GreaterEqual && rhs_[r] <= rtol) ||
                    (sense == Sense::Equal && std::abs(rhs_[r]) <= rtol);
                if (!ok)
                    return false;
                row_alive_[r] = 0;
                ++stats_.empty_rows;
                changed = true;
                continue;
            }

            if (live == 1) {
                // a * x_j  sense  rhs  ->  a bound on x_j.
                const int j = single_col;
                const double v = rhs_[r] / single_coef;
                bool ok = true;
                if (sense == Sense::Equal)
                    ok = tightenUb(j, v) && tightenLb(j, v) &&
                         v >= lb_[j] - kFeasTol && v <= ub_[j] + kFeasTol;
                else if ((sense == Sense::LessEqual) == (single_coef > 0.0))
                    ok = tightenUb(j, v);
                else
                    ok = tightenLb(j, v);
                if (!ok)
                    return false;
                row_alive_[r] = 0;
                ++stats_.singleton_rows;
                changed = true;
                continue;
            }

            // Infeasibility and redundancy from the activity bounds.
            const bool lo_finite = lo.num_inf == 0;
            const bool hi_finite = hi.num_inf == 0;
            if (sense != Sense::GreaterEqual) { // <= or == upper side
                if (lo_finite && lo.finite > rhs_[r] + rtol)
                    return false;
            }
            if (sense != Sense::LessEqual) { // >= or == lower side
                if (hi_finite && hi.finite < rhs_[r] - rtol)
                    return false;
            }
            const bool redundant_le =
                hi_finite && hi.finite <= rhs_[r] + rtol;
            const bool redundant_ge =
                lo_finite && lo.finite >= rhs_[r] - rtol;
            if ((sense == Sense::LessEqual && redundant_le) ||
                (sense == Sense::GreaterEqual && redundant_ge) ||
                (sense == Sense::Equal && redundant_le && redundant_ge)) {
                row_alive_[r] = 0;
                ++stats_.redundant_rows;
                changed = true;
                continue;
            }

            // Activity-based tightening: the row's residual activity
            // bounds each variable's feasible contribution.
            const int before = stats_.bounds_tightened;
            for (const SparseMatrix::Entry& e : original.matrix.row(r)) {
                if (!col_alive_[e.index] || e.value == 0.0)
                    continue;
                const int j = e.index;
                const double a = e.value;
                bool ok = true;
                if (sense != Sense::GreaterEqual) { // upper side binds
                    const double cmin =
                        minContribution(a, lb_[j], ub_[j]);
                    double residual = kInf;
                    if (lo.num_inf == 0)
                        residual = lo.finite - cmin;
                    else if (lo.num_inf == 1 && !std::isfinite(cmin))
                        residual = lo.finite;
                    if (std::isfinite(residual)) {
                        const double cap = (rhs_[r] - residual) / a;
                        ok = a > 0.0 ? tightenUb(j, cap) : tightenLb(j, cap);
                    }
                }
                if (ok && sense != Sense::LessEqual) { // lower side binds
                    const double cmax =
                        maxContribution(a, lb_[j], ub_[j]);
                    double residual = -kInf;
                    if (hi.num_inf == 0)
                        residual = hi.finite - cmax;
                    else if (hi.num_inf == 1 && !std::isfinite(cmax))
                        residual = hi.finite;
                    if (std::isfinite(residual)) {
                        const double floor_v = (rhs_[r] - residual) / a;
                        ok = a > 0.0 ? tightenLb(j, floor_v)
                                     : tightenUb(j, floor_v);
                    }
                }
                if (!ok)
                    return false;
            }
            if (stats_.bounds_tightened != before)
                changed = true;
        }

        // Substitute out columns the bounds have fixed.
        for (int j = 0; j < n; ++j) {
            if (!col_alive_[j] || ub_[j] - lb_[j] > 1e-9)
                continue;
            const double v = isInt(j) ? std::round(lb_[j]) : lb_[j];
            fixed_value_[j] = v;
            col_alive_[j] = 0;
            ++stats_.cols_eliminated;
            changed = true;
            if (v != 0.0) {
                for (const SparseMatrix::Entry& e : original.matrix.column(j))
                    rhs_[e.index] -= e.value * v;
            }
        }
    }
    return true;
}

void
Presolve::extract(const LpProblem& original)
{
    const int m = original.num_rows;
    const int n = original.num_structural;

    col_to_reduced_.assign(static_cast<std::size_t>(n), -1);
    for (int j = 0; j < n; ++j) {
        if (col_alive_[j]) {
            col_to_reduced_[j] = static_cast<int>(reduced_to_col_.size());
            reduced_to_col_.push_back(j);
        } else {
            fixed_objective_ += original.obj[j] * fixed_value_[j];
        }
    }
    std::vector<int> row_to_reduced(static_cast<std::size_t>(m), -1);
    int reduced_rows = 0;
    for (int r = 0; r < m; ++r) {
        if (row_alive_[r])
            row_to_reduced[r] = reduced_rows++;
    }

    reduced_.num_rows = reduced_rows;
    reduced_.num_structural = static_cast<int>(reduced_to_col_.size());
    reduced_.rhs.reserve(static_cast<std::size_t>(reduced_rows));
    reduced_.senses.reserve(static_cast<std::size_t>(reduced_rows));
    std::vector<Triplet> triplets;
    for (int r = 0; r < m; ++r) {
        if (!row_alive_[r])
            continue;
        reduced_.rhs.push_back(rhs_[r]);
        reduced_.senses.push_back(original.senses[r]);
        for (const SparseMatrix::Entry& e : original.matrix.row(r)) {
            if (!col_alive_[e.index] || e.value == 0.0)
                continue;
            triplets.push_back({row_to_reduced[r],
                                col_to_reduced_[e.index], e.value});
        }
    }
    reduced_.matrix =
        SparseMatrix(reduced_rows, reduced_.num_structural, triplets);
    for (int j : reduced_to_col_) {
        reduced_.obj.push_back(original.obj[j]);
        reduced_.lb.push_back(lb_[j]);
        reduced_.ub.push_back(ub_[j]);
    }
}

std::vector<double>
Presolve::postsolve(const std::vector<double>& reduced_x) const
{
    COSA_ASSERT(static_cast<int>(reduced_x.size()) == numReducedCols(),
                "postsolve input has wrong size");
    std::vector<double> x(col_to_reduced_.size(), 0.0);
    for (std::size_t j = 0; j < col_to_reduced_.size(); ++j) {
        x[j] = col_to_reduced_[j] >= 0
                   ? reduced_x[static_cast<std::size_t>(col_to_reduced_[j])]
                   : fixed_value_[j];
    }
    return x;
}

std::vector<double>
Presolve::restrict(const std::vector<double>& orig_x) const
{
    COSA_ASSERT(orig_x.size() == col_to_reduced_.size(),
                "restrict input has wrong size");
    std::vector<double> x(reduced_to_col_.size(), 0.0);
    for (std::size_t j = 0; j < reduced_to_col_.size(); ++j)
        x[j] = orig_x[static_cast<std::size_t>(reduced_to_col_[j])];
    return x;
}

} // namespace cosa::solver
