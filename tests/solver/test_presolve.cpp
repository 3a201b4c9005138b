#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "solver/model.hpp"
#include "solver/presolve.hpp"

namespace cosa::solver {
namespace {

/** Build an LpProblem directly from triplet rows. */
LpProblem
makeLp(int m, int n, const std::vector<Triplet>& entries,
       std::vector<double> rhs, std::vector<Sense> senses,
       std::vector<double> lb, std::vector<double> ub,
       std::vector<double> obj = {})
{
    LpProblem lp;
    lp.num_rows = m;
    lp.num_structural = n;
    lp.matrix = SparseMatrix(m, n, entries);
    lp.rhs = std::move(rhs);
    lp.senses = std::move(senses);
    lp.lb = std::move(lb);
    lp.ub = std::move(ub);
    lp.obj = obj.empty() ? std::vector<double>(static_cast<std::size_t>(n), 0.0)
                         : std::move(obj);
    return lp;
}

TEST(Presolve, SingletonRowBecomesBound)
{
    // Row 0: 2x <= 6  ->  x <= 3. Row 1 is a real row and must survive.
    const LpProblem lp = makeLp(
        2, 2, {{0, 0, 2.0}, {1, 0, 1.0}, {1, 1, 1.0}}, {6.0, 10.0},
        {Sense::LessEqual, Sense::LessEqual}, {0.0, 0.0}, {100.0, 100.0});
    Presolve pre(lp, {});
    ASSERT_FALSE(pre.infeasible());
    EXPECT_EQ(pre.stats().singleton_rows, 1);
    EXPECT_EQ(pre.reduced().num_rows, 1);
    EXPECT_EQ(pre.reduced().num_structural, 2);
    EXPECT_NEAR(pre.reduced().ub[0], 3.0, 1e-12);
}

TEST(Presolve, EqualitySingletonFixesAndEliminatesColumn)
{
    // 3x == 6 fixes x = 2; x's contribution folds into row 1's rhs.
    const LpProblem lp = makeLp(
        2, 2, {{0, 0, 3.0}, {1, 0, 1.0}, {1, 1, 1.0}}, {6.0, 10.0},
        {Sense::Equal, Sense::LessEqual}, {0.0, 0.0}, {100.0, 100.0},
        {5.0, 1.0});
    Presolve pre(lp, {});
    ASSERT_FALSE(pre.infeasible());
    EXPECT_EQ(pre.stats().cols_eliminated, 1);
    EXPECT_EQ(pre.numReducedCols(), 1);
    EXPECT_EQ(pre.reducedCol(0), -1);
    EXPECT_EQ(pre.reducedCol(1), 0);
    EXPECT_EQ(pre.origCol(0), 1);
    // Row 1 became y <= 8 (a singleton again), so it folds into y's ub.
    EXPECT_NEAR(pre.reduced().ub[0], 8.0, 1e-12);
    EXPECT_NEAR(pre.fixedObjective(), 10.0, 1e-12);
}

TEST(Presolve, EmptyAndRedundantRowsRemoved)
{
    // Row 0 has no coefficients and a satisfiable rhs; row 1 is
    // implied by the bounds (x + y <= 4 with x,y in [0,1]).
    const LpProblem lp =
        makeLp(2, 2, {{1, 0, 1.0}, {1, 1, 1.0}}, {3.0, 4.0},
               {Sense::LessEqual, Sense::LessEqual}, {0.0, 0.0}, {1.0, 1.0});
    Presolve pre(lp, {});
    ASSERT_FALSE(pre.infeasible());
    EXPECT_EQ(pre.stats().empty_rows, 1);
    EXPECT_EQ(pre.stats().redundant_rows, 1);
    EXPECT_EQ(pre.reduced().num_rows, 0);
}

TEST(Presolve, InfeasibleEmptyRowDetected)
{
    const LpProblem lp = makeLp(1, 1, {}, {-1.0}, {Sense::LessEqual},
                                {0.0}, {1.0});
    Presolve pre(lp, {});
    EXPECT_TRUE(pre.infeasible());
}

TEST(Presolve, ActivityInfeasibilityDetected)
{
    // x + y >= 5 with x, y in [0, 1] can never hold.
    const LpProblem lp =
        makeLp(1, 2, {{0, 0, 1.0}, {0, 1, 1.0}}, {5.0},
               {Sense::GreaterEqual}, {0.0, 0.0}, {1.0, 1.0});
    Presolve pre(lp, {});
    EXPECT_TRUE(pre.infeasible());
}

TEST(Presolve, ActivityTighteningRoundsIntegerBounds)
{
    // 2x + y <= 7 with y >= 0: x <= 3.5, rounded to 3 for integer x.
    const LpProblem lp =
        makeLp(1, 2, {{0, 0, 2.0}, {0, 1, 1.0}}, {7.0}, {Sense::LessEqual},
               {0.0, 0.0}, {100.0, 100.0});
    Presolve pre(lp, {VarType::Integer, VarType::Continuous});
    ASSERT_FALSE(pre.infeasible());
    ASSERT_EQ(pre.reduced().num_structural, 2);
    EXPECT_NEAR(pre.reduced().ub[0], 3.0, 1e-12);
    EXPECT_GE(pre.stats().bounds_tightened, 1);
}

TEST(Presolve, PostsolveRoundTripRestoresEliminatedColumns)
{
    // x fixed at 2 by an equality singleton; y survives. A reduced
    // solution maps back with x restored and y copied through.
    const LpProblem lp = makeLp(
        2, 3, {{0, 0, 1.0}, {1, 0, 1.0}, {1, 1, 1.0}, {1, 2, 1.0}},
        {2.0, 10.0}, {Sense::Equal, Sense::LessEqual}, {0.0, 0.0, 0.0},
        {5.0, 5.0, 5.0});
    Presolve pre(lp, {});
    ASSERT_FALSE(pre.infeasible());
    ASSERT_EQ(pre.numReducedCols(), 2);
    const std::vector<double> reduced_x = {1.25, 4.75};
    const std::vector<double> orig_x = pre.postsolve(reduced_x);
    ASSERT_EQ(orig_x.size(), 3u);
    EXPECT_NEAR(orig_x[0], 2.0, 1e-12);
    EXPECT_NEAR(orig_x[1], 1.25, 1e-12);
    EXPECT_NEAR(orig_x[2], 4.75, 1e-12);
    // restrict() is the left inverse of postsolve() on surviving cols.
    const std::vector<double> back = pre.restrict(orig_x);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_NEAR(back[0], reduced_x[0], 1e-12);
    EXPECT_NEAR(back[1], reduced_x[1], 1e-12);
}

/**
 * Property: presolve must never change the optimum. Random feasible
 * box-plus-rows MIPs solved with presolve on and off agree on the
 * objective (both runs prove optimality: the instances are tiny).
 */
class PresolveEquivalence : public ::testing::TestWithParam<int>
{
};

TEST_P(PresolveEquivalence, OptimizeAgreesWithAndWithoutPresolve)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 523 + 7);
    Model with, without;
    Model* models[2] = {&with, &without};
    const int n = 3 + static_cast<int>(rng.nextBelow(5));
    const int rows = 2 + static_cast<int>(rng.nextBelow(5));
    std::vector<std::array<Var, 2>> vars;
    std::vector<double> coefs;
    std::vector<VarType> types;
    for (int j = 0; j < n; ++j) {
        const double ub = 1.0 + static_cast<double>(rng.nextBelow(6));
        const VarType type =
            rng.nextDouble() < 0.5 ? VarType::Integer : VarType::Continuous;
        types.push_back(type);
        vars.push_back({with.addVar(0.0, ub, type),
                        without.addVar(0.0, ub, type)});
        coefs.push_back(rng.nextDouble() * 4.0 - 2.0);
    }
    for (int r = 0; r < rows; ++r) {
        LinExpr exprs[2];
        double max_activity = 0.0;
        for (int j = 0; j < n; ++j) {
            const double a = std::floor(rng.nextDouble() * 5.0) - 2.0;
            exprs[0] += a * vars[static_cast<std::size_t>(j)][0];
            exprs[1] += a * vars[static_cast<std::size_t>(j)][1];
            if (a > 0.0)
                max_activity += a * with.upperBound(
                                        vars[static_cast<std::size_t>(j)][0]);
        }
        // Keep x = 0 feasible; occasionally emit a redundant row.
        const double rhs = rng.nextDouble() < 0.3
                               ? max_activity + 1.0
                               : rng.nextDouble() * 4.0 + 0.5;
        with.addConstr(exprs[0], Sense::LessEqual, rhs);
        without.addConstr(exprs[1], Sense::LessEqual, rhs);
    }
    for (int v = 0; v < 2; ++v) {
        LinExpr obj;
        for (int j = 0; j < n; ++j)
            obj += coefs[static_cast<std::size_t>(j)] *
                   vars[static_cast<std::size_t>(j)][static_cast<std::size_t>(v)];
        models[v]->setObjective(obj, ObjSense::Maximize);
    }
    MipParams params;
    params.presolve = true;
    const MipResult a = with.optimize(params);
    params.presolve = false;
    const MipResult b = without.optimize(params);
    ASSERT_EQ(a.status, Status::Optimal);
    ASSERT_EQ(b.status, Status::Optimal);
    EXPECT_NEAR(a.objective, b.objective, 1e-6);
    // The presolved incumbent must be feasible in the original space.
    ASSERT_EQ(static_cast<int>(a.values.size()), n);
    for (int j = 0; j < n; ++j) {
        EXPECT_GE(a.values[j], -1e-9);
        EXPECT_LE(a.values[j], with.upperBound(vars[static_cast<std::size_t>(
                                   j)][0]) + 1e-9);
        if (types[static_cast<std::size_t>(j)] == VarType::Integer) {
            EXPECT_NEAR(a.values[j], std::round(a.values[j]), 1e-9);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PresolveEquivalence, ::testing::Range(0, 40));

} // namespace
} // namespace cosa::solver
