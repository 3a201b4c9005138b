#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "solver/model.hpp"

namespace cosa::solver {
namespace {

TEST(Mip, SmallKnapsack)
{
    // max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binaries.
    // Best: a + c (weight 5, value 17)? b + c = weight 6, value 20. -> 20.
    Model m;
    Var a = m.addBinary("a");
    Var b = m.addBinary("b");
    Var c = m.addBinary("c");
    m.addConstr(3.0 * a + 4.0 * b + 2.0 * c, Sense::LessEqual, 6.0);
    m.setObjective(10.0 * a + 13.0 * b + 7.0 * c, ObjSense::Maximize);
    auto r = m.optimize();
    ASSERT_EQ(r.status, Status::Optimal);
    EXPECT_NEAR(r.objective, 20.0, 1e-6);
    EXPECT_NEAR(r.values[b.index], 1.0, 1e-6);
    EXPECT_NEAR(r.values[c.index], 1.0, 1e-6);
}

TEST(Mip, IntegerRounding)
{
    // max x s.t. 2x <= 7, x integer in [0, 10] -> x = 3.
    Model m;
    Var x = m.addVar(0, 10, VarType::Integer, "x");
    m.addConstr(2.0 * x, Sense::LessEqual, 7.0);
    m.setObjective(LinExpr(x), ObjSense::Maximize);
    auto r = m.optimize();
    ASSERT_EQ(r.status, Status::Optimal);
    EXPECT_NEAR(r.objective, 3.0, 1e-9);
}

TEST(Mip, InfeasibleIntegerProblem)
{
    // 0.4 <= x <= 0.6 with x binary has no integral point.
    Model m;
    Var x = m.addVar(0, 1, VarType::Binary, "x");
    m.addConstr(LinExpr(x), Sense::GreaterEqual, 0.4);
    m.addConstr(LinExpr(x), Sense::LessEqual, 0.6);
    m.setObjective(LinExpr(x), ObjSense::Maximize);
    auto r = m.optimize();
    EXPECT_EQ(r.status, Status::Infeasible);
}

TEST(Mip, ExhaustedTreeOnExactBudgetIsInfeasible)
{
    // x + y = 1 and x - y = 0 over binaries: the relaxation x = y = 0.5
    // is feasible and presolve sees nothing, but both branches on x are
    // infeasible. An exhausted tree proves infeasibility even when the
    // work budget reads as spent by the time the tree is done.
    Model m;
    Var x = m.addBinary("x");
    Var y = m.addBinary("y");
    m.addConstr(x + y, Sense::Equal, 1.0);
    m.addConstr(x - y, Sense::Equal, 0.0);
    m.setObjective(x + y, ObjSense::Minimize);
    const MipResult uncapped = m.optimize();
    ASSERT_EQ(uncapped.status, Status::Infeasible);
    ASSERT_EQ(uncapped.nodes, 2);

    // On this 2-row model one simplex iteration costs one work unit.
    MipParams params;
    params.work_limit = uncapped.lp_iterations;
    const MipResult exact = m.optimize(params);
    EXPECT_EQ(exact.status, Status::Infeasible);
    EXPECT_EQ(exact.lp_iterations, uncapped.lp_iterations);
    EXPECT_EQ(exact.nodes, 2);

    // One unit less stops the search before it sees the empty stack.
    params.work_limit = uncapped.lp_iterations - 1;
    EXPECT_EQ(m.optimize(params).status, Status::TimeLimit);
}

TEST(Mip, AssignmentProblem)
{
    // 3x3 assignment: minimize cost with rows/cols summing to 1.
    const double cost[3][3] = {{4, 2, 8}, {4, 3, 7}, {3, 1, 6}};
    // Optimal assignment: (0,1)=2? rows distinct cols: try (0,1),(1,0),(2,2):
    // 2+4+6=12; (0,0),(1,1),(2,2): 4+3+6=13; (0,1),(1,2),(2,0): 2+7+3=12;
    // (0,2),(1,0),(2,1): 8+4+1=13; (0,0),(1,2),(2,1): 4+7+1=12;
    // (0,2),(1,1),(2,0): 8+3+3=14. Min = 12.
    Model m;
    Var x[3][3];
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            x[i][j] = m.addBinary();
    for (int i = 0; i < 3; ++i) {
        LinExpr row, col;
        for (int j = 0; j < 3; ++j) {
            row += x[i][j];
            col += x[j][i];
        }
        m.addConstr(row, Sense::Equal, 1.0);
        m.addConstr(col, Sense::Equal, 1.0);
    }
    LinExpr obj;
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            obj += cost[i][j] * x[i][j];
    m.setObjective(obj, ObjSense::Minimize);
    auto r = m.optimize();
    ASSERT_EQ(r.status, Status::Optimal);
    EXPECT_NEAR(r.objective, 12.0, 1e-6);
}

TEST(Mip, BinaryProductLinearization)
{
    // maximize z = x*y - 0.4x - 0.4y. Best is x=y=1 -> 0.2.
    Model m;
    Var x = m.addBinary("x");
    Var y = m.addBinary("y");
    Var z = m.addBinaryProduct(x, y, "xy");
    m.setObjective(LinExpr(z) - 0.4 * x - 0.4 * y, ObjSense::Maximize);
    auto r = m.optimize();
    ASSERT_EQ(r.status, Status::Optimal);
    EXPECT_NEAR(r.objective, 0.2, 1e-6);
    EXPECT_NEAR(r.values[z.index],
                r.values[x.index] * r.values[y.index], 1e-6);
}

TEST(Mip, BinaryProductForcedZero)
{
    // minimize x + y + 2z with z = x*y and x + y >= 1: pick one var only.
    Model m;
    Var x = m.addBinary("x");
    Var y = m.addBinary("y");
    Var z = m.addBinaryProduct(x, y, "xy");
    m.addConstr(x + y, Sense::GreaterEqual, 1.0);
    m.setObjective(x + y + 2.0 * z, ObjSense::Minimize);
    auto r = m.optimize();
    ASSERT_EQ(r.status, Status::Optimal);
    EXPECT_NEAR(r.objective, 1.0, 1e-6);
    EXPECT_NEAR(r.values[z.index], 0.0, 1e-6);
}

TEST(Mip, RespectsTimeLimitGracefully)
{
    // A hard-ish problem with a tiny time budget must return quickly with
    // either an incumbent (Feasible/Optimal) or TimeLimit.
    Model m;
    Rng rng(99);
    const int n = 30;
    std::vector<Var> xs;
    LinExpr weight, value;
    for (int i = 0; i < n; ++i) {
        Var v = m.addBinary();
        xs.push_back(v);
        weight += (1.0 + static_cast<double>(rng.nextBelow(100))) * v;
        value += (1.0 + static_cast<double>(rng.nextBelow(100))) * v;
    }
    m.addConstr(weight, Sense::LessEqual, 600.0);
    m.setObjective(value, ObjSense::Maximize);
    MipParams params;
    params.time_limit_sec = 0.2;
    auto r = m.optimize(params);
    EXPECT_TRUE(r.status == Status::Optimal || r.status == Status::Feasible ||
                r.status == Status::TimeLimit);
}

TEST(Mip, MixedIntegerContinuous)
{
    // max 2x + 3y, x integer, y continuous, x + y <= 4.5, y <= 2.3.
    // x = 2? x + y <= 4.5 with y = 2.3 -> x <= 2.2 -> x = 2, obj 10.9.
    Model m;
    Var x = m.addVar(0, 10, VarType::Integer, "x");
    Var y = m.addContinuous(0, 2.3, "y");
    m.addConstr(x + y, Sense::LessEqual, 4.5);
    m.setObjective(2.0 * x + 3.0 * y, ObjSense::Maximize);
    auto r = m.optimize();
    ASSERT_EQ(r.status, Status::Optimal);
    EXPECT_NEAR(r.objective, 10.9, 1e-6);
    EXPECT_NEAR(r.values[x.index], 2.0, 1e-9);
}

TEST(Mip, EqualityPartitionConstraints)
{
    // Exactly-one constraints, as used by CoSA's factor assignment.
    Model m;
    std::vector<Var> slots;
    for (int i = 0; i < 5; ++i)
        slots.push_back(m.addBinary());
    LinExpr sum;
    for (Var v : slots)
        sum += v;
    m.addConstr(sum, Sense::Equal, 1.0);
    LinExpr obj;
    const double weights[5] = {0.3, 0.9, 0.1, 0.7, 0.5};
    for (int i = 0; i < 5; ++i)
        obj += weights[i] * slots[i];
    m.setObjective(obj, ObjSense::Maximize);
    auto r = m.optimize();
    ASSERT_EQ(r.status, Status::Optimal);
    EXPECT_NEAR(r.objective, 0.9, 1e-6);
    EXPECT_NEAR(r.values[slots[1].index], 1.0, 1e-6);
}

/**
 * Property test: random knapsacks, MIP answer must match brute force
 * enumeration exactly.
 */
class MipKnapsack : public ::testing::TestWithParam<int>
{
};

TEST_P(MipKnapsack, MatchesBruteForce)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
    const int n = 8 + static_cast<int>(rng.nextBelow(5)); // 8..12 items
    std::vector<double> w(n), v(n);
    double cap = 0.0;
    for (int i = 0; i < n; ++i) {
        w[i] = 1.0 + static_cast<double>(rng.nextBelow(20));
        v[i] = 1.0 + static_cast<double>(rng.nextBelow(30));
        cap += w[i];
    }
    cap *= 0.4;

    // Brute force.
    double best = 0.0;
    for (int mask = 0; mask < (1 << n); ++mask) {
        double tw = 0.0, tv = 0.0;
        for (int i = 0; i < n; ++i) {
            if (mask & (1 << i)) {
                tw += w[i];
                tv += v[i];
            }
        }
        if (tw <= cap)
            best = std::max(best, tv);
    }

    Model m;
    LinExpr weight, value;
    for (int i = 0; i < n; ++i) {
        Var x = m.addBinary();
        weight += w[i] * x;
        value += v[i] * x;
    }
    m.addConstr(weight, Sense::LessEqual, cap);
    m.setObjective(value, ObjSense::Maximize);
    MipParams params;
    params.rel_gap = 1e-9;
    auto r = m.optimize(params);
    ASSERT_EQ(r.status, Status::Optimal);
    EXPECT_NEAR(r.objective, best, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MipKnapsack, ::testing::Range(0, 20));

/**
 * Property test: random set-partition style MIPs (the structural shape of
 * CoSA's prime-factor allocation) against brute force.
 */
class MipPartition : public ::testing::TestWithParam<int>
{
};

TEST_P(MipPartition, MatchesBruteForce)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 3);
    const int items = 5;
    const int slots = 3;
    double value[5][3];
    double load[5][3];
    double cap[3];
    for (int s = 0; s < slots; ++s)
        cap[s] = 2.0 + rng.nextDouble() * 3.0;
    for (int i = 0; i < items; ++i) {
        for (int s = 0; s < slots; ++s) {
            value[i][s] = rng.nextDouble() * 10.0;
            load[i][s] = 0.5 + rng.nextDouble() * 2.0;
        }
    }

    // Brute force over slot assignments (3^5 = 243).
    double best = -1.0;
    for (int code = 0; code < 243; ++code) {
        int c = code;
        double used[3] = {0, 0, 0};
        double total = 0.0;
        for (int i = 0; i < items; ++i) {
            const int s = c % 3;
            c /= 3;
            used[s] += load[i][s];
            total += value[i][s];
        }
        if (used[0] <= cap[0] && used[1] <= cap[1] && used[2] <= cap[2])
            best = std::max(best, total);
    }

    Model m;
    std::vector<std::vector<Var>> x(items, std::vector<Var>(slots));
    for (int i = 0; i < items; ++i) {
        LinExpr one;
        for (int s = 0; s < slots; ++s) {
            x[i][s] = m.addBinary();
            one += x[i][s];
        }
        m.addConstr(one, Sense::Equal, 1.0);
    }
    for (int s = 0; s < slots; ++s) {
        LinExpr used;
        for (int i = 0; i < items; ++i)
            used += load[i][s] * x[i][s];
        m.addConstr(used, Sense::LessEqual, cap[s]);
    }
    LinExpr obj;
    for (int i = 0; i < items; ++i)
        for (int s = 0; s < slots; ++s)
            obj += value[i][s] * x[i][s];
    m.setObjective(obj, ObjSense::Maximize);
    MipParams params;
    params.rel_gap = 1e-9;
    auto r = m.optimize(params);

    if (best < 0.0) {
        EXPECT_EQ(r.status, Status::Infeasible);
    } else {
        ASSERT_EQ(r.status, Status::Optimal);
        EXPECT_NEAR(r.objective, best, 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MipPartition, ::testing::Range(0, 20));

} // namespace
} // namespace cosa::solver
