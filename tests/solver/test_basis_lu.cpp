#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "arch/arch_spec.hpp"
#include "common/rng.hpp"
#include "cosa/formulation.hpp"
#include "problem/workloads.hpp"
#include "reference_dense_simplex.hpp"
#include "reference_markowitz_lu.hpp"
#include "solver/basis_lu.hpp"
#include "solver/simplex.hpp"

namespace cosa::solver {
namespace {

using Entry = BasisLu::Entry;
using testing::DenseLp;
using testing::RefDenseSimplex;
using testing::RefMarkowitzLu;
using testing::RefStatus;

/** Factorize @p cols (one row-sorted entry list per basis column)
 *  through BasisLu's flat CSC interface. */
bool
factorize(BasisLu& lu, int m, const std::vector<std::vector<Entry>>& cols)
{
    std::vector<std::int64_t> start{0};
    std::vector<Entry> entries;
    for (const auto& col : cols) {
        entries.insert(entries.end(), col.begin(), col.end());
        start.push_back(static_cast<std::int64_t>(entries.size()));
    }
    return lu.factorize(m, start, entries);
}

/** Dense Gaussian-elimination solve of A x = b (test oracle). */
std::vector<double>
denseSolve(int m, const std::vector<std::vector<Entry>>& cols,
           std::vector<double> b)
{
    std::vector<double> a(static_cast<std::size_t>(m) * m, 0.0);
    for (int j = 0; j < m; ++j) {
        for (const Entry& e : cols[static_cast<std::size_t>(j)])
            a[static_cast<std::size_t>(e.index) * m + j] = e.value;
    }
    for (int col = 0; col < m; ++col) {
        int piv = col;
        for (int i = col + 1; i < m; ++i) {
            if (std::abs(a[static_cast<std::size_t>(i) * m + col]) >
                std::abs(a[static_cast<std::size_t>(piv) * m + col]))
                piv = i;
        }
        for (int k = 0; k < m; ++k)
            std::swap(a[static_cast<std::size_t>(piv) * m + k],
                      a[static_cast<std::size_t>(col) * m + k]);
        std::swap(b[static_cast<std::size_t>(piv)],
                  b[static_cast<std::size_t>(col)]);
        const double inv = 1.0 / a[static_cast<std::size_t>(col) * m + col];
        for (int i = col + 1; i < m; ++i) {
            const double f =
                a[static_cast<std::size_t>(i) * m + col] * inv;
            if (f == 0.0)
                continue;
            for (int k = col; k < m; ++k)
                a[static_cast<std::size_t>(i) * m + k] -=
                    f * a[static_cast<std::size_t>(col) * m + k];
            b[static_cast<std::size_t>(i)] -=
                f * b[static_cast<std::size_t>(col)];
        }
    }
    std::vector<double> x(static_cast<std::size_t>(m), 0.0);
    for (int i = m - 1; i >= 0; --i) {
        double acc = b[static_cast<std::size_t>(i)];
        for (int k = i + 1; k < m; ++k)
            acc -= a[static_cast<std::size_t>(i) * m + k] *
                   x[static_cast<std::size_t>(k)];
        x[static_cast<std::size_t>(i)] =
            acc / a[static_cast<std::size_t>(i) * m + i];
    }
    return x;
}

/** Random sparse columns with a guaranteed-strong diagonal. */
std::vector<std::vector<Entry>>
randomBasis(Rng& rng, int m, double density)
{
    std::vector<std::vector<Entry>> cols(static_cast<std::size_t>(m));
    for (int j = 0; j < m; ++j) {
        for (int i = 0; i < m; ++i) {
            if (i == j) {
                cols[static_cast<std::size_t>(j)].push_back(
                    {i, 2.0 + 4.0 * rng.nextDouble()});
            } else if (rng.nextDouble() < density) {
                cols[static_cast<std::size_t>(j)].push_back(
                    {i, rng.nextDouble() * 2.0 - 1.0});
            }
        }
    }
    return cols;
}

TEST(BasisLu, FtranBtranMatchDenseSolves)
{
    Rng rng(7);
    for (int m : {1, 2, 5, 17, 60}) {
        const auto cols = randomBasis(rng, m, 0.15);
        BasisLu lu;
        ASSERT_TRUE(factorize(lu, m, cols)) << "m=" << m;

        std::vector<double> v(static_cast<std::size_t>(m));
        for (double& x : v)
            x = rng.nextDouble() * 10.0 - 5.0;

        std::vector<double> x = v;
        lu.ftran(x.data());
        const auto x_ref = denseSolve(m, cols, v);
        for (int i = 0; i < m; ++i)
            EXPECT_NEAR(x[i], x_ref[i], 1e-9) << "ftran m=" << m;

        // btran solves the transposed system: build B^T columns.
        std::vector<std::vector<Entry>> tcols(static_cast<std::size_t>(m));
        for (int j = 0; j < m; ++j) {
            for (const Entry& e : cols[static_cast<std::size_t>(j)])
                tcols[static_cast<std::size_t>(e.index)].push_back(
                    {j, e.value});
        }
        std::vector<double> y = v;
        lu.btran(y.data());
        const auto y_ref = denseSolve(m, tcols, v);
        for (int i = 0; i < m; ++i)
            EXPECT_NEAR(y[i], y_ref[i], 1e-9) << "btran m=" << m;
    }
}

TEST(BasisLu, EtaUpdatesMatchFreshFactorization)
{
    Rng rng(11);
    const int m = 40;
    auto cols = randomBasis(rng, m, 0.2);
    BasisLu lu;
    ASSERT_TRUE(factorize(lu, m, cols));

    // Replace 12 basis columns one by one through the product form.
    for (int round = 0; round < 12; ++round) {
        const int p = static_cast<int>(rng.nextDouble() * m) % m;
        std::vector<Entry> newcol;
        for (int i = 0; i < m; ++i) {
            if (i == p)
                newcol.push_back({i, 3.0 + rng.nextDouble()});
            else if (rng.nextDouble() < 0.2)
                newcol.push_back({i, rng.nextDouble() * 2.0 - 1.0});
        }
        // w = B^-1 a_new, exactly what the simplex ratio test computes.
        std::vector<double> w(static_cast<std::size_t>(m), 0.0);
        for (const Entry& e : newcol)
            w[e.index] = e.value;
        lu.ftran(w.data());
        ASSERT_GT(std::abs(w[p]), 1e-8);
        lu.update(p, w.data());
        cols[static_cast<std::size_t>(p)] = newcol;
    }
    EXPECT_EQ(lu.stats().eta_updates, 12);

    std::vector<double> v(static_cast<std::size_t>(m));
    for (double& x : v)
        x = rng.nextDouble() * 4.0 - 2.0;
    std::vector<double> via_etas = v;
    lu.ftran(via_etas.data());

    BasisLu fresh;
    ASSERT_TRUE(factorize(fresh, m, cols));
    std::vector<double> via_fresh = v;
    fresh.ftran(via_fresh.data());
    for (int i = 0; i < m; ++i)
        EXPECT_NEAR(via_etas[i], via_fresh[i], 1e-8);
}

TEST(BasisLu, GrowthToleranceTriggersRefactorization)
{
    // Identity basis, then an update whose eta pivot is tiny against
    // the spike: |w_p| / ||w||_inf = 1e-9 < kEtaStabilityTol. The
    // update is absorbed (the math stays exact) but the representation
    // must request a refactorization at the next loop boundary.
    const int m = 4;
    std::vector<std::vector<Entry>> cols(m);
    for (int j = 0; j < m; ++j)
        cols[static_cast<std::size_t>(j)].push_back({j, 1.0});
    BasisLu lu;
    ASSERT_TRUE(factorize(lu, m, cols));
    EXPECT_FALSE(lu.needsRefactorization());

    std::vector<double> w = {1e-3, 1e6, 0.0, 0.0};
    lu.update(0, w.data());
    EXPECT_TRUE(lu.needsRefactorization());
    EXPECT_EQ(lu.stats().unstable_updates, 1);

    // Refactorizing (here: back to the identity) clears the request.
    ASSERT_TRUE(factorize(lu, m, cols));
    EXPECT_FALSE(lu.needsRefactorization());

    // A well-conditioned update does not trip it.
    std::vector<double> ok = {2.0, 1.0, 0.0, -1.0};
    lu.update(0, ok.data());
    EXPECT_FALSE(lu.needsRefactorization());
    EXPECT_EQ(lu.stats().unstable_updates, 1);
}

TEST(BasisLu, EtaFillBoundTriggersRefactorization)
{
    // Dense spikes on a small identity basis: the eta file's nonzeros
    // quickly exceed the factor fill bound.
    const int m = 6;
    std::vector<std::vector<Entry>> cols(m);
    for (int j = 0; j < m; ++j)
        cols[static_cast<std::size_t>(j)].push_back({j, 1.0});
    BasisLu lu;
    ASSERT_TRUE(factorize(lu, m, cols));
    int updates = 0;
    while (!lu.needsRefactorization() && updates < 1000) {
        std::vector<double> w(static_cast<std::size_t>(m), 0.5);
        w[static_cast<std::size_t>(updates % m)] = 2.0;
        lu.update(updates % m, w.data());
        ++updates;
    }
    EXPECT_TRUE(lu.needsRefactorization());
    EXPECT_EQ(lu.stats().unstable_updates, 0);
    EXPECT_GE(lu.stats().fill_refactor_requests, 1);
    EXPECT_LT(updates, 1000);
}

TEST(BasisLu, SingularBasisRejected)
{
    // Structurally singular: an empty column.
    {
        std::vector<std::vector<Entry>> cols(3);
        cols[0] = {{0, 1.0}};
        cols[2] = {{2, 1.0}};
        BasisLu lu;
        EXPECT_FALSE(factorize(lu, 3, cols));
        EXPECT_FALSE(lu.factorized());
    }
    // Numerically singular: two identical columns.
    {
        std::vector<std::vector<Entry>> cols(3);
        cols[0] = {{0, 1.0}, {1, 2.0}};
        cols[1] = {{0, 1.0}, {1, 2.0}};
        cols[2] = {{2, 1.0}};
        BasisLu lu;
        EXPECT_FALSE(factorize(lu, 3, cols));
    }
}

/**
 * A tiny LP whose loaded warm basis is singular (duplicate variable
 * basic in two rows) must be rejected as Numerical, not crash — and
 * so must a later warm re-solve from the factor-less current basis
 * (the branch-and-bound sibling path), after which a cold solve still
 * reaches the optimum.
 */
TEST(BasisLu, SimplexRejectsSingularWarmBasis)
{
    LpProblem lp;
    lp.num_rows = 2;
    lp.num_structural = 2;
    lp.matrix = SparseMatrix(
        2, 2, {{0, 0, 1.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 2.0}});
    lp.rhs = {4.0, 6.0};
    lp.senses = {Sense::LessEqual, Sense::LessEqual};
    lp.obj = {-1.0, -1.0};
    lp.lb = {0.0, 0.0};
    lp.ub = {10.0, 10.0};

    Simplex splx(lp);
    ASSERT_EQ(splx.solvePrimal(), LpStatus::Optimal);
    Basis bad = splx.saveBasis();
    // Corrupt the snapshot: the same column basic in every row.
    for (auto& b : bad.basic)
        b = bad.basic[0];
    Simplex warm(lp);
    EXPECT_EQ(warm.solveDual(bad), LpStatus::Numerical);

    warm.setVarBounds(0, 0.0, 1.0);
    EXPECT_EQ(warm.solveDualFromCurrent(), LpStatus::Numerical);
    ASSERT_EQ(warm.solvePrimal(), LpStatus::Optimal);
    EXPECT_NEAR(warm.objective(), -3.5, 1e-9); // x = 1, y = 2.5
}

/** Dense column-major copy of @p lp for the reference oracle. */
DenseLp
denseCopy(const LpProblem& lp)
{
    DenseLp dense;
    dense.num_rows = lp.num_rows;
    dense.num_structural = lp.num_structural;
    dense.cols.assign(
        static_cast<std::size_t>(lp.num_rows) * lp.num_structural, 0.0);
    for (int j = 0; j < lp.num_structural; ++j) {
        for (const Entry& e : lp.matrix.column(j))
            dense.at(e.index, j) = e.value;
    }
    dense.rhs = lp.rhs;
    dense.senses = lp.senses;
    dense.obj = lp.obj;
    dense.lb = lp.lb;
    dense.ub = lp.ub;
    return dense;
}

/** The oracle's status as the production solver's enum. */
LpStatus
fromRef(RefStatus status)
{
    switch (status) {
      case RefStatus::Optimal: return LpStatus::Optimal;
      case RefStatus::Infeasible: return LpStatus::Infeasible;
      case RefStatus::Unbounded: return LpStatus::Unbounded;
      case RefStatus::IterLimit: return LpStatus::IterLimit;
      case RefStatus::Numerical: return LpStatus::Numerical;
    }
    return LpStatus::Numerical;
}

/**
 * Beale's classic cycling LP: Dantzig pricing stalls at a degenerate
 * vertex until the Bland fallback engages. Rows 2 and 3 are scaled by
 * 0.01 and 0.1 (same feasible set and optimum): as printed, the
 * largest-pivot ratio-test tie-break leaves the cycle on its own. The
 * LU simplex must walk the dense reference oracle's pivot sequence
 * through the stall, the fallback and the finish.
 */
TEST(BasisLu, BlandFallbackPivotSequenceEquality)
{
    LpProblem lp;
    lp.num_rows = 3;
    lp.num_structural = 4;
    lp.matrix = SparseMatrix(3, 4,
                             {{0, 0, 0.25},
                              {0, 1, -60.0},
                              {0, 2, -0.04},
                              {0, 3, 9.0},
                              {1, 0, 0.005},
                              {1, 1, -0.9},
                              {1, 2, -0.0002},
                              {1, 3, 0.03},
                              {2, 2, 0.1}});
    lp.rhs = {0.0, 0.0, 0.1};
    lp.senses = {Sense::LessEqual, Sense::LessEqual, Sense::LessEqual};
    lp.obj = {-0.75, 150.0, -0.02, 6.0};
    lp.lb = {0.0, 0.0, 0.0, 0.0};
    lp.ub = {1e6, 1e6, 1e6, 1e6};

    RefDenseSimplex dense(denseCopy(lp));
    Simplex sparse(lp);
    ASSERT_EQ(dense.solvePrimal(), RefStatus::Optimal);
    ASSERT_EQ(sparse.solvePrimal(), LpStatus::Optimal);
    EXPECT_NEAR(dense.objective(), -0.05, 1e-9);
    EXPECT_NEAR(sparse.objective(), dense.objective(), 1e-9);
    EXPECT_EQ(sparse.iterations(), dense.iterations());
    EXPECT_GT(sparse.blandActivations(), 0);
}

/** Mirror MipSolver::buildLp without presolve: raw standard form. */
LpProblem
standardForm(const Model& model)
{
    LpProblem lp;
    lp.num_rows = model.numConstrs();
    lp.num_structural = model.numVars();
    std::vector<Triplet> triplets;
    for (int r = 0; r < lp.num_rows; ++r) {
        for (const auto& [col, coef] : model.rowTerms(r))
            triplets.push_back({r, col, coef});
        lp.rhs.push_back(model.rowRhs(r));
        lp.senses.push_back(model.rowSense(r));
    }
    lp.matrix = SparseMatrix(lp.num_rows, lp.num_structural, triplets);
    for (int j = 0; j < lp.num_structural; ++j) {
        lp.obj.push_back(model.objCoef(Var{j}));
        lp.lb.push_back(model.lowerBound(Var{j}));
        lp.ub.push_back(model.upperBound(Var{j}));
    }
    return lp;
}

/**
 * Dual warm re-solves (the branch-and-bound workhorse) land where a
 * cold solve of the dense reference oracle does, across accumulating
 * branch-like bound changes: each round fixes a random column one
 * unit away from its root LP value (the nearest integer when
 * fractional, else one step up, or down at its upper bound), so every
 * round moves the LP and the sequence ends infeasible.
 */
TEST(BasisLu, DualWarmStartsMatchDenseOracle)
{
    Rng rng(23);
    const Workload net = workloads::resNet50();
    const ArchSpec arch = ArchSpec::simbaBaseline();
    const LayerSpec& layer = net.layers[4];
    cosa::CosaFormulation formulation(layer, arch, cosa::CosaConfig{});
    const LpProblem lp = standardForm(formulation.model());
    DenseLp dense = denseCopy(lp);

    Simplex sparse(lp);
    ASSERT_EQ(sparse.solvePrimal(), LpStatus::Optimal);
    const Basis root_basis = sparse.saveBasis();
    const std::vector<double> root_x = sparse.solution();
    const double root_obj = sparse.objective();

    int moved = 0;
    int infeasible = 0;
    for (int round = 0; round < 8; ++round) {
        const int j = static_cast<int>(rng.nextDouble() * lp.num_structural) %
                      lp.num_structural;
        const double v = root_x[static_cast<std::size_t>(j)];
        double fix = std::floor(v + 0.5);
        if (std::abs(v - fix) <= 1e-6)
            fix += fix < lp.ub[j] ? 1.0 : -1.0;
        sparse.setVarBounds(j, fix, fix);
        dense.lb[j] = fix;
        dense.ub[j] = fix;

        const std::int64_t before = sparse.iterations();
        const LpStatus st = sparse.solveDual(root_basis);
        EXPECT_GT(sparse.iterations(), before) << "round " << round;
        RefDenseSimplex oracle(dense);
        EXPECT_EQ(st, fromRef(oracle.solvePrimal())) << "round " << round;
        if (st == LpStatus::Optimal) {
            EXPECT_NEAR(sparse.objective(), oracle.objective(), 1e-6)
                << "round " << round;
            moved += std::abs(sparse.objective() - root_obj) > 1e-6;
        }
        infeasible += st == LpStatus::Infeasible;
    }
    EXPECT_GT(moved, 0);
    EXPECT_GT(infeasible, 0);
}

/** The basis matrix of @p basis: structural columns from the matrix,
 *  slacks and artificials as unit columns. */
std::vector<std::vector<Entry>>
basisColumns(const LpProblem& lp, const Basis& basis)
{
    std::vector<std::vector<Entry>> cols;
    for (const std::int32_t j : basis.basic) {
        if (j < lp.num_structural) {
            const auto column = lp.matrix.column(j);
            cols.emplace_back(column.begin(), column.end());
        } else {
            cols.push_back({{(j - lp.num_structural) % lp.num_rows, 1.0}});
        }
    }
    return cols;
}

/** Solutions of the unit vectors e_0 .. e_{m-1} under @p solve,
 *  concatenated. */
template <typename Solve>
std::vector<double>
unitSolves(int m, Solve solve)
{
    std::vector<double> out(static_cast<std::size_t>(m) * m, 0.0);
    for (int i = 0; i < m; ++i) {
        double* x = out.data() + static_cast<std::size_t>(i) * m;
        x[i] = 1.0;
        solve(x);
    }
    return out;
}

/**
 * Factorize @p cols with BasisLu and with the full-scan oracle: both
 * must agree on success, and on success FTRAN and BTRAN of every unit
 * vector must match bit for bit, after the factorization and again
 * after 20 identical eta updates. Returns whether the basis
 * factorized.
 */
bool
expectMatchesFullScanOracle(int m, const std::vector<std::vector<Entry>>& cols,
                            Rng& rng, const std::string& what)
{
    BasisLu lu;
    RefMarkowitzLu ref;
    const bool ok = factorize(lu, m, cols);
    const bool ref_ok = ref.factorize(m, cols);
    EXPECT_EQ(ok, ref_ok) << what;
    if (!ok || !ref_ok)
        return ok;
    const std::size_t bytes = sizeof(double) * static_cast<std::size_t>(m) * m;
    auto expectSameSolves = [&](const char* stage) {
        const auto lu_ftran =
            unitSolves(m, [&](double* x) { lu.ftran(x); });
        const auto ref_ftran =
            unitSolves(m, [&](double* x) { ref.ftran(x); });
        EXPECT_EQ(std::memcmp(lu_ftran.data(), ref_ftran.data(), bytes), 0)
            << what << ": ftran " << stage;
        const auto lu_btran =
            unitSolves(m, [&](double* y) { lu.btran(y); });
        const auto ref_btran =
            unitSolves(m, [&](double* y) { ref.btran(y); });
        EXPECT_EQ(std::memcmp(lu_btran.data(), ref_btran.data(), bytes), 0)
            << what << ": btran " << stage;
    };
    expectSameSolves("after factorize");
    for (int round = 0; round < 20; ++round) {
        // A sparse entering column; it leaves at its largest |w_i|.
        std::vector<double> w(static_cast<std::size_t>(m), 0.0);
        for (int t = 0; t < 3; ++t)
            w[rng.nextBelow(static_cast<std::uint64_t>(m))] =
                rng.nextDouble() * 4.0 - 2.0;
        lu.ftran(w.data());
        int p = 0;
        for (int i = 1; i < m; ++i) {
            if (std::abs(w[static_cast<std::size_t>(i)]) >
                std::abs(w[static_cast<std::size_t>(p)]))
                p = i;
        }
        if (w[static_cast<std::size_t>(p)] == 0.0)
            continue;
        lu.update(p, w.data());
        ref.update(p, w.data());
    }
    expectSameSolves("after 20 eta updates");
    return true;
}

/**
 * A random basis of unit, signed-unit and multi-entry columns around
 * a random row permutation, some with a planted defect: an empty
 * column or duplicate unit columns (structurally singular), a column
 * of entries below kSingularTol or two proportional columns
 * (numerically singular), or entries exactly at the threshold guard.
 */
std::vector<std::vector<Entry>>
defectBasis(Rng& rng, int m, int variant)
{
    std::vector<int> perm(static_cast<std::size_t>(m));
    std::iota(perm.begin(), perm.end(), 0);
    rng.shuffle(perm);
    std::vector<std::vector<Entry>> cols(static_cast<std::size_t>(m));
    for (int j = 0; j < m; ++j) {
        auto& col = cols[static_cast<std::size_t>(j)];
        const int anchor = perm[static_cast<std::size_t>(j)];
        const double kind = rng.nextDouble();
        if (kind < 0.5) {
            col.push_back({anchor, rng.nextDouble() < 0.5 ? 1.0 : -1.0});
            continue;
        }
        std::vector<double> dense(static_cast<std::size_t>(m), 0.0);
        dense[static_cast<std::size_t>(anchor)] = 1.0 + rng.nextDouble();
        const int extra = 1 + static_cast<int>(rng.nextBelow(4));
        for (int t = 0; t < extra; ++t) {
            // Small integers make exact cancellations and cost ties.
            const double v = rng.nextDouble() < 0.5
                                 ? static_cast<double>(
                                       static_cast<int>(rng.nextBelow(5)) - 2)
                                 : rng.nextDouble() * 2.0 - 1.0;
            const auto i = rng.nextBelow(static_cast<std::uint64_t>(m));
            if (static_cast<int>(i) != anchor)
                dense[i] = v;
        }
        for (int i = 0; i < m; ++i) {
            if (dense[static_cast<std::size_t>(i)] != 0.0)
                col.push_back({i, dense[static_cast<std::size_t>(i)]});
        }
    }
    const auto pick = [&] {
        return static_cast<std::size_t>(
            rng.nextBelow(static_cast<std::uint64_t>(m)));
    };
    const std::size_t a = pick();
    const std::size_t b = pick();
    switch (variant % 8) {
      case 4: // an empty column
        cols[a].clear();
        break;
      case 5: // duplicate unit columns
        cols[a] = {{cols[b].front().index, 1.0}};
        cols[b] = cols[a];
        break;
      case 6: // a column of entries below kSingularTol
        for (Entry& e : cols[a])
            e.value *= 1e-12;
        break;
      case 7: // two proportional columns
        cols[a] = cols[b];
        for (Entry& e : cols[a])
            e.value *= -3.0;
        break;
      case 3: // entries exactly at the threshold guard of their column
        for (std::size_t j = 0; j < cols.size(); j += 3) {
            double colmax = 0.0;
            for (const Entry& e : cols[j])
                colmax = std::max(colmax, std::abs(e.value));
            for (std::size_t t = 1; t < cols[j].size(); t += 2)
                cols[j][t].value = BasisLu::kMarkowitzThreshold * colmax;
        }
        break;
      default:
        break;
    }
    return cols;
}

/**
 * The singleton queue, the column file and the flat eta file are pure
 * speed: BasisLu must reproduce the full-scan Markowitz LU it replaced
 * (reference_markowitz_lu.hpp) bit for bit, on the optimal bases of
 * CoSA root LPs and their dual re-solves after branch-like bound
 * changes, and on random bases with planted singularities.
 */
TEST(BasisLu, FactorsMatchFullScanOracle)
{
    Rng rng(29);
    int lp_bases = 0;
    for (const char* label :
         {"3_14_256_256_2", "1_1_64_32_1", "1_1_2048_1000_1"}) {
        const LayerSpec layer = LayerSpec::fromLabel(label);
        cosa::CosaFormulation formulation(layer, ArchSpec::simbaBaseline(),
                                          cosa::CosaConfig{});
        const LpProblem lp = standardForm(formulation.model());
        Simplex splx(lp);
        ASSERT_EQ(splx.solvePrimal(), LpStatus::Optimal) << label;
        const Basis root_basis = splx.saveBasis();
        const std::vector<double> root_x = splx.solution();
        EXPECT_TRUE(expectMatchesFullScanOracle(
            lp.num_rows, basisColumns(lp, root_basis), rng,
            std::string(label) + " root"));
        ++lp_bases;
        for (int round = 0; round < 6; ++round) {
            // Fix a column one unit off its root value, re-solve from
            // the root basis, and undo the fixing.
            const int j = static_cast<int>(rng.nextBelow(
                static_cast<std::uint64_t>(lp.num_structural)));
            const double v = root_x[static_cast<std::size_t>(j)];
            double fix = std::floor(v + 0.5);
            if (std::abs(v - fix) <= 1e-6)
                fix += fix < lp.ub[j] ? 1.0 : -1.0;
            splx.setVarBounds(j, fix, fix);
            if (splx.solveDual(root_basis) == LpStatus::Optimal) {
                EXPECT_TRUE(expectMatchesFullScanOracle(
                    lp.num_rows, basisColumns(lp, splx.saveBasis()), rng,
                    std::string(label) + " round " + std::to_string(round)));
                ++lp_bases;
            }
            splx.setVarBounds(j, lp.lb[j], lp.ub[j]);
        }
    }
    EXPECT_GE(lp_bases, 6);

    int factorized = 0;
    int singular = 0;
    for (int t = 0; t < 240; ++t) {
        const int m = 1 + static_cast<int>(rng.nextBelow(60));
        const auto cols = defectBasis(rng, m, t);
        const bool ok = expectMatchesFullScanOracle(
            m, cols, rng, "random basis " + std::to_string(t));
        ++(ok ? factorized : singular);
    }
    EXPECT_GE(factorized, 100);
    EXPECT_GE(singular, 80);

    // Sizes on both sides of the singleton bitset's 64-bit word
    // boundaries, every defect variant at each.
    int wide_factorized = 0;
    int wide_singular = 0;
    for (const int m : {63, 64, 65, 127, 128, 129, 200}) {
        for (int variant = 0; variant < 8; ++variant) {
            const auto cols = defectBasis(rng, m, variant);
            const bool ok = expectMatchesFullScanOracle(
                m, cols, rng,
                "random basis m=" + std::to_string(m) + " variant " +
                    std::to_string(variant));
            ++(ok ? wide_factorized : wide_singular);
        }
    }
    EXPECT_GE(wide_factorized, 21);
    EXPECT_GE(wide_singular, 21);
}

} // namespace
} // namespace cosa::solver
