#include <gtest/gtest.h>

#include <cmath>

#include "cosa/formulation.hpp"
#include "cosa/scheduler.hpp"
#include "problem/workloads.hpp"
#include "reference_dense_simplex.hpp"
#include "solver/simplex.hpp"

namespace cosa {
namespace {

using solver::LpProblem;
using solver::LpStatus;
using solver::Sense;
using solver::Simplex;
using solver::SparseMatrix;
using solver::Triplet;
using solver::testing::DenseLp;
using solver::testing::RefDenseSimplex;
using solver::testing::RefStatus;

/** Mirror MipSolver::buildLp without presolve: the raw standard form. */
void
buildStandardForm(const solver::Model& model, LpProblem* sparse,
                  DenseLp* dense)
{
    const int n = model.numVars();
    const int m = model.numConstrs();
    const double sign = 1.0; // CoSA models minimize

    sparse->num_rows = m;
    sparse->num_structural = n;
    dense->num_rows = m;
    dense->num_structural = n;
    dense->cols.assign(static_cast<std::size_t>(m) * n, 0.0);

    std::vector<Triplet> triplets;
    for (int r = 0; r < m; ++r) {
        for (const auto& [col, coef] : model.rowTerms(r)) {
            triplets.push_back({r, col, coef});
            dense->at(r, col) = coef;
        }
        sparse->rhs.push_back(model.rowRhs(r));
        sparse->senses.push_back(model.rowSense(r));
    }
    sparse->matrix = SparseMatrix(m, n, triplets);
    dense->rhs = sparse->rhs;
    dense->senses = sparse->senses;
    for (int j = 0; j < n; ++j) {
        const solver::Var v{j};
        sparse->obj.push_back(sign * model.objCoef(v));
        sparse->lb.push_back(model.lowerBound(v));
        sparse->ub.push_back(model.upperBound(v));
    }
    dense->obj = sparse->obj;
    dense->lb = sparse->lb;
    dense->ub = sparse->ub;
}

/**
 * The tentpole equivalence claim: on every unique ResNet-50 layer and
 * two architectures, the sparse revised core must reproduce the seed
 * dense tableau's LP solve exactly — same status, same objective, and
 * the same number of pivots (the nonzeros iterate in dense order, so
 * the pivot sequences are identical, not merely equivalent) — while
 * living off LU eta updates rather than refactorizing every pivot.
 */
TEST(SparseEquivalence, LpRelaxationMatchesDenseReferenceOnResNet50)
{
    const Workload net = workloads::resNet50();
    const ArchSpec archs[2] = {ArchSpec::simbaBaseline(),
                               ArchSpec::simba8x8()};
    int compared = 0;
    for (const ArchSpec& arch : archs) {
        for (const LayerSpec& layer : net.layers) {
            CosaFormulation formulation(layer, arch, CosaConfig{});
            LpProblem sparse_lp;
            DenseLp dense_lp;
            buildStandardForm(formulation.model(), &sparse_lp, &dense_lp);
            EXPECT_LT(sparse_lp.matrix.density(), 0.05)
                << layer.name << ": CoSA matrices are supposed to be "
                << "sparse";

            Simplex sparse(sparse_lp);
            RefDenseSimplex dense(dense_lp);
            const LpStatus s_st = sparse.solvePrimal();
            const RefStatus d_st = dense.solvePrimal();
            ASSERT_EQ(s_st, LpStatus::Optimal)
                << layer.name << " on " << arch.name;
            ASSERT_EQ(d_st, RefStatus::Optimal)
                << layer.name << " on " << arch.name;
            EXPECT_NEAR(sparse.objective(), dense.objective(), 1e-6)
                << layer.name << " on " << arch.name;
            EXPECT_EQ(sparse.iterations(), dense.iterations())
                << layer.name << " on " << arch.name
                << ": pivot sequences diverged";
            EXPECT_GT(sparse.basisStats().eta_updates, 0) << layer.name;
            ++compared;
        }
    }
    EXPECT_EQ(compared, 46); // 23 unique layers x 2 archs
}

/** Work-budgeted CoSA solves are bit-deterministic across runs. */
TEST(SparseEquivalence, MipSolveIsDeterministicUnderWorkBudget)
{
    const char* labels[] = {"3_14_256_256_2", "1_1_64_32_1",
                            "1_1_2048_1000_1"};
    const ArchSpec arch = ArchSpec::simbaBaseline();
    CosaConfig config;
    config.mip.work_limit = 4000; // small deterministic budget
    for (const char* label : labels) {
        const LayerSpec layer = LayerSpec::fromLabel(label);
        const SearchResult a = CosaScheduler(config).schedule(layer, arch);
        const SearchResult b = CosaScheduler(config).schedule(layer, arch);
        ASSERT_TRUE(a.found) << label;
        ASSERT_TRUE(b.found) << label;
        EXPECT_EQ(a.eval.cycles, b.eval.cycles) << label;
        EXPECT_EQ(a.mapping, b.mapping) << label;
        EXPECT_EQ(a.stats.mip_nodes, b.stats.mip_nodes) << label;
        EXPECT_EQ(a.stats.lp_iterations, b.stats.lp_iterations) << label;
    }
}

/**
 * Presolve must not change what the solver proves: on layers small
 * enough to solve to (near-zero-gap) optimality, presolve on and off
 * reach the same objective, and presolve actually removes work.
 */
TEST(SparseEquivalence, MipPresolveOnOffAgreeOnProvenOptima)
{
    // Layers small enough that branch and bound proves the (near-)
    // zero-gap optimum in well under a second per configuration. Every
    // proven optimum must also extract to a valid mapping.
    const char* labels[] = {"1_1_2048_1000_1", "1_1_64_32_1",
                            "1_2_16_16_1"};
    const ArchSpec arch = ArchSpec::simbaBaseline();
    std::int64_t total_reductions = 0;
    for (const char* label : labels) {
        const LayerSpec layer = LayerSpec::fromLabel(label);
        solver::MipResult results[2];
        for (int p = 0; p < 2; ++p) {
            CosaConfig config;
            config.mip.presolve = p == 0;
            config.mip.rel_gap = 1e-9;
            config.mip.work_limit = 0; // run to proof
            CosaFormulation formulation(layer, arch, config);
            const auto mapping = formulation.solve(&results[p]);
            ASSERT_TRUE(mapping.has_value()) << label;
            ASSERT_EQ(results[p].status, solver::Status::Optimal) << label;
            const auto valid = validateMapping(*mapping, layer, arch);
            EXPECT_TRUE(valid.valid) << label << ": " << valid.reason;
        }
        EXPECT_NEAR(results[0].objective, results[1].objective, 1e-6)
            << label;
        total_reductions += results[0].presolve_rows_removed +
                            results[0].presolve_cols_eliminated +
                            results[0].presolve_bounds_tightened;
        EXPECT_EQ(results[1].presolve_rows_removed, 0) << label;
        EXPECT_EQ(results[1].presolve_bounds_tightened, 0) << label;
    }
    // CoSA models have no removable rows (their big-M reuse rows all
    // bind somewhere), but presolve must still find bound tightenings.
    EXPECT_GT(total_reductions, 0);
}

} // namespace
} // namespace cosa
