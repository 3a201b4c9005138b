#pragma once

/**
 * @file
 * Sparse LU representation of the simplex basis with product-form
 * (eta) updates — the simplex's one basis representation.
 *
 * The basis matrix B (one column per basic variable) is held as
 *     P B Q = L U
 * where P/Q are row/column permutations chosen by Markowitz ordering
 * (minimum fill estimate under a threshold-pivoting stability guard),
 * L is unit lower triangular and U upper triangular, both stored
 * sparse. FTRAN (x = B^-1 v) and BTRAN (y = B^-T v) are two sparse
 * triangular solves each instead of a dense m x m multiply.
 *
 * A simplex pivot replaces one basis column. Rather than refactorizing,
 * the replacement is absorbed as a product-form eta matrix: with
 * w = B^-1 a_q (the ftran'd entering column, already computed for the
 * ratio test) and p the leaving basis position,
 *     B' = B E,   E = I + (w - e_p) e_p',
 * so B'^-1 = E^-1 B^-1 and E^-1 costs O(nnz(w)) to apply, where an
 * explicit inverse needs an O(m^2) rank-one update. Etas accumulate in
 * a file that every FTRAN/BTRAN streams through; refactorization folds
 * them back into fresh L U factors.
 *
 * Refactorization is *stability-triggered*, not on a fixed pivot
 * cadence: an update whose eta pivot |w_p| is small against ||w||_inf
 * (growth beyond kEtaStabilityTol) flags the representation, and the
 * eta file is also bounded by fill (total eta nonzeros against the
 * factor nonzeros) and by a hard count backstop. The simplex loops poll
 * needsRefactorization() at iteration boundaries. See
 * docs/solver-numerics.md for the full policy and tolerance table.
 */

#include <cstdint>
#include <span>
#include <vector>

#include "solver/sparse_matrix.hpp"

namespace cosa::solver {

/** Sparse LU factors of a basis matrix plus the eta file on top. */
class BasisLu
{
  public:
    using Entry = SparseMatrix::Entry; //!< (index, value) coefficient

    /** Lifetime counters (survive refactorizations). */
    struct Stats
    {
        std::int64_t factorizations = 0;   //!< fresh LU factorizations
        std::int64_t eta_updates = 0;      //!< product-form updates absorbed
        /** Updates whose eta pivot failed the growth tolerance; each
         *  requests a refactorization at the next loop boundary. */
        std::int64_t unstable_updates = 0;
        /** Refactorization requests from the eta-file fill bound. */
        std::int64_t fill_refactor_requests = 0;

        /** Accumulate another snapshot (stat roll-ups across solves). */
        void
        add(const Stats& other)
        {
            factorizations += other.factorizations;
            eta_updates += other.eta_updates;
            unstable_updates += other.unstable_updates;
            fill_refactor_requests += other.fill_refactor_requests;
        }

        /** Counter advance since @p entry. Simplex copies inherit their
         *  source's counters, so per-clone work is exit minus the
         *  snapshot taken at copy time. */
        Stats
        since(const Stats& entry) const
        {
            Stats d;
            d.factorizations = factorizations - entry.factorizations;
            d.eta_updates = eta_updates - entry.eta_updates;
            d.unstable_updates = unstable_updates - entry.unstable_updates;
            d.fill_refactor_requests =
                fill_refactor_requests - entry.fill_refactor_requests;
            return d;
        }
    };

    /**
     * Factorize the m x m basis given as one flat CSC: the column at
     * basis position j is @p entries[col_start[j] .. col_start[j+1])
     * (row indices ascending; @p col_start has m + 1 offsets). Resets
     * the eta file. Returns false when the basis is singular (an
     * active column runs empty, or no pivot above kSingularTol
     * survives); the factors are then unusable until the next
     * successful factorize().
     */
    bool factorize(int m, std::span<const std::int64_t> col_start,
                   std::span<const Entry> entries);

    /** True when the last factorize() succeeded (the factors are
     *  usable). */
    bool factorized() const { return factorized_; }

    /** In place x := B^-1 x (dense length-m vector). */
    void ftran(double* x) const;

    /** In place y := B^-T y (dense length-m vector). */
    void btran(double* y) const;

    /**
     * Absorb a pivot that replaces basis position @p p, where @p w is
     * the ftran'd entering column B^-1 a_q (dense, length m; w[p] is
     * the pivot element, guaranteed nonzero by the caller's ratio
     * test). Always succeeds — the eta is exact regardless of
     * magnitude — but flags a stability refactorization request when
     * |w[p]| < kEtaStabilityTol * ||w||_inf, since applying such an eta
     * amplifies error by ||w||_inf / |w[p]|.
     */
    void update(int p, const double* w);

    /**
     * True when the eta file should be folded into fresh factors: a
     * preceding update tripped the growth tolerance, the accumulated
     * eta fill exceeds the factor fill, or the hard count backstop is
     * reached. Polled by the simplex loops at iteration boundaries.
     */
    bool needsRefactorization() const;

    const Stats& stats() const { return stats_; }

    /** Threshold-pivoting guard: a Markowitz pivot must be at least
     *  this fraction of its column's largest active entry. */
    static constexpr double kMarkowitzThreshold = 0.05;
    /** Absolute pivot floor; below it a basis is declared singular
     *  (matches the dense reference oracle's Gauss-Jordan tolerance). */
    static constexpr double kSingularTol = 1e-11;
    /** Eta growth tolerance: |w_p| / ||w||_inf below this requests a
     *  refactorization. */
    static constexpr double kEtaStabilityTol = 1e-7;
    /** Elimination entries whose updated magnitude falls below this
     *  fraction of the update's operand magnitudes are dropped as
     *  cancellation noise. */
    static constexpr double kDropTol = 1e-13;
    /** Hard backstop on the eta count regardless of fill. */
    static constexpr int kMaxEtas = 240;

  private:
    /** Eta-file fill bound: once the accumulated eta nonzeros exceed
     *  it, the next loop boundary refactorizes. */
    std::int64_t fillBound() const
    {
        const std::int64_t by_size = 4 * static_cast<std::int64_t>(m_);
        const std::int64_t by_fill = 2 * factor_nnz_;
        return by_size > by_fill ? by_size : by_fill;
    }

    /** One product-form eta: column p of E holds w. Its off-diagonal
     *  entries (i, w[i]), i != p, w[i] != 0, are
     *  eta_entries_[previous eta's end .. end). */
    struct Eta
    {
        std::int32_t p = 0;     //!< replaced basis position
        double inv_pivot = 0.0; //!< 1 / w[p]
        std::int64_t end = 0;   //!< one past its last entry
    };

    int m_ = 0;
    bool factorized_ = false;
    bool unstable_ = false;

    // P B Q = L U in pivot-step order k = 0..m-1.
    std::vector<std::int32_t> prow_; //!< pivot row (original id) of step k
    std::vector<std::int32_t> pcol_; //!< pivot column (basis position)
    /** L stored by elimination step: l_start_[k]..l_start_[k+1] are the
     *  (original row, multiplier) entries of L's column k. */
    std::vector<std::int64_t> l_start_;
    std::vector<Entry> l_entries_;
    /** Steps whose L column is non-empty, ascending: the only steps
     *  the L solves have work for. */
    std::vector<std::int32_t> l_steps_;
    /** U stored by pivot row: u_start_[k]..u_start_[k+1] are the
     *  (step index, value) entries right of the diagonal. */
    std::vector<double> u_diag_;
    std::vector<std::int64_t> u_start_;
    std::vector<Entry> u_entries_;

    /** The eta file, oldest first: FTRAN streams it forward, BTRAN
     *  backward. */
    std::vector<Eta> etas_;
    std::vector<Entry> eta_entries_;
    std::int64_t eta_nnz_ = 0;
    std::int64_t factor_nnz_ = 0;

    mutable std::vector<double> work_; //!< length-m solve scratch
    std::vector<Entry> eta_scratch_;   //!< length-m update scratch

    Stats stats_;
};

} // namespace cosa::solver
