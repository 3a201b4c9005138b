#pragma once

/**
 * @file
 * Test-only reference factorization: BasisLu as it was before the
 * singleton queue, the column file and the flat eta file, kept as the
 * ground truth those are checked against. The Markowitz search
 * restarts its scan at column 0 on every elimination step, the working
 * copy is one std::vector per column and per row pattern, and every
 * eta owns its own entry vector. The factorization, the two solves
 * and the eta construction are verbatim; the refactorization triggers
 * and their counters are left out, since they do not touch the
 * factors.
 *
 * The production BasisLu must reproduce this class bit for bit: the
 * same success or failure on every basis, and on success the same
 * FTRAN and BTRAN results, before and after eta updates
 * (BasisLu.FactorsMatchFullScanOracle).
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "solver/basis_lu.hpp"

namespace cosa::solver::testing {

/** The full-scan Markowitz LU with a per-eta product-form file. */
class RefMarkowitzLu
{
  public:
    using Entry = BasisLu::Entry;
    static constexpr double kMarkowitzThreshold =
        BasisLu::kMarkowitzThreshold;
    static constexpr double kSingularTol = BasisLu::kSingularTol;
    static constexpr double kDropTol = BasisLu::kDropTol;

    bool
    factorize(int m, const std::vector<std::vector<Entry>>& cols)
    {
        m_ = m;
        factorized_ = false;
        etas_.clear();
        prow_.assign(static_cast<std::size_t>(m), -1);
        pcol_.assign(static_cast<std::size_t>(m), -1);
        l_start_.assign(1, 0);
        l_entries_.clear();
        u_diag_.assign(static_cast<std::size_t>(m), 0.0);
        u_start_.assign(1, 0);
        u_entries_.clear();
        work_.assign(static_cast<std::size_t>(m), 0.0);

        // Working copy of the basis, column-major with sorted row indices,
        // physically maintained (eliminated entries are removed, fill-in is
        // inserted) so column sizes double as live Markowitz column counts.
        std::vector<std::vector<Entry>> acols = cols;
        std::vector<std::int32_t> row_count(static_cast<std::size_t>(m), 0);
        // Per row: the columns that (may) hold an entry of it. Fill-in
        // appends; cancellations leave stale ids that lookups skip.
        std::vector<std::vector<std::int32_t>> rpat(static_cast<std::size_t>(m));
        std::vector<std::uint8_t> col_active(static_cast<std::size_t>(m), 1);
        for (int j = 0; j < m; ++j) {
            for (const Entry& e : acols[static_cast<std::size_t>(j)]) {
                ++row_count[static_cast<std::size_t>(e.index)];
                rpat[static_cast<std::size_t>(e.index)].push_back(j);
            }
        }

        // U rows are recorded with basis-position column ids during the
        // elimination and remapped to step indices once the column
        // permutation is complete.
        auto columnEntry = [&](int col, int row) -> Entry* {
            auto& span = acols[static_cast<std::size_t>(col)];
            auto it = std::lower_bound(
                span.begin(), span.end(), row,
                [](const Entry& e, int r) { return e.index < r; });
            return (it != span.end() && it->index == row) ? &*it : nullptr;
        };

        std::vector<Entry> mult;    // (row, multiplier) of the pivot column
        std::vector<Entry> newcol;  // merge scratch for column updates
        std::vector<std::int32_t> prow_cols; // deduped pattern of the pivot row

        for (int k = 0; k < m; ++k) {
            // Markowitz pivot search: minimize (r-1)(c-1) over active
            // entries whose magnitude clears the threshold-pivoting guard,
            // deterministically (first minimum in column-then-row order).
            int pr = -1, pc = -1;
            std::int64_t best_cost = -1;
            double pivot_value = 0.0;
            for (int j = 0; j < m && best_cost != 0; ++j) {
                if (!col_active[static_cast<std::size_t>(j)])
                    continue;
                const auto& span = acols[static_cast<std::size_t>(j)];
                if (span.empty())
                    return false; // structurally singular
                double colmax = 0.0;
                for (const Entry& e : span)
                    colmax = std::max(colmax, std::abs(e.value));
                const double guard =
                    std::max(kSingularTol, kMarkowitzThreshold * colmax);
                const std::int64_t cfactor =
                    static_cast<std::int64_t>(span.size()) - 1;
                for (const Entry& e : span) {
                    if (std::abs(e.value) < guard)
                        continue;
                    const std::int64_t cost =
                        (row_count[static_cast<std::size_t>(e.index)] - 1) *
                        cfactor;
                    if (best_cost < 0 || cost < best_cost) {
                        best_cost = cost;
                        pr = e.index;
                        pc = j;
                        pivot_value = e.value;
                        if (best_cost == 0)
                            break;
                    }
                }
            }
            if (pr < 0)
                return false; // numerically singular
            prow_[static_cast<std::size_t>(k)] = pr;
            pcol_[static_cast<std::size_t>(k)] = pc;
            u_diag_[static_cast<std::size_t>(k)] = pivot_value;

            // L column k: multipliers of the rows eliminated at this step.
            mult.clear();
            const double inv_pivot = 1.0 / pivot_value;
            for (const Entry& e : acols[static_cast<std::size_t>(pc)]) {
                --row_count[static_cast<std::size_t>(e.index)];
                if (e.index != pr)
                    mult.push_back({e.index, e.value * inv_pivot});
            }
            l_entries_.insert(l_entries_.end(), mult.begin(), mult.end());
            l_start_.push_back(static_cast<std::int64_t>(l_entries_.size()));
            acols[static_cast<std::size_t>(pc)].clear();
            col_active[static_cast<std::size_t>(pc)] = 0;

            // Walk the pivot row's pattern once: each live entry (pr, j)
            // becomes a U entry and drives the rank-one update of column j.
            prow_cols = rpat[static_cast<std::size_t>(pr)];
            std::sort(prow_cols.begin(), prow_cols.end());
            prow_cols.erase(std::unique(prow_cols.begin(), prow_cols.end()),
                            prow_cols.end());
            for (std::int32_t j : prow_cols) {
                if (!col_active[static_cast<std::size_t>(j)])
                    continue;
                const Entry* pivot_entry = columnEntry(j, pr);
                if (pivot_entry == nullptr)
                    continue; // cancelled earlier; stale pattern id
                const double urj = pivot_entry->value;
                u_entries_.push_back({j, urj});

                // Column update: a[:,j] -= urj * mult[:], dropping the
                // pivot row's entry and cancellation noise, inserting
                // fill-in. Both inputs are row-sorted: one merge pass.
                newcol.clear();
                const auto& old = acols[static_cast<std::size_t>(j)];
                std::size_t a = 0, b = 0;
                while (a < old.size() || b < mult.size()) {
                    if (b == mult.size() ||
                        (a < old.size() && old[a].index < mult[b].index)) {
                        if (old[a].index != pr)
                            newcol.push_back(old[a]);
                        ++a;
                    } else if (a == old.size() ||
                               mult[b].index < old[a].index) {
                        const double fill = -urj * mult[b].value;
                        if (std::abs(fill) >
                            kDropTol * std::abs(urj * mult[b].value)) {
                            newcol.push_back({mult[b].index, fill});
                            ++row_count[static_cast<std::size_t>(
                                mult[b].index)];
                            rpat[static_cast<std::size_t>(mult[b].index)]
                                .push_back(j);
                        }
                        ++b;
                    } else {
                        const double delta = urj * mult[b].value;
                        const double updated = old[a].value - delta;
                        if (std::abs(updated) >
                            kDropTol *
                                (std::abs(old[a].value) + std::abs(delta))) {
                            newcol.push_back({old[a].index, updated});
                        } else {
                            --row_count[static_cast<std::size_t>(
                                old[a].index)];
                        }
                        ++a;
                        ++b;
                    }
                }
                acols[static_cast<std::size_t>(j)].swap(newcol);
            }
            u_start_.push_back(static_cast<std::int64_t>(u_entries_.size()));
        }

        // Remap U column ids (basis positions) to elimination steps.
        std::vector<std::int32_t> col_to_step(static_cast<std::size_t>(m), 0);
        for (int k = 0; k < m; ++k)
            col_to_step[static_cast<std::size_t>(
                pcol_[static_cast<std::size_t>(k)])] = k;
        for (Entry& e : u_entries_)
            e.index = col_to_step[static_cast<std::size_t>(e.index)];

        factorized_ = true;
        return true;
    }

    void
    ftran(double* x) const
    {
        // Forward solve L z = P x, accumulating in the original row space:
        // after step k, x[prow_k] holds z_k.
        for (int k = 0; k < m_; ++k) {
            const double zk = x[prow_[static_cast<std::size_t>(k)]];
            if (zk != 0.0) {
                const std::int64_t b = l_start_[static_cast<std::size_t>(k)];
                const std::int64_t e =
                    l_start_[static_cast<std::size_t>(k) + 1];
                for (std::int64_t t = b; t < e; ++t) {
                    const Entry& le = l_entries_[static_cast<std::size_t>(t)];
                    x[le.index] -= le.value * zk;
                }
            }
        }
        // Back substitution U s = z in step space.
        for (int k = m_ - 1; k >= 0; --k) {
            double acc = x[prow_[static_cast<std::size_t>(k)]];
            const std::int64_t b = u_start_[static_cast<std::size_t>(k)];
            const std::int64_t e = u_start_[static_cast<std::size_t>(k) + 1];
            for (std::int64_t t = b; t < e; ++t) {
                const Entry& ue = u_entries_[static_cast<std::size_t>(t)];
                acc -= ue.value * work_[static_cast<std::size_t>(ue.index)];
            }
            work_[static_cast<std::size_t>(k)] =
                acc / u_diag_[static_cast<std::size_t>(k)];
        }
        // Scatter s back to basis positions: x = Q s.
        for (int k = 0; k < m_; ++k)
            x[pcol_[static_cast<std::size_t>(k)]] =
                work_[static_cast<std::size_t>(k)];
        // Stream the eta file: B^-1 = E_K^-1 ... E_1^-1 (LU)^-1.
        for (const Eta& eta : etas_) {
            const double xp = x[eta.p] * eta.inv_pivot;
            x[eta.p] = xp;
            if (xp != 0.0) {
                for (const Entry& e : eta.off)
                    x[e.index] -= e.value * xp;
            }
        }
    }

    void
    btran(double* y) const
    {
        // Transposed etas, newest first: B^-T = (LU)^-T E_1^-T ... E_K^-T.
        for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
            double acc = y[it->p];
            for (const Entry& e : it->off)
                acc -= e.value * y[e.index];
            y[it->p] = acc * it->inv_pivot;
        }
        // Gather into step space (transpose of ftran's final scatter).
        for (int k = 0; k < m_; ++k)
            work_[static_cast<std::size_t>(k)] =
                y[pcol_[static_cast<std::size_t>(k)]];
        // Forward solve U^T s = w in step space.
        for (int k = 0; k < m_; ++k) {
            const double sk = work_[static_cast<std::size_t>(k)] /
                              u_diag_[static_cast<std::size_t>(k)];
            work_[static_cast<std::size_t>(k)] = sk;
            if (sk != 0.0) {
                const std::int64_t b = u_start_[static_cast<std::size_t>(k)];
                const std::int64_t e =
                    u_start_[static_cast<std::size_t>(k) + 1];
                for (std::int64_t t = b; t < e; ++t) {
                    const Entry& ue = u_entries_[static_cast<std::size_t>(t)];
                    work_[static_cast<std::size_t>(ue.index)] -=
                        ue.value * sk;
                }
            }
        }
        // Back solve L^T y' = s into the original row space: L's column k
        // only references rows eliminated later, so descending steps have
        // their dependencies already final.
        for (int k = m_ - 1; k >= 0; --k) {
            double acc = work_[static_cast<std::size_t>(k)];
            const std::int64_t b = l_start_[static_cast<std::size_t>(k)];
            const std::int64_t e = l_start_[static_cast<std::size_t>(k) + 1];
            for (std::int64_t t = b; t < e; ++t) {
                const Entry& le = l_entries_[static_cast<std::size_t>(t)];
                acc -= le.value * y[le.index];
            }
            y[prow_[static_cast<std::size_t>(k)]] = acc;
        }
    }

    void
    update(int p, const double* w)
    {
        Eta eta;
        eta.p = static_cast<std::int32_t>(p);
        eta.inv_pivot = 1.0 / w[p];
        for (int i = 0; i < m_; ++i) {
            if (i != p && w[i] != 0.0)
                eta.off.push_back({i, w[i]});
        }
        etas_.push_back(std::move(eta));
    }

  private:
    struct Eta
    {
        std::int32_t p = 0;
        double inv_pivot = 0.0;
        std::vector<Entry> off;
    };

    int m_ = 0;
    bool factorized_ = false;
    std::vector<std::int32_t> prow_;
    std::vector<std::int32_t> pcol_;
    std::vector<std::int64_t> l_start_;
    std::vector<Entry> l_entries_;
    std::vector<double> u_diag_;
    std::vector<std::int64_t> u_start_;
    std::vector<Entry> u_entries_;
    std::vector<Eta> etas_;
    mutable std::vector<double> work_;
};

} // namespace cosa::solver::testing
