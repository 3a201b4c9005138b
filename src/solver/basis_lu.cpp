#include "solver/basis_lu.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.hpp"

namespace cosa::solver {

namespace {

/**
 * Variable-length lists in one pool: list i is
 * pool[begin[i] .. begin[i] + len[i]) inside a slot of cap[i]
 * elements. A list that outgrows its slot moves to the end of the
 * pool, so a factorization allocates O(1) blocks however many lists
 * grow.
 */
template <typename T>
struct ListFile
{
    std::vector<T> pool;
    std::vector<std::int64_t> begin;
    std::vector<std::int32_t> len;
    std::vector<std::int32_t> cap;

    /** Empty lists whose slots of @p caps elements lie back to back. */
    explicit ListFile(const std::vector<std::int32_t>& caps)
        : begin(caps.size(), 0), len(caps.size(), 0), cap(caps)
    {
        std::int64_t at = 0;
        for (std::size_t i = 0; i < caps.size(); at += caps[i], ++i)
            begin[i] = at;
        pool.resize(static_cast<std::size_t>(at));
    }

    std::span<T>
    list(int i)
    {
        const auto k = static_cast<std::size_t>(i);
        return {pool.data() + begin[k], static_cast<std::size_t>(len[k])};
    }

    void
    push_back(int i, T value)
    {
        const auto k = static_cast<std::size_t>(i);
        if (len[k] == cap[k]) {
            const auto at = static_cast<std::int64_t>(pool.size());
            cap[k] = std::max<std::int32_t>(4, 2 * len[k]);
            pool.resize(pool.size() + static_cast<std::size_t>(cap[k]));
            std::copy_n(pool.begin() + begin[k], len[k], pool.begin() + at);
            begin[k] = at;
        }
        pool[static_cast<std::size_t>(begin[k] + len[k]++)] = value;
    }
};

} // namespace

bool
BasisLu::factorize(int m, std::span<const std::int64_t> col_start,
                   std::span<const Entry> entries)
{
    COSA_ASSERT(static_cast<int>(col_start.size()) == m + 1,
                "basis has ", col_start.size() - 1, " columns for ", m,
                " rows");
    m_ = m;
    factorized_ = false;
    unstable_ = false;
    etas_.clear();
    eta_entries_.clear();
    eta_nnz_ = 0;
    prow_.assign(static_cast<std::size_t>(m), -1);
    pcol_.assign(static_cast<std::size_t>(m), -1);
    l_start_.assign(1, 0);
    l_entries_.clear();
    l_steps_.clear();
    u_diag_.assign(static_cast<std::size_t>(m), 0.0);
    u_start_.assign(1, 0);
    u_entries_.clear();
    work_.assign(static_cast<std::size_t>(m), 0.0);
    eta_scratch_.resize(static_cast<std::size_t>(m));

    const auto um = static_cast<std::size_t>(m);
    auto basisColumn = [&](std::size_t j) {
        return entries.subspan(
            static_cast<std::size_t>(col_start[j]),
            static_cast<std::size_t>(col_start[j + 1] - col_start[j]));
    };
    std::vector<std::int32_t> col_len(um);
    std::vector<std::int32_t> row_count(um, 0);
    for (std::size_t j = 0; j < um; ++j) {
        col_len[j] = static_cast<std::int32_t>(basisColumn(j).size());
        for (const Entry& e : basisColumn(j))
            ++row_count[static_cast<std::size_t>(e.index)];
    }
    // Working copy of the basis: a column file with sorted row indices,
    // physically maintained (eliminated entries are removed, fill-in is
    // inserted) so column lengths double as live Markowitz column
    // counts. Per row, a second list file holds the columns that (may)
    // hold an entry of it: fill-in appends; cancellations leave stale
    // ids that lookups skip.
    ListFile<Entry> acols(col_len);
    ListFile<std::int32_t> rpat(row_count);
    for (int j = 0; j < m; ++j) {
        for (const Entry& e : basisColumn(static_cast<std::size_t>(j))) {
            acols.push_back(j, e);
            rpat.push_back(e.index, j);
        }
    }
    std::vector<std::uint8_t> col_active(um, 1);

    // Zero-cost candidates: a bitset of columns that may hold an
    // eligible entry of Markowitz cost 0 (a column singleton, or an
    // entry alone in its row). Every active column that holds one is
    // queued, so popping the lowest set bit lands on the column where a
    // full scan in column order would stop. A popped column without
    // one is dropped until an event re-queues it: an update of the
    // column itself, or a row of it whose count falls to 1. Only active
    // columns are queued, and a column is deactivated only after its
    // pop or, for a nucleus pivot, when the queue is empty, so every
    // queued column is active.
    const std::size_t words = (um + 63) / 64;
    std::vector<std::uint64_t> queued(words, ~std::uint64_t{0});
    if (um % 64 != 0)
        queued.back() = (std::uint64_t{1} << (um % 64)) - 1;
    std::size_t low_word = 0; // no queued column below this word
    auto enqueue = [&](int j) {
        const auto k = static_cast<std::size_t>(j);
        if (col_active[k]) {
            queued[k / 64] |= std::uint64_t{1} << (k % 64);
            low_word = std::min(low_word, k / 64);
        }
    };
    auto enqueueRow = [&](int row) {
        for (std::int32_t j : rpat.list(row))
            enqueue(j);
    };

    // U rows are recorded with basis-position column ids during the
    // elimination and remapped to step indices once the column
    // permutation is complete.
    auto columnEntry = [&](int col, int row) -> Entry* {
        const std::span<Entry> span = acols.list(col);
        auto it = std::lower_bound(
            span.begin(), span.end(), row,
            [](const Entry& e, int r) { return e.index < r; });
        return (it != span.end() && it->index == row) ? &*it : nullptr;
    };

    // Markowitz candidate: minimize (r-1)(c-1) over active entries whose
    // magnitude clears the threshold-pivoting guard, deterministically
    // (first minimum in column-then-row order).
    struct Pivot
    {
        int row = -1;
        int col = -1;
        std::int64_t cost = -1; //!< -1: no candidate yet
        double value = 0.0;
    };
    // Scan active column j, keeping the first entry (row order) that
    // beats the candidate's cost.
    auto scanColumn = [&](int j, Pivot& best) {
        const std::span<Entry> span = acols.list(j);
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
            if (best.cost < 0 || cost < best.cost) {
                best = {e.index, j, cost, e.value};
                if (cost == 0)
                    break;
            }
        }
    };

    std::vector<Entry> mult;    // (row, multiplier) of the pivot column
    std::vector<Entry> newcol;  // merge scratch for column updates
    std::vector<std::int32_t> prow_cols; // deduped pattern of the pivot row

    for (int k = 0; k < m; ++k) {
        // Singletons first: the lowest queued column with a zero-cost
        // entry, scanned exactly as the full scan would.
        Pivot best;
        while (best.row < 0) {
            while (low_word < words && queued[low_word] == 0)
                ++low_word;
            if (low_word == words)
                break;
            std::uint64_t& word = queued[low_word];
            const int j =
                static_cast<int>(low_word * 64) + std::countr_zero(word);
            word &= word - 1;
            if (acols.len[static_cast<std::size_t>(j)] == 0)
                return false; // structurally singular
            best.cost = 1; // accept cost 0 only
            scanColumn(j, best);
        }
        // The nucleus: no active column holds a zero-cost entry, so
        // search all of them.
        if (best.row < 0) {
            best = Pivot{};
            for (int j = 0; j < m && best.cost != 0; ++j) {
                if (!col_active[static_cast<std::size_t>(j)])
                    continue;
                if (acols.len[static_cast<std::size_t>(j)] == 0)
                    return false; // structurally singular
                scanColumn(j, best);
            }
        }
        if (best.row < 0)
            return false; // numerically singular
        const int pr = best.row;
        const int pc = best.col;
        prow_[static_cast<std::size_t>(k)] = pr;
        pcol_[static_cast<std::size_t>(k)] = pc;
        u_diag_[static_cast<std::size_t>(k)] = best.value;

        // L column k: multipliers of the rows eliminated at this step.
        col_active[static_cast<std::size_t>(pc)] = 0;
        mult.clear();
        const double inv_pivot = 1.0 / best.value;
        for (const Entry& e : acols.list(pc)) {
            const bool single =
                --row_count[static_cast<std::size_t>(e.index)] == 1;
            if (e.index != pr) {
                mult.push_back({e.index, e.value * inv_pivot});
                if (single)
                    enqueueRow(e.index);
            }
        }
        l_entries_.insert(l_entries_.end(), mult.begin(), mult.end());
        l_start_.push_back(static_cast<std::int64_t>(l_entries_.size()));
        if (!mult.empty())
            l_steps_.push_back(k);
        acols.len[static_cast<std::size_t>(pc)] = 0;

        // Walk the pivot row's pattern once: each live entry (pr, j)
        // becomes a U entry and drives the rank-one update of column j.
        const std::span<const std::int32_t> pattern = rpat.list(pr);
        prow_cols.assign(pattern.begin(), pattern.end());
        std::sort(prow_cols.begin(), prow_cols.end());
        prow_cols.erase(std::unique(prow_cols.begin(), prow_cols.end()),
                        prow_cols.end());
        for (std::int32_t j : prow_cols) {
            if (!col_active[static_cast<std::size_t>(j)])
                continue;
            Entry* const pivot_entry = columnEntry(j, pr);
            if (pivot_entry == nullptr)
                continue; // cancelled earlier; stale pattern id
            const double urj = pivot_entry->value;
            u_entries_.push_back({j, urj});
            enqueue(j);
            if (mult.empty()) {
                // A column-singleton pivot eliminates no row: the update
                // below would only drop the pivot row's entry, so erase
                // it in place (same entries, same order).
                const std::span<Entry> col = acols.list(j);
                std::copy(pivot_entry + 1, col.data() + col.size(),
                          pivot_entry);
                --acols.len[static_cast<std::size_t>(j)];
                continue;
            }

            // Column update: a[:,j] -= urj * mult[:], dropping the
            // pivot row's entry and cancellation noise, inserting
            // fill-in. Both inputs are row-sorted: one merge pass.
            newcol.clear();
            const std::span<const Entry> old = acols.list(j);
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
                        rpat.push_back(mult[b].index, j);
                    }
                    ++b;
                } else {
                    const double delta = urj * mult[b].value;
                    const double updated = old[a].value - delta;
                    if (std::abs(updated) >
                        kDropTol *
                            (std::abs(old[a].value) + std::abs(delta))) {
                        newcol.push_back({old[a].index, updated});
                    } else if (--row_count[static_cast<std::size_t>(
                                   old[a].index)] == 1) {
                        enqueueRow(old[a].index);
                    }
                    ++a;
                    ++b;
                }
            }
            acols.len[static_cast<std::size_t>(j)] = 0;
            for (const Entry& e : newcol)
                acols.push_back(j, e);
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

    factor_nnz_ = static_cast<std::int64_t>(l_entries_.size() +
                                            u_entries_.size()) +
                  m;
    factorized_ = true;
    ++stats_.factorizations;
    return true;
}

void
BasisLu::ftran(double* x) const
{
    COSA_ASSERT(factorized_, "ftran before a successful factorization");
    // Forward solve L z = P x, accumulating in the original row space:
    // after step k, x[prow_k] holds z_k. Steps with an empty L column
    // change nothing, so only l_steps_ are visited.
    for (const std::int32_t k : l_steps_) {
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
    const Entry* off = eta_entries_.data();
    for (const Eta& eta : etas_) {
        const Entry* const end = eta_entries_.data() + eta.end;
        const double xp = x[eta.p] * eta.inv_pivot;
        x[eta.p] = xp;
        if (xp != 0.0) {
            for (; off != end; ++off)
                x[off->index] -= off->value * xp;
        }
        off = end;
    }
}

void
BasisLu::btran(double* y) const
{
    COSA_ASSERT(factorized_, "btran before a successful factorization");
    // Transposed etas, newest first: B^-T = (LU)^-T E_1^-T ... E_K^-T.
    for (std::size_t k = etas_.size(); k-- > 0;) {
        const Eta& eta = etas_[k];
        const Entry* const end = eta_entries_.data() + eta.end;
        double acc = y[eta.p];
        for (const Entry* e = eta_entries_.data() + (k ? etas_[k - 1].end : 0);
             e != end; ++e)
            acc -= e->value * y[e->index];
        y[eta.p] = acc * eta.inv_pivot;
    }
    // Gather into step space (transpose of ftran's final scatter).
    for (int k = 0; k < m_; ++k)
        work_[static_cast<std::size_t>(k)] =
            y[pcol_[static_cast<std::size_t>(k)]];
    // Forward solve U^T s = w in step space. A zero w_k skips its
    // division and its scatter, but keeps the zero signed as the
    // division would sign it: w_k * d is -w_k for a negative diagonal
    // (d is finite and nonzero). The factor oracle compares with
    // memcmp, where +0 and -0 differ.
    for (int k = 0; k < m_; ++k) {
        const auto uk = static_cast<std::size_t>(k);
        const double v = work_[uk];
        if (v == 0.0) {
            work_[uk] = v * u_diag_[uk];
            continue;
        }
        const double sk = v / u_diag_[uk];
        work_[uk] = sk;
        if (sk != 0.0) {
            const std::int64_t b = u_start_[uk];
            const std::int64_t e = u_start_[uk + 1];
            for (std::int64_t t = b; t < e; ++t) {
                const Entry& ue = u_entries_[static_cast<std::size_t>(t)];
                work_[static_cast<std::size_t>(ue.index)] -=
                    ue.value * sk;
            }
        }
    }
    // Back solve L^T y' = s into the original row space: L's column k
    // only references rows eliminated later, so descending steps have
    // their dependencies already final. A step with an empty L column
    // reads nothing and writes s_k, so every row first takes its s_k,
    // and the steps in l_steps_ then overwrite theirs in descending
    // order.
    for (int k = 0; k < m_; ++k)
        y[prow_[static_cast<std::size_t>(k)]] =
            work_[static_cast<std::size_t>(k)];
    for (std::size_t t = l_steps_.size(); t-- > 0;) {
        const auto uk = static_cast<std::size_t>(l_steps_[t]);
        double acc = work_[uk];
        const std::int64_t b = l_start_[uk];
        const std::int64_t e = l_start_[uk + 1];
        for (std::int64_t t2 = b; t2 < e; ++t2) {
            const Entry& le = l_entries_[static_cast<std::size_t>(t2)];
            acc -= le.value * y[le.index];
        }
        y[prow_[uk]] = acc;
    }
}

void
BasisLu::update(int p, const double* w)
{
    COSA_ASSERT(factorized_, "eta update before a factorization");
    // ||w||_inf over four independent max chains: max is exact and
    // ignores a NaN operand whatever the grouping, so the value is the
    // serial chain's.
    const int m = m_;
    double max4[4] = {0.0, 0.0, 0.0, 0.0};
    int i = 0;
    for (; i + 4 <= m; i += 4) {
        for (int t = 0; t < 4; ++t)
            max4[t] = std::max(max4[t], std::abs(w[i + t]));
    }
    for (; i < m; ++i)
        max4[0] = std::max(max4[0], std::abs(w[i]));
    const double max_abs =
        std::max(std::max(max4[0], max4[1]), std::max(max4[2], max4[3]));
    // The off-diagonal nonzeros of w in index order, compacted without
    // a branch per entry: every entry is written, and the cursor moves
    // past the nonzero ones.
    Entry* const out = eta_scratch_.data();
    std::size_t off_count = 0;
    const auto compact = [&](int begin, int end) {
        for (int t = begin; t < end; ++t) {
            out[off_count] = {t, w[t]};
            off_count += w[t] != 0.0;
        }
    };
    compact(0, p);
    compact(p + 1, m);
    eta_entries_.insert(eta_entries_.end(), out, out + off_count);
    const auto off = static_cast<std::int64_t>(off_count);
    eta_nnz_ += off + 1;
    ++stats_.eta_updates;
    if (std::abs(w[p]) < kEtaStabilityTol * max_abs) {
        unstable_ = true;
        ++stats_.unstable_updates;
    } else if (!unstable_ && etas_.size() + 1 < kMaxEtas &&
               eta_nnz_ > fillBound() && eta_nnz_ - off - 1 <= fillBound()) {
        ++stats_.fill_refactor_requests; // first crossing of the bound
    }
    etas_.push_back({static_cast<std::int32_t>(p), 1.0 / w[p],
                     static_cast<std::int64_t>(eta_entries_.size())});
}

bool
BasisLu::needsRefactorization() const
{
    if (!factorized_)
        return false;
    return unstable_ ||
           static_cast<std::int64_t>(etas_.size()) >= kMaxEtas ||
           eta_nnz_ > fillBound();
}

} // namespace cosa::solver
