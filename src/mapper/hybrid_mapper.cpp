#include "mapper/hybrid_mapper.hpp"

#include <atomic>
#include <exception>
#include <latch>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "mapper/random_mapper.hpp"

namespace cosa {

Status
HybridMapperConfig::checkBounds() const
{
    if (num_threads < 1 || num_threads > kMaxHybridThreads)
        return {ErrorCode::kInvalidInput,
                "hybrid num_threads " + std::to_string(num_threads) +
                    " is outside [1, " + std::to_string(kMaxHybridThreads) +
                    "]"};
    return Status::Ok();
}

HybridMapper::HybridMapper(HybridMapperConfig config)
    : config_(std::move(config))
{
}

SearchResult
HybridMapper::schedule(const LayerSpec& layer, const ArchSpec& arch) const
{
    return schedule(layer, arch, defaultEvaluator());
}

SearchResult
HybridMapper::schedule(const LayerSpec& layer, const ArchSpec& arch,
                       const Evaluator& evaluator, const Spawn& spawn) const
{
    const double start = wallTimeSec();
    SearchResult result;
    result.scheduler = "TimeloopHybrid";

    const auto bound = evaluator.bind(layer, arch);
    FactorPool pool(layer);

    // Per-walk candidate funnels, counters and faults, merged in walk
    // order once every walk is done, so the kept top-k (and thus the
    // winner on tie) is deterministic whichever thread ran which walk.
    const auto num_walks = static_cast<std::size_t>(config_.num_threads);
    std::vector<CandidateSelector> locals(
        num_walks, CandidateSelector(evaluator, *bound, config_.objective));
    std::vector<SearchStats> walk_stats(num_walks);
    std::vector<std::exception_ptr> faults(num_walks);

    auto search = [&](std::size_t walk) {
        Rng rng(config_.seed + 0x9e37 * static_cast<std::uint64_t>(walk));
        SearchStats& stats = walk_stats[walk];
        CandidateSelector& select = locals[walk];
        int consecutive_suboptimal = 0;

        while (consecutive_suboptimal < config_.victory_condition &&
               stats.samples < config_.max_samples_per_thread) {
            // (1) random tiling factorization + spatial choice
            const FactorAssignment assignment =
                sampleAssignment(pool, arch, rng);
            const Mapping base = buildMapping(pool, assignment, arch);

            // (2)+(3) linear scan of the pruned permutation subspace at
            // the two reuse-critical levels (GlobalBuf, then DRAM).
            std::vector<Mapping> candidates = permuteLevel(
                base, arch.noc_level, config_.max_perms_per_factorization);
            // Early validity probe: if the factorization itself violates
            // capacity, one evaluation suffices (tiling-identical perms
            // share validity).
            const Evaluation probe = bound->searchEvaluate(candidates.front());
            ++stats.samples;
            if (!probe.valid) {
                continue;
            }
            for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
                const Mapping& candidate = candidates[ci];
                const Evaluation ev =
                    ci == 0 ? probe : bound->searchEvaluate(candidate);
                stats.samples += ci == 0 ? 0 : 1;
                if (!ev.valid)
                    continue;
                ++stats.valid_evaluated;
                if (select.offer(candidate, ev)) {
                    consecutive_suboptimal = 0;
                } else {
                    ++consecutive_suboptimal;
                    if (consecutive_suboptimal >=
                        config_.victory_condition)
                        break;
                }
            }
        }
    };

    // Walks are claimed in index order, by this thread and by the
    // helpers spawn() queues. A helper touches this stack only through
    // a claimed walk, which this thread waits for; one that starts after
    // the last claim sees only the claim state it co-owns. A fault must
    // not escape a helper (the executor would only log it): each walk
    // captures its own.
    struct Claims
    {
        explicit Claims(std::ptrdiff_t n) : unfinished(n) {}
        std::atomic<std::size_t> next{0};
        std::latch unfinished;
    };
    auto claims = std::make_shared<Claims>(config_.num_threads);
    auto help = [claims, num_walks, run = &search, faults = faults.data()] {
        for (std::size_t w; (w = claims->next.fetch_add(1)) < num_walks;) {
            try {
                (*run)(w);
            } catch (...) {
                faults[w] = std::current_exception();
            }
            claims->unfinished.count_down();
        }
    };
    if (spawn)
        spawn(config_.num_threads - 1, help);
    help();
    claims->unfinished.wait();
    // Surface the lowest-index fault on the calling thread, where the
    // firewall retries and degrades it like any scheduler's.
    for (const std::exception_ptr& fault : faults) {
        if (fault)
            std::rethrow_exception(fault);
    }

    // Deterministic merge: every walk's kept candidates and counters,
    // in walk order, flow into one funnel which then re-scores the top-k.
    CandidateSelector merged(evaluator, *bound, config_.objective);
    for (std::size_t w = 0; w < num_walks; ++w) {
        locals[w].drainInto(merged);
        result.stats.add(walk_stats[w]);
    }
    if (auto winner = merged.finalize()) {
        result.found = true;
        result.mapping = std::move(winner->mapping);
        result.eval = std::move(winner->eval);
    }

    result.stats.search_time_sec = wallTimeSec() - start;
    return result;
}

} // namespace cosa
