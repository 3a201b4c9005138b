#include "mapper/hybrid_mapper.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

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
                       const Evaluator& evaluator) const
{
    const double start = wallTimeSec();
    SearchResult result;
    result.scheduler = "TimeloopHybrid";

    const auto bound = evaluator.bind(layer, arch);
    FactorPool pool(layer);

    // Per-thread candidate funnels, merged in thread-id order after the
    // join so the kept top-k (and thus the winner on tie) is
    // deterministic regardless of completion order.
    std::vector<CandidateSelector> locals(
        static_cast<std::size_t>(config_.num_threads),
        CandidateSelector(evaluator, *bound, config_.objective));
    std::mutex merge_mutex;

    // A fault must not escape a raw thread (std::terminate, past the
    // service firewall): each worker captures its own, and `stop` ends
    // the other workers' sample loops early.
    std::vector<std::exception_ptr> faults(
        static_cast<std::size_t>(config_.num_threads));
    std::atomic<bool> stop{false};

    auto search = [&](int thread_id) {
        Rng rng(config_.seed + 0x9e37 * static_cast<std::uint64_t>(thread_id));
        SearchStats stats;
        CandidateSelector& select =
            locals[static_cast<std::size_t>(thread_id)];
        int consecutive_suboptimal = 0;

        while (!stop.load(std::memory_order_relaxed) &&
               consecutive_suboptimal < config_.victory_condition &&
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

        std::lock_guard<std::mutex> lock(merge_mutex);
        result.stats.samples += stats.samples;
        result.stats.valid_evaluated += stats.valid_evaluated;
    };
    auto worker = [&](int thread_id) {
        try {
            search(thread_id);
        } catch (...) {
            faults[static_cast<std::size_t>(thread_id)] =
                std::current_exception();
            stop.store(true, std::memory_order_relaxed);
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(config_.num_threads));
    try {
        for (int t = 0; t < config_.num_threads; ++t)
            threads.emplace_back(worker, t);
    } catch (...) {
        // A thread that failed to start must not unwind past joinable
        // ones (std::terminate): stop and join those, then let the
        // firewall see the fault.
        stop.store(true, std::memory_order_relaxed);
        for (auto& t : threads)
            t.join();
        throw;
    }
    for (auto& t : threads)
        t.join();
    // Surface the lowest-index fault on the calling thread, where the
    // firewall retries and degrades it like any scheduler's.
    for (const std::exception_ptr& fault : faults) {
        if (fault)
            std::rethrow_exception(fault);
    }

    // Deterministic merge: every thread's kept candidates, in thread
    // order, flow into one funnel which then re-scores the top-k.
    CandidateSelector merged(evaluator, *bound, config_.objective);
    for (const CandidateSelector& local : locals)
        local.drainInto(merged);
    if (auto winner = merged.finalize()) {
        result.found = true;
        result.mapping = std::move(winner->mapping);
        result.eval = std::move(winner->eval);
    }

    result.stats.search_time_sec = wallTimeSec() - start;
    return result;
}

} // namespace cosa
