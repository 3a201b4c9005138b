#pragma once

/**
 * @file
 * Reimplementation of the Timeloop Hybrid mapper the paper compares
 * against (§IV-B): each of `num_threads` walks repeatedly (1) draws a
 * random tiling factorization, (2) prunes superfluous permutations, and
 * (3) linearly scans the pruned permutation subspace, self-terminating
 * after a fixed count of consecutive valid-but-suboptimal mappings.
 * The best mapping across all walks wins. Walks run on the calling
 * thread and on helpers it queues; the mapper starts no thread.
 */

#include <functional>

#include "mapper/mapper.hpp"
#include "mapping/mapspace.hpp"

namespace cosa {

/** Most walks one Hybrid search runs (per layer). */
inline constexpr int kMaxHybridThreads = 64;

/** Tunables of the Timeloop-Hybrid mapper (paper defaults). */
struct HybridMapperConfig
{
    /** Search walks per layer, in [1, kMaxHybridThreads]. */
    int num_threads = 8;
    /** Self-termination: consecutive valid yet suboptimal mappings. */
    int victory_condition = 500;
    /** Cap on permutations linearly scanned per factorization. */
    int max_perms_per_factorization = 64;
    /** Safety cap on total samples per walk. */
    std::int64_t max_samples_per_thread = 4'000'000;
    SearchObjective objective = SearchObjective::Latency;
    std::uint64_t seed = 0x71AE;

    /** kInvalidInput when num_threads is outside [1, kMaxHybridThreads]:
     *  every walk holds a candidate funnel and queues one helper task.
     *  The wire decoder and the service's input guard both run it, so
     *  no request reaches schedule() with an unbounded walk count. */
    Status checkBounds() const;
};

/** Timeloop-Hybrid search over num_threads independent walks. */
class HybridMapper
{
  public:
    /** Queues @p count calls of @p help on other threads; a call that
     *  starts after every walk was claimed returns at once. */
    using Spawn = std::function<void(int count, std::function<void()> help)>;

    explicit HybridMapper(HybridMapperConfig config = {});

    SearchResult schedule(const LayerSpec& layer, const ArchSpec& arch) const;

    /** Same search, scored by @p evaluator (see Evaluator): walks
     *  prune with searchEvaluate(); the merged per-walk top candidates
     *  are re-scored on the full platform. The caller runs every walk
     *  no helper claims (all when @p spawn is null): same result. */
    SearchResult schedule(const LayerSpec& layer, const ArchSpec& arch,
                          const Evaluator& evaluator,
                          const Spawn& spawn = {}) const;

  private:
    HybridMapperConfig config_;
};

} // namespace cosa
