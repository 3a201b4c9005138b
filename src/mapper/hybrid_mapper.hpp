#pragma once

/**
 * @file
 * Reimplementation of the Timeloop Hybrid mapper the paper compares
 * against (§IV-B): each worker thread repeatedly (1) draws a random
 * tiling factorization, (2) prunes superfluous permutations, and
 * (3) linearly scans the pruned permutation subspace, self-terminating
 * after a fixed count of consecutive valid-but-suboptimal mappings.
 * The best mapping across all threads wins.
 */

#include "mapper/mapper.hpp"
#include "mapping/mapspace.hpp"

namespace cosa {

/** Most worker threads one Hybrid search may start (per layer). */
inline constexpr int kMaxHybridThreads = 64;

/** Tunables of the Timeloop-Hybrid mapper (paper defaults). */
struct HybridMapperConfig
{
    /** Worker threads started per layer, in [1, kMaxHybridThreads]. */
    int num_threads = 8;
    /** Self-termination: consecutive valid yet suboptimal mappings. */
    int victory_condition = 500;
    /** Cap on permutations linearly scanned per factorization. */
    int max_perms_per_factorization = 64;
    /** Safety cap on total samples per thread. */
    std::int64_t max_samples_per_thread = 4'000'000;
    SearchObjective objective = SearchObjective::Latency;
    std::uint64_t seed = 0x71AE;

    /** kInvalidInput when num_threads is outside [1, kMaxHybridThreads]:
     *  every search starts that many std::threads. The wire decoder and
     *  the service's input guard both run it, so no request reaches
     *  schedule() with an unbounded thread count. */
    Status checkBounds() const;
};

/** Threaded Timeloop-Hybrid search. */
class HybridMapper
{
  public:
    explicit HybridMapper(HybridMapperConfig config = {});

    SearchResult schedule(const LayerSpec& layer, const ArchSpec& arch) const;

    /** Same search, scored by @p evaluator (see Evaluator): threads
     *  prune with searchEvaluate(); the merged per-thread top
     *  candidates are re-scored on the full platform. */
    SearchResult schedule(const LayerSpec& layer, const ArchSpec& arch,
                          const Evaluator& evaluator) const;

  private:
    HybridMapperConfig config_;
};

} // namespace cosa
