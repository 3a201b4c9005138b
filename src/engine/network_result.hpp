#pragma once

/**
 * @file
 * Result types of one scheduling-engine query (shared by the blocking
 * scheduleNetwork*() wrappers and the asynchronous ScheduleJob front
 * door, which is why they live apart from the engine itself).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "mapper/mapper.hpp"

namespace cosa {

/**
 * Provenance of one layer's schedule under the service's failure
 * firewall: which path produced (or failed to produce) it.
 */
enum class LayerOutcome {
    /** The requested scheduler's own result was used (possibly after
     *  typed-fault retries; see LayerScheduleResult::solve_retries).
     *  Also the value for cache hits and cancel-skipped problems. */
    kOptimal = 0,
    /** The requested scheduler faulted past its retry budget and the
     *  degradation ladder (greedy, then random search) produced the
     *  schedule instead. */
    kDegradedFallback,
    /** Every rung failed: the layer has no schedule and
     *  SearchResult::status carries the typed cause. */
    kFailed,
};

/** Display name ("optimal" / "degraded_fallback" / "failed"). */
inline const char*
layerOutcomeName(LayerOutcome outcome)
{
    switch (outcome) {
      case LayerOutcome::kOptimal: return "optimal";
      case LayerOutcome::kDegradedFallback: return "degraded_fallback";
      case LayerOutcome::kFailed: return "failed";
    }
    return "invalid";
}

/** One layer instance's scheduling outcome within a network. */
struct LayerScheduleResult
{
    LayerSpec layer;      //!< the instance, in workload order
    SearchResult result;  //!< schedule + evaluation + original stats
    /** Served from the cross-query ScheduleCache. */
    bool from_cache = false;
    /** Shape duplicate of an earlier instance in this same query. */
    bool deduplicated = false;
    /** The job was cancelled before this instance's problem solved
     *  (result.found is false). */
    bool cancelled = false;
    /** Index of the instance's unique problem within this query. */
    int unique_index = -1;
    /** Which firewall path produced the schedule. */
    LayerOutcome outcome = LayerOutcome::kOptimal;
    /** Typed-fault retries the firewall spent before this result. */
    int solve_retries = 0;
    /** Ladder rung that served a degraded schedule ("greedy" or
     *  "random"); empty unless outcome is kDegradedFallback. */
    std::string fallback_stage;
};

/** Whole-network scheduling outcome with engine accounting. */
struct NetworkResult
{
    std::string network;   //!< workload name
    std::string arch;      //!< arch display name
    std::string scheduler; //!< scheduler kind name

    std::vector<LayerScheduleResult> layers; //!< workload order
    bool all_found = true; //!< every layer got a valid schedule

    // Aggregates over layers with a schedule.
    double total_cycles = 0.0;
    double total_energy_pj = 0.0;
    /** Network energy-delay product (aggregate energy x latency). */
    double edp() const { return total_cycles * total_energy_pj; }

    /** Summed search statistics of the solves this query performed
     *  (cache hits contribute nothing here). */
    SearchStats search;

    // Engine accounting for this query.
    std::int64_t num_layers = 0;     //!< layer instances requested
    std::int64_t num_unique = 0;     //!< distinct canonical problems
    std::int64_t num_solved = 0;     //!< problems solved right now
    std::int64_t num_cache_hits = 0; //!< problems served from the cache
    /** Problems skipped because the job was cancelled mid-batch. */
    std::int64_t num_cancelled = 0;
    /** Layer instances scheduled by the degradation ladder after the
     *  requested scheduler faulted (LayerOutcome::kDegradedFallback). */
    std::int64_t num_degraded = 0;
    /** Layer instances left unscheduled by a fault that exhausted both
     *  retries and the ladder (LayerOutcome::kFailed). */
    std::int64_t num_failed = 0;
    /** Solves seeded with a nearest-neighbor schedule from the cache. */
    std::int64_t num_warm_hints = 0;
    /** Seeded solves whose hint the MIP accepted as an incumbent. */
    std::int64_t num_warm_hits = 0;
    double wall_time_sec = 0.0;      //!< end-to-end query wall time
    /** The query's job was cancelled before this network completed. */
    bool cancelled = false;
    /** The cancellation came from the request's deadline elapsing
     *  (SchedulerService auto-cancel), not an explicit cancel(). */
    bool deadline_expired = false;
};

} // namespace cosa
