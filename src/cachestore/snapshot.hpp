#pragma once

/**
 * @file
 * The v3 text snapshot: a versioned, line-oriented dump of a schedule
 * cache's entries (doubles at max_digits10, so a round trip is
 * bit-exact; every record carries an FNV-1a checksum line).
 *
 * It is the interchange format of `cosactl cache export|import` and
 * the text side of bench_tab_cache_store. Solves persist across
 * processes in the binary store (store.hpp), not here. Format:
 * docs/cache-store.md, "Text snapshot format (v3)".
 */

#include <cstdint>
#include <string>

#include "engine/schedule_cache.hpp"

namespace cosa {
namespace cachestore {

/** Outcome of an exportSnapshot() or importSnapshot(). */
struct IoResult
{
    bool ok = false;
    std::string error;        //!< empty on success
    std::int64_t entries = 0; //!< written / merged
    /** importSnapshot() only: records dropped because they were
     *  truncated, failed their checksum or failed to parse (counted and
     *  logged; the surviving entries still merge). */
    std::int64_t skipped = 0;
};

/**
 * Write every entry of @p cache, in its exportEntries() order, to
 * @p path. Line 2 is always `capacity 0`. Crash-safe: the snapshot is
 * written to a temporary sibling file and atomically renamed over
 * @p path, so a crash mid-export can never truncate an existing
 * snapshot. Missing parent directories are created. Counters are not
 * persisted.
 */
IoResult exportSnapshot(const ScheduleCache& cache, const std::string& path);

/**
 * Merge the snapshot at @p path into @p cache through insert(): entries
 * keep the file's order and the file wins on a colliding key. A header
 * or version mismatch, or a line 2 that is not `capacity <N>`, fails
 * without touching the cache; N itself is not applied. A corrupt,
 * bit-flipped or truncated *record*, or one without its checksum line,
 * is skipped (counted in IoResult::skipped, logged,
 * `cosa_cache_events_total{event="corrupt_entry"}`) and every surviving
 * record still merges. Hit/miss counters are untouched.
 */
IoResult importSnapshot(const std::string& path, ScheduleCache& cache);

} // namespace cachestore
} // namespace cosa
