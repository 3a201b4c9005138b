#pragma once

/**
 * @file
 * Generation-swap compaction of the store's log.
 *
 * An append-only log accumulates dead frames: overwritten inserts
 * and evict records (plus the inserts they killed) stay on disk until
 * someone folds them away. Compaction rewrites the log as a fresh
 * generation holding exactly the live entries (one insert record each,
 * ascending sequence number, no evicts), then swaps it in with the
 * crash-safe temp-file + atomic-rename pattern (the MANIFEST write
 * uses it too): a crash before the rename leaves the old generation
 * untouched (the stale `.tmp` is ignored and removed on the next
 * open); a crash after it leaves the new one — there is no state in
 * between.
 *
 * Policy: a log is worth compacting when its log has grown past
 * `min_bytes` AND dead bytes outweigh live ones (folding tiny or
 * mostly-live logs is pure IO noise). The store checks the policy
 * after every append and either runs the fold inline (offline mode)
 * or schedules it as a threadless continuation on the engine's shared
 * Executor at the lowest-priority tier (online mode) — compaction
 * never owns a thread and never delays a solve.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace cosa {
namespace cachestore {

/** When a log is worth folding. */
struct CompactionPolicy
{
    /** Logs smaller than this never compact (rewriting a few KiB is
     *  noise next to the fsync). */
    std::uint64_t min_bytes = 64 * 1024;
    /** Compact when dead_bytes > live_bytes * garbage_ratio. */
    double garbage_ratio = 1.0;

    bool
    shouldCompact(std::uint64_t log_bytes, std::uint64_t live_bytes,
                  std::uint64_t header_bytes) const
    {
        if (log_bytes <= min_bytes)
            return false;
        const std::uint64_t payload =
            log_bytes > header_bytes ? log_bytes - header_bytes : 0;
        const std::uint64_t dead =
            payload > live_bytes ? payload - live_bytes : 0;
        return static_cast<double>(dead) >
               static_cast<double>(live_bytes) * garbage_ratio;
    }
};

/** The `.tmp` sibling a mid-swap crash can leave behind. */
std::string compactionTempPath(const std::string& log_path);

/**
 * Write @p payloads (pre-encoded live insert records, ascending seq)
 * as a fresh generation of @p log_path and atomically swap it in.
 * Returns the new generation's byte size. The caller holds the store
 * lock (the swap must not race an append) and reopens its writer on
 * the new file afterwards.
 */
StatusOr<std::uint64_t> compactLogFile(
    const std::string& log_path, const std::vector<std::string>& payloads);

} // namespace cachestore
} // namespace cosa
