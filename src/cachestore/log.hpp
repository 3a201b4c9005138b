#pragma once

/**
 * @file
 * Binary append-only record log of the schedule-cache store: the one
 * on-disk form of a cache entry.
 *
 * A log file is a fixed header followed by framed records:
 *
 *   header   "cosaclog" + u32 version + u32 shard_index + u32 num_shards
 *   record   u32 payload_len + u64 fnv1a64(payload) + payload
 *
 * The two header fields after the version always read 0 and 1 (the
 * store's one log); readLog() refuses any other value, as it refuses
 * any other version.
 *
 * Header and frame integers are fixed-width little-endian; integers
 * *inside* a payload are LEB128 varints (zigzag for signed), since
 * counters, bounds and lengths are almost always small. Doubles travel
 * as their raw IEEE-754 bits, so a round trip is bit-exact. Two record
 * kinds exist: an insert carries the full (key, layer, SearchResult)
 * of one cache entry plus its store-global sequence number; an evict
 * carries just the key. Replaying the records front to back reproduces
 * the store's live map, and the sequence numbers give its first-
 * insertion order (the order nearestNeighbor scans and ties break on).
 *
 * Durability follows write -> fsync -> publish: LogWriter::append
 * writes the frame and (by default) fsyncs before returning, and the
 * store only publishes the in-memory entry after the append returned.
 * A crash therefore leaves at worst a torn tail: readLog() verifies
 * every frame's length and checksum and stops at the first bad one,
 * visiting the records before it and reporting where the valid prefix
 * ends — load never fails on a torn or bit-flipped tail, it truncates
 * (see docs/cache-store.md for the recovery semantics).
 */

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "engine/schedule_cache.hpp"

namespace cosa {
namespace cachestore {

/** FNV-1a 64 over @p size bytes (the frame checksum). */
std::uint64_t fnv1a(const void* data, std::size_t size);

/** One replayable event of a log. */
struct LogRecord
{
    enum class Kind : std::uint8_t {
        kInsert = 1, //!< full entry (key + layer + result) at `seq`
        kEvict = 2,  //!< key only: the entry left the store
    };

    Kind kind = Kind::kInsert;
    /** Global first-insertion sequence number (store-wide monotonic).
     *  Overwrites keep the original entry's seq, mirroring how the
     *  in-memory cache keeps an overwritten entry's order slot. */
    std::uint64_t seq = 0;
    ScheduleCacheKey key;
    LayerSpec layer;     //!< insert only
    SearchResult result; //!< insert only
};

/** Serialize @p record into a frame payload (no framing header). */
std::string encodeRecord(const LogRecord& record);

/** Parse one frame payload; false on any structural error. */
bool decodeRecord(std::string_view payload, LogRecord* record);

/** Frame @p payload exactly as LogWriter::append writes it. */
std::string frameRecord(const std::string& payload);

/** Outcome of reading one log file. */
struct LogReadResult
{
    bool ok = false;
    std::string error; //!< set when !ok (unreadable / foreign header)
    /** Bad frames dropped at the tail (0 or 1: a torn or bit-flipped
     *  frame ends the readable prefix of an append-only file). */
    std::int64_t records_skipped = 0;
    /** Payload bytes that decoded as no known record (counted inside
     *  records_skipped's prefix cut as well). */
    std::int64_t decode_failures = 0;
    /** File offset where the valid prefix ends; bytes beyond it are
     *  the torn tail the writer truncates away on reopen. */
    std::uint64_t valid_bytes = 0;
    /** True when the file carried bytes past valid_bytes. */
    bool torn_tail = false;
};

/**
 * Read and verify @p path front to back, handing each valid record
 * (and its framed on-disk size, the store's live-bytes accounting) to
 * @p visit in file order — replaying a large log never materializes a
 * second copy of every entry. @p visit returning false stops the scan
 * early. A missing file is ok with zero records (a fresh log); a
 * foreign, truncated or other-version header, or one naming any log
 * but shard 0 of 1, is a hard error (wrong directory, not a crash);
 * everything after the header recovers per the file comment.
 */
LogReadResult readLog(
    const std::string& path,
    const std::function<bool(LogRecord&&, std::uint32_t)>& visit);

/** Append-side handle of one log file. */
class LogWriter
{
  public:
    LogWriter() = default;
    ~LogWriter() { close(); }

    LogWriter(const LogWriter&) = delete;
    LogWriter& operator=(const LogWriter&) = delete;

    /**
     * Open @p path for appending, creating it (with a fresh header)
     * when absent. @p valid_bytes — from readLog() — truncates a torn
     * tail before the first append so a recovered log never carries
     * unreachable garbage; below the header size it starts the file
     * afresh. @p fsync_each_append: false batches durability to
     * explicit sync() calls (bulk imports, benches).
     */
    Status open(const std::string& path, std::uint64_t valid_bytes,
                bool fsync_each_append = true);

    /** Frame + write @p payload (fsync per the open mode). The record
     *  is durable when this returns ok — publish after, not before. */
    Status append(const std::string& payload);

    /** Flush pending bytes to disk (no-op when fsync_each_append). */
    Status sync();

    void close();
    bool isOpen() const { return fd_ >= 0; }
    /** Current file size (header + every appended frame). */
    std::uint64_t bytes() const { return bytes_; }

  private:
    int fd_ = -1;
    std::uint64_t bytes_ = 0;
    bool fsync_each_append_ = true;
    bool dirty_ = false;
};

/** Header byte size (frames start here). */
std::uint64_t logHeaderBytes();

/** Framed size of @p payload (frame header + payload). */
std::uint64_t framedBytes(const std::string& payload);

} // namespace cachestore
} // namespace cosa
