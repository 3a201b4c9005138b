#include "cachestore/log.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <optional>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/byte_codec.hpp"

namespace cosa {
namespace cachestore {

namespace {

constexpr char kMagic[8] = {'c', 'o', 's', 'a', 'c', 'l', 'o', 'g'};
constexpr std::uint32_t kVersion = 1;
// magic + version + shard_index + num_shards (always 0 and 1)
constexpr std::uint64_t kHeaderBytes = 8 + 4 + 4 + 4;
// payload_len + checksum
constexpr std::uint64_t kFrameBytes = 4 + 8;
/** A frame longer than this is corruption, not a record (the largest
 *  real entry is a few KiB of mapping + level vectors). */
constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;

// --- byte codec (common/byte_codec.hpp) ---------------------------------
// Record payloads carry their integers as varints, which roughly halves
// a record on disk (and what the load-path checksum grinds through).
// Frame and file headers keep fixed-width integers so the scan geometry
// never depends on record contents.

using codec::Cursor;
using codec::putDouble;
using codec::putDoubles;
using codec::putI64;
using codec::putString;
using codec::putU32;
using codec::putU64;
using codec::putVarint;

std::string
headerBytes()
{
    std::string header(kMagic, sizeof(kMagic));
    putU32(header, kVersion);
    putU32(header, 0); // shard_index
    putU32(header, 1); // num_shards
    return header;
}

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

/** fnv1a() of @p a and @p b at once. Each hash is a serial chain of
 *  multiplies; two independent chains overlap in the CPU, so a pair of
 *  frames costs about as much to check as the longer one alone. */
void
fnv1aPair(std::string_view a, std::string_view b, std::uint64_t* ha,
          std::uint64_t* hb)
{
    const auto* pa = reinterpret_cast<const unsigned char*>(a.data());
    const auto* pb = reinterpret_cast<const unsigned char*>(b.data());
    std::uint64_t x = kFnvOffset;
    std::uint64_t y = kFnvOffset;
    const std::size_t both = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < both; ++i) {
        x = (x ^ pa[i]) * kFnvPrime;
        y = (y ^ pb[i]) * kFnvPrime;
    }
    for (std::size_t i = both; i < a.size(); ++i)
        x = (x ^ pa[i]) * kFnvPrime;
    for (std::size_t i = both; i < b.size(); ++i)
        y = (y ^ pb[i]) * kFnvPrime;
    *ha = x;
    *hb = y;
}

} // namespace

std::uint64_t
fnv1a(const void* data, std::size_t size)
{
    const unsigned char* bytes = static_cast<const unsigned char*>(data);
    std::uint64_t h = kFnvOffset;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= bytes[i];
        h *= kFnvPrime;
    }
    return h;
}

std::string
encodeRecord(const LogRecord& record)
{
    std::string out;
    out.reserve(256);
    out.push_back(static_cast<char>(record.kind));
    putVarint(out, record.seq);
    putString(out, record.key.layer_key);
    putString(out, record.key.arch_key);
    putString(out, record.key.scheduler_key);
    putString(out, record.key.evaluator_key);
    if (record.kind == LogRecord::Kind::kEvict)
        return out;

    const LayerSpec& l = record.layer;
    putString(out, l.name);
    putI64(out, l.r);
    putI64(out, l.s);
    putI64(out, l.p);
    putI64(out, l.q);
    putI64(out, l.c);
    putI64(out, l.k);
    putI64(out, l.n);
    putI64(out, l.stride);

    const SearchResult& r = record.result;
    out.push_back(r.found ? 1 : 0);
    putString(out, r.scheduler);

    // The full SearchStats: phase timings and LU counters survive a
    // round trip too.
    const SearchStats& s = r.stats;
    putI64(out, s.samples);
    putI64(out, s.valid_evaluated);
    putDouble(out, s.search_time_sec);
    putI64(out, s.mip_nodes);
    putI64(out, s.lp_iterations);
    putI64(out, s.warm_starts_installed);
    putI64(out, s.warm_start_hits);
    putDouble(out, s.presolve_time_sec);
    putDouble(out, s.root_lp_time_sec);
    putDouble(out, s.tree_time_sec);
    putI64(out, s.lu_factorizations);
    putI64(out, s.lu_eta_updates);
    putI64(out, s.lu_unstable_updates);
    putI64(out, s.lu_fill_refactor_requests);

    const Evaluation& ev = r.eval;
    out.push_back(ev.valid ? 1 : 0);
    putString(out, ev.invalid_reason);
    putDouble(out, ev.compute_cycles);
    putDouble(out, ev.memory_cycles);
    putDouble(out, ev.cycles);
    putDouble(out, ev.energy_pj);
    putDouble(out, ev.mac_energy_pj);
    putDouble(out, ev.noc_energy_pj);
    putDouble(out, ev.noc_bytes);
    putDouble(out, ev.dram_bytes);
    putDouble(out, ev.spatial_utilization);
    putI64(out, ev.total_macs);
    putDoubles(out, ev.reads_bytes);
    putDoubles(out, ev.writes_bytes);
    putDoubles(out, ev.level_cycles);
    putDoubles(out, ev.level_energy_pj);

    putVarint(out, r.mapping.levels.size());
    for (const auto& level : r.mapping.levels) {
        putVarint(out, level.size());
        for (const Loop& loop : level) {
            out.push_back(static_cast<char>(loop.dim));
            putI64(out, loop.bound);
            out.push_back(loop.spatial ? 1 : 0);
        }
    }
    return out;
}

bool
decodeRecord(std::string_view payload, LogRecord* record)
{
    Cursor in(payload);
    const std::uint8_t kind = in.u8();
    if (kind != static_cast<std::uint8_t>(LogRecord::Kind::kInsert) &&
        kind != static_cast<std::uint8_t>(LogRecord::Kind::kEvict))
        return false;
    record->kind = static_cast<LogRecord::Kind>(kind);
    record->seq = in.varint();
    record->key.layer_key = in.str();
    record->key.arch_key = in.str();
    record->key.scheduler_key = in.str();
    record->key.evaluator_key = in.str();
    if (record->kind == LogRecord::Kind::kEvict)
        return in.ok && in.pos == in.size;

    LayerSpec& l = record->layer;
    l.name = in.str();
    l.r = in.i64();
    l.s = in.i64();
    l.p = in.i64();
    l.q = in.i64();
    l.c = in.i64();
    l.k = in.i64();
    l.n = in.i64();
    l.stride = in.i64();

    SearchResult& r = record->result;
    r.found = in.u8() != 0;
    r.scheduler = in.str();

    SearchStats& s = r.stats;
    s.samples = in.i64();
    s.valid_evaluated = in.i64();
    s.search_time_sec = in.f64();
    s.mip_nodes = in.i64();
    s.lp_iterations = in.i64();
    s.warm_starts_installed = in.i64();
    s.warm_start_hits = in.i64();
    s.presolve_time_sec = in.f64();
    s.root_lp_time_sec = in.f64();
    s.tree_time_sec = in.f64();
    s.lu_factorizations = in.i64();
    s.lu_eta_updates = in.i64();
    s.lu_unstable_updates = in.i64();
    s.lu_fill_refactor_requests = in.i64();

    Evaluation& ev = r.eval;
    ev.valid = in.u8() != 0;
    ev.invalid_reason = in.str();
    ev.compute_cycles = in.f64();
    ev.memory_cycles = in.f64();
    ev.cycles = in.f64();
    ev.energy_pj = in.f64();
    ev.mac_energy_pj = in.f64();
    ev.noc_energy_pj = in.f64();
    ev.noc_bytes = in.f64();
    ev.dram_bytes = in.f64();
    ev.spatial_utilization = in.f64();
    ev.total_macs = in.i64();
    ev.reads_bytes = in.doubles();
    ev.writes_bytes = in.doubles();
    ev.level_cycles = in.doubles();
    ev.level_energy_pj = in.doubles();

    const std::uint64_t num_levels = in.varint();
    if (!in.ok || num_levels > 64)
        return false;
    r.mapping.levels.assign(num_levels, {});
    for (std::uint64_t lv = 0; lv < num_levels; ++lv) {
        const std::uint64_t num_loops = in.varint();
        if (!in.ok || num_loops > 4096)
            return false;
        auto& loops = r.mapping.levels[lv];
        loops.resize(num_loops);
        for (Loop& loop : loops) {
            const std::uint8_t dim = in.u8();
            loop.bound = in.i64();
            loop.spatial = in.u8() != 0;
            if (dim >= kNumDims)
                return false;
            loop.dim = static_cast<Dim>(dim);
        }
    }
    return in.ok && in.pos == in.size;
}

std::string
frameRecord(const std::string& payload)
{
    std::string frame;
    frame.reserve(kFrameBytes + payload.size());
    putU32(frame, static_cast<std::uint32_t>(payload.size()));
    putU64(frame, fnv1a(payload.data(), payload.size()));
    frame.append(payload);
    return frame;
}

std::uint64_t
logHeaderBytes()
{
    return kHeaderBytes;
}

std::uint64_t
framedBytes(const std::string& payload)
{
    return kFrameBytes + payload.size();
}

LogReadResult
readLog(const std::string& path,
        const std::function<bool(LogRecord&&, std::uint32_t)>& visit)
{
    LogReadResult out;
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) {
        // A fresh log: nothing to replay, the writer creates it.
        out.ok = true;
        return out;
    }
    // Map the file when possible (no copy of a multi-MiB log just
    // to scan it); fall back to a plain read. The scan only ever
    // touches [0, st_size) captured at open, so a concurrent append
    // past it is invisible rather than a race.
    std::string owned;
    std::string_view bytes;
    void* mapped = nullptr;
    std::size_t mapped_size = 0;
    {
        const int fd = ::open(path.c_str(), O_RDONLY);
        if (fd < 0) {
            out.error = path + ": " + std::strerror(errno);
            return out;
        }
        struct stat st;
        if (::fstat(fd, &st) != 0) {
            ::close(fd);
            out.error = path + ": " + std::strerror(errno);
            return out;
        }
        const std::size_t size = static_cast<std::size_t>(st.st_size);
        if (size > 0) {
            // POPULATE prefills the page tables in one pass instead of
            // one soft fault per 4 KiB of a multi-MiB log (the scan
            // touches every byte anyway).
            int flags = MAP_PRIVATE;
#ifdef MAP_POPULATE
            flags |= MAP_POPULATE;
#endif
            void* m = ::mmap(nullptr, size, PROT_READ, flags, fd, 0);
            if (m != MAP_FAILED) {
                mapped = m;
                mapped_size = size;
#ifdef MADV_SEQUENTIAL
                ::madvise(m, size, MADV_SEQUENTIAL);
#endif
                bytes = std::string_view(static_cast<const char*>(m), size);
            }
        }
        if (mapped == nullptr) {
            owned.reserve(size);
            char buffer[1 << 16];
            for (;;) {
                const ssize_t n = ::read(fd, buffer, sizeof(buffer));
                if (n < 0) {
                    ::close(fd);
                    out.error = path + ": " + std::strerror(errno);
                    return out;
                }
                if (n == 0)
                    break;
                owned.append(buffer, static_cast<std::size_t>(n));
            }
            bytes = owned;
        }
        ::close(fd);
    }
    struct Unmap
    {
        void* mapped;
        std::size_t size;
        ~Unmap()
        {
            if (mapped != nullptr)
                ::munmap(mapped, size);
        }
    } unmap{mapped, mapped_size};
    if (bytes.size() < kHeaderBytes ||
        std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
        out.error = path + ": not a cosa cachestore shard log";
        return out;
    }
    Cursor header(bytes);
    header.pos = sizeof(kMagic);
    const std::uint32_t version = header.u32();
    if (version != kVersion) {
        out.error = path + ": unsupported shard log version " +
                    std::to_string(version);
        return out;
    }
    const std::uint32_t shard_index = header.u32();
    const std::uint32_t num_shards = header.u32();
    if (shard_index != 0 || num_shards != 1) {
        out.error = path + ": header names shard " +
                    std::to_string(shard_index) + " of " +
                    std::to_string(num_shards) + ", not a one-log store";
        return out;
    }

    // Frame scan: stop at the first torn or corrupt frame. Everything
    // before it is intact (each frame carries its own checksum);
    // everything after it is unreachable in an append-only file, so
    // the prefix cut *is* the recovery.
    struct Frame
    {
        std::string_view payload;
        std::uint64_t checksum = 0;
    };
    // The frame at @p at, or none when it is torn (or its length junk).
    const auto frameAt = [&bytes](std::size_t at) -> std::optional<Frame> {
        if (bytes.size() - at < kFrameBytes)
            return std::nullopt;
        Cursor frame(bytes);
        frame.pos = at;
        const std::uint32_t payload_len = frame.u32();
        const std::uint64_t checksum = frame.u64();
        if (payload_len > kMaxPayloadBytes ||
            bytes.size() - frame.pos < payload_len)
            return std::nullopt;
        return Frame{bytes.substr(frame.pos, payload_len), checksum};
    };
    std::size_t pos = kHeaderBytes;
    std::size_t checked_end = pos; // frames ending by here are checked
    out.valid_bytes = pos;
    while (pos < bytes.size()) {
        const std::optional<Frame> frame = frameAt(pos);
        if (!frame) {
            ++out.records_skipped; // torn mid frame
            break;
        }
        const std::size_t framed = kFrameBytes + frame->payload.size();
        const std::size_t end = pos + framed;
        if (end > checked_end) {
            // Check this frame together with the next whole one.
            const std::optional<Frame> next =
                end < bytes.size() ? frameAt(end) : std::nullopt;
            std::uint64_t sum = 0;
            std::uint64_t next_sum = 0;
            fnv1aPair(frame->payload, next ? next->payload : "", &sum,
                      &next_sum);
            if (sum != frame->checksum) {
                ++out.records_skipped; // bit flip
                break;
            }
            checked_end = next && next_sum == next->checksum
                              ? end + kFrameBytes + next->payload.size()
                              : end;
        }
        LogRecord record;
        if (!decodeRecord(frame->payload, &record)) {
            ++out.records_skipped;
            ++out.decode_failures;
            break;
        }
        pos = end;
        out.valid_bytes = pos;
        if (!visit(std::move(record), static_cast<std::uint32_t>(framed)))
            break;
    }
    out.torn_tail = out.valid_bytes < bytes.size();
    out.ok = true;
    return out;
}

Status
LogWriter::open(const std::string& path, std::uint64_t valid_bytes,
                bool fsync_each_append)
{
    close();
    fsync_each_append_ = fsync_each_append;
    std::error_code ec;
    const bool fresh = !std::filesystem::exists(path, ec);
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
    if (fd_ < 0)
        return Status{ErrorCode::kIoError,
                      "cachestore: cannot open " + path + ": " +
                          std::strerror(errno)};
    if (fresh || valid_bytes < kHeaderBytes) {
        const std::string header = headerBytes();
        if (::ftruncate(fd_, 0) != 0 ||
            ::write(fd_, header.data(), header.size()) !=
                static_cast<ssize_t>(header.size()) ||
            ::fsync(fd_) != 0) {
            const Status status{ErrorCode::kIoError,
                                "cachestore: cannot initialize " + path +
                                    ": " + std::strerror(errno)};
            close();
            return status;
        }
        bytes_ = kHeaderBytes;
        return Status::Ok();
    }
    // Reopen after readLog(): cut the torn tail (if any) so the next
    // append lands at the end of the valid prefix.
    if (::ftruncate(fd_, static_cast<off_t>(valid_bytes)) != 0 ||
        ::lseek(fd_, 0, SEEK_END) < 0) {
        const Status status{ErrorCode::kIoError,
                            "cachestore: cannot truncate " + path + ": " +
                                std::strerror(errno)};
        close();
        return status;
    }
    bytes_ = valid_bytes;
    return Status::Ok();
}

Status
LogWriter::append(const std::string& payload)
{
    if (fd_ < 0)
        return Status{ErrorCode::kIoError, "cachestore: writer not open"};
    const std::string frame = frameRecord(payload);
    std::size_t written = 0;
    while (written < frame.size()) {
        const ssize_t n = ::write(fd_, frame.data() + written,
                                  frame.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return Status{ErrorCode::kIoError,
                          std::string("cachestore: append failed: ") +
                              std::strerror(errno)};
        }
        written += static_cast<std::size_t>(n);
    }
    bytes_ += frame.size();
    dirty_ = true;
    if (fsync_each_append_)
        return sync();
    return Status::Ok();
}

Status
LogWriter::sync()
{
    if (fd_ < 0 || !dirty_)
        return Status::Ok();
    if (::fsync(fd_) != 0)
        return Status{ErrorCode::kIoError,
                      std::string("cachestore: fsync failed: ") +
                          std::strerror(errno)};
    dirty_ = false;
    return Status::Ok();
}

void
LogWriter::close()
{
    if (fd_ >= 0) {
        sync();
        ::close(fd_);
        fd_ = -1;
    }
    bytes_ = 0;
    dirty_ = false;
}

} // namespace cachestore
} // namespace cosa
