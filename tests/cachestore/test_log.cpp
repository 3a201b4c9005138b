#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "cachestore/log.hpp"

namespace cosa {
namespace cachestore {
namespace {

/** Self-deleting temp log path under the build dir. */
class TempLog
{
  public:
    explicit TempLog(const std::string& name)
        : path_("cosa_cachestore_log_test_" + name + ".log")
    {
        std::remove(path_.c_str());
    }
    ~TempLog() { std::remove(path_.c_str()); }
    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

/** A full insert record with deliberately awkward values: inexact
 *  doubles, negative counters, multi-byte varints, empty vectors. */
LogRecord
sampleInsert(int i)
{
    LogRecord record;
    record.kind = LogRecord::Kind::kInsert;
    record.seq = 1 + static_cast<std::uint64_t>(i) * 977;
    record.key.layer_key = "r3_s3_p14_q14_c256_k256_n1_st1";
    record.key.arch_key = "simba/pe" + std::to_string(i);
    record.key.scheduler_key = "random/s11";
    record.key.evaluator_key = "analytical/v1";
    record.layer = LayerSpec::fromLabel("3_14_256_256_1");
    record.layer.name = "conv" + std::to_string(i);

    SearchResult& r = record.result;
    r.found = true;
    r.scheduler = "random";
    r.stats.samples = 500 + i;
    r.stats.valid_evaluated = 17;
    r.stats.search_time_sec = 0.1 + i / 3.0; // inexact in binary
    r.stats.mip_nodes = 123456789012345LL;   // multi-byte varint
    r.stats.lp_iterations = 42;
    r.stats.warm_starts_installed = 1;
    r.stats.warm_start_hits = 1;
    r.stats.presolve_time_sec = 1.0 / 3.0;
    r.stats.root_lp_time_sec = 2.0 / 7.0;
    r.stats.tree_time_sec = 1e-9;
    r.stats.lu_factorizations = 3;
    r.stats.lu_eta_updates = 0;
    r.stats.lu_unstable_updates = -1; // zigzag path
    r.stats.lu_fill_refactor_requests = 0;
    r.eval.valid = true;
    r.eval.compute_cycles = 1.0e6 / 7.0;
    r.eval.memory_cycles = 2.0e6 / 7.0;
    r.eval.cycles = 3.0e6 / 7.0;
    r.eval.energy_pj = 5.0e9 / 3.0;
    r.eval.mac_energy_pj = 1.0e9 / 3.0;
    r.eval.noc_energy_pj = 0.25e9 / 3.0;
    r.eval.noc_bytes = 1.0e7 / 9.0;
    r.eval.dram_bytes = -0.0; // signed zero survives
    r.eval.spatial_utilization = 0.62 + i * 1e-7;
    r.eval.total_macs = record.layer.macs();
    r.eval.reads_bytes = {1e6 / 3.0, 2e6 / 3.0, 4e6 / 3.0};
    r.eval.writes_bytes = {};
    r.eval.level_cycles = {1e5, 2e5 / 7.0};
    r.eval.level_energy_pj = {1e8 / 7.0};
    r.mapping.levels = {
        {Loop{Dim::K, 16, true}, Loop{Dim::C, 4, false}},
        {},
        {Loop{Dim::P, 14, false}, Loop{Dim::Q, 14, false},
         Loop{Dim::R, 3, false}},
    };
    return record;
}

/** A log file header with the given fields, as bytes. */
std::string
headerWith(std::uint32_t version, std::uint32_t shard_index,
           std::uint32_t num_shards)
{
    std::string header = "cosaclog";
    for (const std::uint32_t field : {version, shard_index, num_shards})
        for (int b = 0; b < 4; ++b)
            header.push_back(static_cast<char>((field >> (8 * b)) & 0xff));
    return header;
}

/** What a streaming readLog() visited, with the scan's outcome. */
struct Collected
{
    LogReadResult read;
    std::vector<LogRecord> records;
    std::vector<std::uint32_t> framed_bytes;
};

Collected
collect(const std::string& path)
{
    Collected out;
    out.read = readLog(path, [&](LogRecord&& record, std::uint32_t bytes) {
        out.records.push_back(std::move(record));
        out.framed_bytes.push_back(bytes);
        return true;
    });
    return out;
}

void
expectRecordsEqual(const LogRecord& a, const LogRecord& b)
{
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.seq, b.seq);
    EXPECT_EQ(a.key.flat(), b.key.flat());
    EXPECT_EQ(a.layer, b.layer);
    EXPECT_EQ(a.result.found, b.result.found);
    EXPECT_EQ(a.result.scheduler, b.result.scheduler);
    const SearchStats& s = a.result.stats;
    const SearchStats& t = b.result.stats;
    EXPECT_EQ(s.samples, t.samples);
    EXPECT_EQ(s.valid_evaluated, t.valid_evaluated);
    EXPECT_EQ(s.search_time_sec, t.search_time_sec); // bit-exact
    EXPECT_EQ(s.mip_nodes, t.mip_nodes);
    EXPECT_EQ(s.lp_iterations, t.lp_iterations);
    EXPECT_EQ(s.warm_starts_installed, t.warm_starts_installed);
    EXPECT_EQ(s.warm_start_hits, t.warm_start_hits);
    EXPECT_EQ(s.presolve_time_sec, t.presolve_time_sec);
    EXPECT_EQ(s.root_lp_time_sec, t.root_lp_time_sec);
    EXPECT_EQ(s.tree_time_sec, t.tree_time_sec);
    EXPECT_EQ(s.lu_factorizations, t.lu_factorizations);
    EXPECT_EQ(s.lu_eta_updates, t.lu_eta_updates);
    EXPECT_EQ(s.lu_unstable_updates, t.lu_unstable_updates);
    EXPECT_EQ(s.lu_fill_refactor_requests, t.lu_fill_refactor_requests);
    const Evaluation& e = a.result.eval;
    const Evaluation& f = b.result.eval;
    EXPECT_EQ(e.valid, f.valid);
    EXPECT_EQ(e.invalid_reason, f.invalid_reason);
    EXPECT_EQ(e.compute_cycles, f.compute_cycles);
    EXPECT_EQ(e.memory_cycles, f.memory_cycles);
    EXPECT_EQ(e.cycles, f.cycles);
    EXPECT_EQ(e.energy_pj, f.energy_pj);
    EXPECT_EQ(e.mac_energy_pj, f.mac_energy_pj);
    EXPECT_EQ(e.noc_energy_pj, f.noc_energy_pj);
    EXPECT_EQ(e.noc_bytes, f.noc_bytes);
    EXPECT_EQ(e.dram_bytes, f.dram_bytes);
    EXPECT_TRUE(std::signbit(f.dram_bytes) == std::signbit(e.dram_bytes));
    EXPECT_EQ(e.spatial_utilization, f.spatial_utilization);
    EXPECT_EQ(e.total_macs, f.total_macs);
    EXPECT_EQ(e.reads_bytes, f.reads_bytes);
    EXPECT_EQ(e.writes_bytes, f.writes_bytes);
    EXPECT_EQ(e.level_cycles, f.level_cycles);
    EXPECT_EQ(e.level_energy_pj, f.level_energy_pj);
    EXPECT_EQ(a.result.mapping, b.result.mapping);
}

TEST(CachestoreLog, InsertRecordRoundTripsBitExact)
{
    const LogRecord original = sampleInsert(7);
    const std::string payload = encodeRecord(original);
    LogRecord decoded;
    ASSERT_TRUE(decodeRecord(payload, &decoded));
    expectRecordsEqual(original, decoded);
}

TEST(CachestoreLog, EvictRecordRoundTrips)
{
    LogRecord original;
    original.kind = LogRecord::Kind::kEvict;
    original.seq = 12345678901234ULL;
    original.key = {"layer", "arch", "sched", "eval"};
    const std::string payload = encodeRecord(original);
    LogRecord decoded;
    ASSERT_TRUE(decodeRecord(payload, &decoded));
    EXPECT_EQ(decoded.kind, LogRecord::Kind::kEvict);
    EXPECT_EQ(decoded.seq, original.seq);
    EXPECT_EQ(decoded.key.flat(), original.key.flat());
}

TEST(CachestoreLog, DecodeRejectsTruncationAtEveryBoundary)
{
    const std::string payload = encodeRecord(sampleInsert(1));
    LogRecord decoded;
    // Every strict prefix must fail cleanly, never crash or accept.
    for (std::size_t n = 0; n < payload.size(); ++n) {
        EXPECT_FALSE(
            decodeRecord(std::string_view(payload.data(), n), &decoded))
            << "accepted a " << n << "-byte prefix of "
            << payload.size();
    }
    // Trailing junk is rejected too (pos must land exactly on size).
    EXPECT_FALSE(decodeRecord(payload + "x", &decoded));
    EXPECT_TRUE(decodeRecord(payload, &decoded));
}

TEST(CachestoreLog, WriterProducesReplayableLog)
{
    TempLog file("writer");
    LogWriter writer;
    ASSERT_TRUE(writer.open(file.path(), 0, false).ok());
    std::vector<LogRecord> originals;
    for (int i = 0; i < 5; ++i) {
        originals.push_back(sampleInsert(i));
        ASSERT_TRUE(writer.append(encodeRecord(originals.back())).ok());
    }
    ASSERT_TRUE(writer.sync().ok());
    writer.close();

    // The header every store has written: version 1, shard 0 of 1.
    std::string header(logHeaderBytes(), '\0');
    std::ifstream(file.path(), std::ios::binary)
        .read(header.data(), static_cast<std::streamsize>(header.size()));
    EXPECT_EQ(header, headerWith(1, 0, 1));

    const Collected log = collect(file.path());
    const LogReadResult& read = log.read;
    ASSERT_TRUE(read.ok) << read.error;
    EXPECT_EQ(read.records_skipped, 0);
    EXPECT_FALSE(read.torn_tail);
    EXPECT_EQ(read.valid_bytes,
              std::filesystem::file_size(file.path()));
    ASSERT_EQ(log.records.size(), originals.size());
    ASSERT_EQ(log.framed_bytes.size(), originals.size());
    for (std::size_t i = 0; i < originals.size(); ++i) {
        expectRecordsEqual(originals[i], log.records[i]);
        EXPECT_EQ(log.framed_bytes[i],
                  framedBytes(encodeRecord(originals[i])));
    }
}

TEST(CachestoreLog, StreamingVisitorCanStopEarly)
{
    TempLog file("stream");
    LogWriter writer;
    ASSERT_TRUE(writer.open(file.path(), 0, false).ok());
    for (int i = 0; i < 6; ++i)
        ASSERT_TRUE(writer.append(encodeRecord(sampleInsert(i))).ok());
    writer.close();

    int seen = 0;
    const LogReadResult read =
        readLog(file.path(), [&](LogRecord&&, std::uint32_t) {
            return ++seen < 3;
        });
    ASSERT_TRUE(read.ok) << read.error;
    EXPECT_EQ(seen, 3);
    // The early stop only cut the *visit*, not the valid prefix scan
    // bookkeeping for the records actually visited.
    EXPECT_GT(read.valid_bytes, logHeaderBytes());
}

/** Append N good records, then damage the tail per @p mutilate and
 *  assert recovery keeps exactly the good prefix. */
void
expectTornTailRecovery(
    const std::string& name, int keep,
    const std::function<void(const std::string& path)>& mutilate)
{
    TempLog file(name);
    LogWriter writer;
    ASSERT_TRUE(writer.open(file.path(), 0, false).ok());
    std::uint64_t good_bytes = logHeaderBytes();
    for (int i = 0; i < 4; ++i) {
        const std::string payload = encodeRecord(sampleInsert(i));
        ASSERT_TRUE(writer.append(payload).ok());
        if (i < keep)
            good_bytes += framedBytes(payload);
    }
    writer.close();
    mutilate(file.path());

    Collected log = collect(file.path());
    ASSERT_TRUE(log.read.ok) << log.read.error;
    EXPECT_EQ(log.records.size(), static_cast<std::size_t>(keep));
    EXPECT_EQ(log.read.records_skipped, 1);
    EXPECT_TRUE(log.read.torn_tail);
    EXPECT_EQ(log.read.valid_bytes, good_bytes);

    // Reopening the writer at valid_bytes truncates the tail; the log
    // then appends cleanly and replays without damage.
    LogWriter recovered;
    ASSERT_TRUE(
        recovered.open(file.path(), log.read.valid_bytes, false).ok());
    ASSERT_TRUE(recovered.append(encodeRecord(sampleInsert(99))).ok());
    recovered.close();
    log = collect(file.path());
    ASSERT_TRUE(log.read.ok) << log.read.error;
    ASSERT_EQ(log.records.size(), static_cast<std::size_t>(keep) + 1);
    EXPECT_EQ(log.read.records_skipped, 0);
    EXPECT_FALSE(log.read.torn_tail);
    EXPECT_EQ(log.records.back().key.arch_key, "simba/pe99");
}

TEST(CachestoreLog, RecoversTornMidFrameHeader)
{
    // Crash after 3 records + 5 bytes of the 4th frame's header.
    expectTornTailRecovery("torn_header", 3, [](const std::string& path) {
        const auto size = std::filesystem::file_size(path);
        const std::string payload = encodeRecord(sampleInsert(3));
        std::filesystem::resize_file(
            path, size - framedBytes(payload) + 5);
    });
}

TEST(CachestoreLog, RecoversTornMidPayload)
{
    expectTornTailRecovery("torn_payload", 3, [](const std::string& path) {
        const auto size = std::filesystem::file_size(path);
        std::filesystem::resize_file(path, size - 11);
    });
}

TEST(CachestoreLog, RecoversBitFlippedTailRecord)
{
    expectTornTailRecovery("bit_flip", 3, [](const std::string& path) {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekp(-20, std::ios::end); // inside the last payload
        char b = 0;
        f.seekg(-20, std::ios::end);
        f.get(b);
        f.seekp(-20, std::ios::end);
        f.put(static_cast<char>(b ^ 0x40));
    });
}

TEST(CachestoreLog, RecoversBitFlipInAnEarlierRecord)
{
    // The scan checks frames in pairs: a bad frame must end the prefix
    // whether it is the first or the second of its pair.
    for (int bad = 0; bad < 3; ++bad) {
        expectTornTailRecovery(
            "bit_flip_" + std::to_string(bad), bad,
            [bad](const std::string& path) {
                std::uint64_t at = logHeaderBytes();
                for (int i = 0; i < bad; ++i)
                    at += framedBytes(encodeRecord(sampleInsert(i)));
                std::fstream f(path, std::ios::in | std::ios::out |
                                         std::ios::binary);
                f.seekg(static_cast<std::streamoff>(at + 20));
                char b = 0;
                f.get(b);
                f.seekp(static_cast<std::streamoff>(at + 20));
                f.put(static_cast<char>(b ^ 0x40));
            });
    }
}

TEST(CachestoreLog, MissingFileIsAnEmptyShard)
{
    const Collected log = collect("cosa_cachestore_no_such.log");
    EXPECT_TRUE(log.read.ok);
    EXPECT_TRUE(log.records.empty());
    EXPECT_EQ(log.read.valid_bytes, 0u);
}

TEST(CachestoreLog, ForeignFileIsAHardError)
{
    TempLog file("foreign");
    std::ofstream(file.path()) << "definitely not a shard log\n";
    const LogReadResult read = collect(file.path()).read;
    EXPECT_FALSE(read.ok);
    EXPECT_NE(read.error.find("not a cosa cachestore shard log"),
              std::string::npos);

    // Well-formed headers that are not this store's: another version,
    // and shard 3 of an 8-log directory of the older sharded layout.
    const struct
    {
        std::string header;
        const char* error;
    } kForeign[] = {
        {headerWith(2, 0, 1), "unsupported shard log version 2"},
        {headerWith(1, 3, 8), "names shard 3 of 8"},
    };
    for (const auto& foreign : kForeign) {
        std::ofstream(file.path(), std::ios::binary | std::ios::trunc)
            << foreign.header;
        const LogReadResult other = collect(file.path()).read;
        EXPECT_FALSE(other.ok) << foreign.error;
        EXPECT_NE(other.error.find(foreign.error), std::string::npos)
            << other.error;
    }
}

} // namespace
} // namespace cachestore
} // namespace cosa
