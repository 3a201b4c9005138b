#pragma once

/**
 * @file
 * Writes a store directory in the older sharded layout, byte for byte
 * with the log codec: MANIFEST `shards K`, `shard-NNNN.log` headers
 * "shard i of K", and every record routed to file fnv1a(flat key) % K
 * under its store-global first-insertion seq. Tests use it to check
 * that PersistentScheduleCache::open() folds such a directory into one
 * log.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "cachestore/log.hpp"

namespace cosa {
namespace cachestore {
namespace test {

/** Write @p inserts, in order, as the @p num_shards-shard directory
 *  @p dir; a repeated key is an overwrite and keeps its first seq. */
inline void
writeShardedDir(const std::string& dir, int num_shards,
                const std::vector<ScheduleCache::ExportedEntry>& inserts)
{
    std::filesystem::create_directories(dir);
    std::ofstream(dir + "/MANIFEST")
        << "cosa-cachestore v1\nshards " << num_shards << "\n";
    std::vector<LogWriter> logs(static_cast<std::size_t>(num_shards));
    for (int i = 0; i < num_shards; ++i) {
        char name[32];
        std::snprintf(name, sizeof(name), "/shard-%04d.log", i);
        ASSERT_TRUE(logs[i].open(dir + name, i, num_shards, 0, false).ok());
    }
    std::unordered_map<std::string, std::uint64_t> seqs;
    for (const ScheduleCache::ExportedEntry& entry : inserts) {
        const std::string flat = entry.key.flat();
        LogRecord record;
        record.seq = seqs.try_emplace(flat, seqs.size() + 1).first->second;
        record.key = entry.key;
        record.layer = entry.layer;
        record.result = entry.result;
        const std::size_t shard = static_cast<std::size_t>(
            fnv1a(flat.data(), flat.size()) % num_shards);
        ASSERT_TRUE(logs[shard].append(encodeRecord(record)).ok());
    }
}

} // namespace test
} // namespace cachestore
} // namespace cosa
