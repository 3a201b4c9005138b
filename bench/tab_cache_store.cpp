/**
 * @file
 * Persistent schedule-cache store performance (src/cachestore) at 10^3
 * and 10^5 synthetic entries.
 *
 *   ./bench_tab_cache_store [--sizes 1000,100000] [--json [PATH]]
 *
 * Per size the bench reports: the bulk import (direct store inserts,
 * fsync batched to one sync) in seconds; the restart path, open()
 * replaying the log, against inserting the same pre-generated entries
 * into a fresh in-memory cache; their ratio open_overhead =
 * binary_open / memory_build (CI asserts <= 1.5 at 10^5); and store
 * lookup p50/p99 in microseconds. The memory build and the open are
 * each timed kSamples times, alternated, and reported as medians, so
 * the overhead is a ratio of medians, not of two single samples. A
 * churn phase then overwrites a bounded store 5x its capacity and
 * reports the high-water log size against the live size, demonstrating
 * compaction bounds the on-disk footprint under sustained churn.
 *
 * --json writes the same rows as BENCH_cache.json for the CI
 * cache-persistence leg. Any other argument is an error.
 * COSA_BENCH_QUICK=1 shrinks the sizes.
 */

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cachestore/store.hpp"
#include "common/flag_value.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "engine/schedule_cache.hpp"

namespace {

using namespace cosa;
using cachestore::PersistentScheduleCache;
using cachestore::StoreConfig;

/** Timed runs of the memory build and of the binary open, per size. */
constexpr int kSamples = 5;

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::min<double>(static_cast<double>(values.size()) - 1.0,
                         q * static_cast<double>(values.size())));
    return values[rank];
}

/** Deterministic synthetic entry @p i: a realistic-sized record (full
 *  mapping + eval vectors), unique by arch fingerprint. */
void
syntheticEntry(std::int64_t i, ScheduleCacheKey* key, SearchResult* result,
               LayerSpec* layer)
{
    static const char* kLabels[] = {"3_14_32_32_1", "1_7_64_48_1",
                                    "3_28_128_64_1", "1_14_256_96_2"};
    *layer = LayerSpec::fromLabel(kLabels[i % 4]);
    key->layer_key = layer->canonicalKey();
    key->arch_key = "simba/pe" + std::to_string(i);
    key->scheduler_key = "random/s11";
    key->evaluator_key = "analytical/v1";

    result->found = true;
    result->scheduler = "Random";
    result->stats.samples = 500 + i % 97;
    result->stats.valid_evaluated = 40 + i % 13;
    result->eval.valid = true;
    // Full-precision mantissas, like real energy/cycle sums.
    const double jitter = 1.0 + static_cast<double>(i % 8191) / 3.0;
    result->eval.cycles = 1.0e6 * jitter / 7.0;
    result->eval.energy_pj = 3.5e8 * jitter / 11.0;
    result->eval.compute_cycles = result->eval.cycles * (2.0 / 3.0);
    result->eval.memory_cycles = result->eval.cycles / 3.0;
    result->eval.total_macs = 1 << 20;
    // Shaped like a real simba entry: per-level cycle/energy/traffic
    // breakdowns sized to the memory hierarchy (engine results carry
    // all four vectors).
    result->eval.level_cycles.clear();
    result->eval.level_energy_pj.clear();
    result->eval.reads_bytes.clear();
    result->eval.writes_bytes.clear();
    for (int level = 0; level < 5; ++level) {
        const double scale = static_cast<double>(1 << level) / 9.0;
        result->eval.level_cycles.push_back(1.1e5 * jitter * scale);
        result->eval.level_energy_pj.push_back(1.3e7 * jitter * scale);
        result->eval.reads_bytes.push_back(1.7e6 * jitter * scale);
        result->eval.writes_bytes.push_back(1.9e5 * jitter * scale);
    }
    result->mapping.levels.clear();
    for (int level = 0; level < 5; ++level) {
        std::vector<Loop> loops;
        for (int l = 0; l < 4; ++l) {
            Loop loop;
            loop.dim = static_cast<Dim>((level + l) % kNumDims);
            loop.bound = 1 + ((i + level * 4 + l) % 7);
            loop.spatial = level == 1 && l == 0;
            loops.push_back(loop);
        }
        result->mapping.levels.push_back(std::move(loops));
    }
}

std::shared_ptr<PersistentScheduleCache>
mustOpen(StoreConfig config)
{
    auto store = PersistentScheduleCache::open(std::move(config));
    if (!store.ok())
        fatal("store open failed: ", store.status().message());
    return std::move(store).value();
}

struct Row
{
    std::int64_t entries = 0;
    double binary_import_sec = 0.0;
    double memory_build_sec = 0.0;
    double binary_open_sec = 0.0;
    double open_overhead = 0.0;
    double lookup_p50_us = 0.0;
    double lookup_p99_us = 0.0;
};

struct ChurnRow
{
    std::int64_t capacity = 0;
    std::int64_t inserts = 0;
    std::uint64_t max_log_bytes = 0;
    std::uint64_t final_log_bytes = 0;
    std::uint64_t live_bytes = 0;
    std::int64_t compactions = 0;
};

} // namespace

int
main(int argc, char** argv)
{
    std::vector<std::int64_t> sizes =
        bench::quickMode() ? std::vector<std::int64_t>{1000, 10000}
                           : std::vector<std::int64_t>{1000, 100000};
    bool write_json = false;
    std::string json_path = "BENCH_cache.json";
    for (int a = 1; a < argc; ++a) {
        if (std::strcmp(argv[a], "--sizes") == 0) {
            sizes.clear();
            std::stringstream list(a + 1 < argc ? argv[++a] : "");
            std::string item;
            while (std::getline(list, item, ','))
                sizes.push_back(numberValue<std::int64_t>(
                    "flag '--sizes'", item.c_str(), 1));
            if (sizes.empty())
                fatal("flag '--sizes' needs a list of entry counts");
        } else if (std::strcmp(argv[a], "--json") == 0) {
            write_json = true;
            if (a + 1 < argc && std::strncmp(argv[a + 1], "--", 2) != 0)
                json_path = argv[++a];
        } else {
            fatal("unknown argument \"", argv[a], "\"");
        }
    }

    const std::string dir = "bench_cache_store_dir";

    TextTable table("persistent cache store: log replay vs in-memory "
                    "build");
    table.setHeader({"entries", "bin_import_s", "mem_build_s",
                     "bin_open_s", "open_overhead", "lookup_p50_us",
                     "lookup_p99_us"});
    std::vector<Row> rows;

    for (const std::int64_t entries : sizes) {
        Row row;
        row.entries = entries;

        // The size's entries, generated once: every timed phase below
        // holds exactly these.
        std::vector<ScheduleCache::ExportedEntry> generated(
            static_cast<std::size_t>(entries));
        for (std::int64_t i = 0; i < entries; ++i) {
            ScheduleCache::ExportedEntry& e =
                generated[static_cast<std::size_t>(i)];
            syntheticEntry(i, &e.key, &e.result, &e.layer);
        }

        // The bulk import: direct store inserts, durability batched to
        // one sync.
        std::filesystem::remove_all(dir);
        StoreConfig config;
        config.dir = dir;
        config.fsync_each_append = false;
        {
            auto store = mustOpen(config);
            const double t0 = wallTimeSec();
            for (const auto& e : generated)
                store->insert(e.key, e.result, e.layer);
            const Status synced = store->syncAll();
            if (!synced.ok())
                fatal("sync failed: ", synced.message());
            row.binary_import_sec = wallTimeSec() - t0;
        }

        // Two ways to hold the entries after a restart, alternated so
        // that both see the same host load: inserting them into a fresh
        // in-memory cache, and open() replaying the log.
        std::vector<double> builds, opens;
        for (int s = 0; s < kSamples; ++s) {
            {
                ScheduleCache memory;
                const double t0 = wallTimeSec();
                for (const auto& e : generated)
                    memory.insert(e.key, e.result, e.layer);
                builds.push_back(wallTimeSec() - t0);
            }
            const double t0 = wallTimeSec();
            auto store = mustOpen(config);
            opens.push_back(wallTimeSec() - t0);
            if (store->size() != static_cast<std::size_t>(entries))
                fatal("open replayed ", store->size(), " of ", entries);
        }
        row.memory_build_sec = percentile(builds, 0.5);
        row.binary_open_sec = percentile(opens, 0.5);
        std::vector<double> lookups;
        {
            auto store = mustOpen(config);
            // Lookup latency over a deterministic sample.
            const std::int64_t probes = std::min<std::int64_t>(
                entries, 20000);
            for (std::int64_t p = 0; p < probes; ++p) {
                ScheduleCacheKey key;
                SearchResult result;
                LayerSpec layer;
                syntheticEntry((p * 7919) % entries, &key, &result, &layer);
                const double l0 = wallTimeSec();
                const auto hit = store->lookup(key);
                lookups.push_back((wallTimeSec() - l0) * 1e6);
                if (!hit.has_value())
                    fatal("missing entry ", (p * 7919) % entries);
            }
        }
        row.open_overhead =
            row.binary_open_sec / std::max(row.memory_build_sec, 1e-9);
        row.lookup_p50_us = percentile(lookups, 0.50);
        row.lookup_p99_us = percentile(lookups, 0.99);
        rows.push_back(row);
        table.addRow({std::to_string(row.entries),
                      TextTable::fmt(row.binary_import_sec, 3),
                      TextTable::fmt(row.memory_build_sec, 3),
                      TextTable::fmt(row.binary_open_sec, 3),
                      TextTable::fmt(row.open_overhead, 2),
                      TextTable::fmt(row.lookup_p50_us, 2),
                      TextTable::fmt(row.lookup_p99_us, 2)});
    }
    table.print(std::cout);
    std::cout << "(mem_build_s and bin_open_s are medians of " << kSamples
              << " alternated runs; open_overhead is bin_open_s / "
                 "mem_build_s)\n";

    // Churn: overwrite a bounded store well past its capacity; with
    // compaction the log's high-water mark stays a small multiple of
    // the live set instead of growing linearly with inserts.
    ChurnRow churn;
    churn.capacity = bench::quickMode() ? 500 : 2000;
    churn.inserts = churn.capacity * 5;
    std::filesystem::remove_all(dir);
    {
        StoreConfig config;
        config.dir = dir;
        config.capacity = churn.capacity;
        config.fsync_each_append = false;
        config.compaction.min_bytes = 16 * 1024;
        auto store = mustOpen(config);
        for (std::int64_t i = 0; i < churn.inserts; ++i) {
            ScheduleCacheKey key;
            SearchResult result;
            LayerSpec layer;
            syntheticEntry(i, &key, &result, &layer);
            store->insert(key, result, layer);
            if (i % 250 == 0)
                churn.max_log_bytes =
                    std::max(churn.max_log_bytes,
                             store->storeStats().shards[0].log_bytes);
        }
        const cachestore::ShardStats log = store->storeStats().shards[0];
        churn.final_log_bytes = log.log_bytes;
        churn.live_bytes = log.live_bytes;
        churn.compactions = log.compactions;
        churn.max_log_bytes =
            std::max(churn.max_log_bytes, churn.final_log_bytes);
    }
    std::cout << "\nchurn: capacity " << churn.capacity << ", inserts "
              << churn.inserts << ", compactions " << churn.compactions
              << ", live " << churn.live_bytes / 1024 << " KiB, log "
              << churn.final_log_bytes / 1024 << " KiB (high water "
              << churn.max_log_bytes / 1024 << " KiB)\n";

    std::filesystem::remove_all(dir);

    if (write_json) {
        json::Value doc = json::Value::object();
        doc.set("bench", "cache_store");
        json::Value series = json::Value::array();
        for (const Row& row : rows) {
            json::Value entry = json::Value::object();
            entry.set("entries", row.entries);
            entry.set("samples", kSamples);
            entry.set("binary_import_sec", row.binary_import_sec);
            entry.set("memory_build_sec", row.memory_build_sec);
            entry.set("binary_open_sec", row.binary_open_sec);
            entry.set("open_overhead", row.open_overhead);
            entry.set("lookup_p50_us", row.lookup_p50_us);
            entry.set("lookup_p99_us", row.lookup_p99_us);
            series.push(std::move(entry));
        }
        doc.set("series", std::move(series));
        json::Value churn_doc = json::Value::object();
        churn_doc.set("capacity", churn.capacity);
        churn_doc.set("inserts", churn.inserts);
        churn_doc.set("compactions", churn.compactions);
        churn_doc.set("live_bytes",
                      static_cast<std::int64_t>(churn.live_bytes));
        churn_doc.set("final_log_bytes",
                      static_cast<std::int64_t>(churn.final_log_bytes));
        churn_doc.set("max_log_bytes",
                      static_cast<std::int64_t>(churn.max_log_bytes));
        doc.set("churn", std::move(churn_doc));
        std::ofstream out(json_path, std::ios::trunc);
        out << doc.dump() << "\n";
        if (!out) {
            cosa::warn("cannot write ", json_path);
            return 1;
        }
        std::cout << "wrote " << json_path << "\n";
    }
    return 0;
}
