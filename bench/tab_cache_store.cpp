/**
 * @file
 * Persistent schedule-cache store performance: the binary log
 * (src/cachestore) against the v3 text snapshot it replaces as the
 * primary format, at 10^3 and 10^5 synthetic entries.
 *
 *   ./bench_tab_cache_store [--sizes 1000,100000] [--json [PATH]]
 *
 * Per size the bench reports: text snapshot save/load seconds, binary
 * bulk-import and open-replay (the restart path) seconds, the restart
 * speedup text_load/binary_open (CI asserts >= 10x at 10^5), and store
 * lookup p50/p99 in microseconds. The text load and the binary open
 * are each timed kSamples times and reported as medians, so the
 * speedup is a ratio of medians, not of two single samples. A churn phase
 * then overwrites a bounded store 5x its capacity and reports the
 * high-water log size against the live size, demonstrating compaction
 * bounds the on-disk footprint under sustained churn.
 *
 * --json writes the same rows as BENCH_cache.json for the CI
 * cache-persistence leg. COSA_BENCH_QUICK=1 shrinks the sizes.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cachestore/snapshot.hpp"
#include "cachestore/store.hpp"
#include "common/flag_value.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "engine/schedule_cache.hpp"

namespace {

using namespace cosa;
using cachestore::PersistentScheduleCache;
using cachestore::StoreConfig;

/** Timed runs of the text load and of the binary open, per size. */
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
    // Real evaluations are energy/cycle sums with full-precision
    // mantissas (the text snapshot prints them at max_digits10); keep
    // the synthetic ones equally "ugly" so the text parse cost is
    // honest.
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
    double text_save_sec = 0.0;
    double text_load_sec = 0.0;
    double binary_import_sec = 0.0;
    double binary_open_sec = 0.0;
    double load_speedup = 0.0;
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
        if (std::strcmp(argv[a], "--sizes") == 0 && a + 1 < argc) {
            sizes.clear();
            std::stringstream list(argv[++a]);
            std::string item;
            while (std::getline(list, item, ','))
                sizes.push_back(numberValue<std::int64_t>(
                    "flag '--sizes'", item.c_str(), 1));
        } else if (std::strcmp(argv[a], "--json") == 0) {
            write_json = true;
            if (a + 1 < argc && std::strncmp(argv[a + 1], "--", 2) != 0)
                json_path = argv[++a];
        }
    }

    const std::string dir = "bench_cache_store_dir";
    const std::string text_path = "bench_cache_store_snapshot.txt";

    TextTable table("persistent cache store: binary log vs v3 text "
                    "snapshot");
    table.setHeader({"entries", "text_save_s", "text_load_s",
                     "bin_import_s", "bin_open_s", "speedup",
                     "lookup_p50_us", "lookup_p99_us"});
    std::vector<Row> rows;

    for (const std::int64_t entries : sizes) {
        Row row;
        row.entries = entries;

        // Populate a baseline in-memory cache with the synthetic set.
        ScheduleCache baseline;
        for (std::int64_t i = 0; i < entries; ++i) {
            ScheduleCacheKey key;
            SearchResult result;
            LayerSpec layer;
            syntheticEntry(i, &key, &result, &layer);
            baseline.insert(key, result, layer);
        }

        // Text snapshot save, then the binary bulk import (batched
        // durability) from it.
        double t0 = wallTimeSec();
        const auto saved = cachestore::exportSnapshot(baseline, text_path);
        row.text_save_sec = wallTimeSec() - t0;
        if (!saved.ok || saved.entries != entries)
            fatal("text save failed: ", saved.error);
        std::filesystem::remove_all(dir);
        StoreConfig config;
        config.dir = dir;
        config.fsync_each_append = false;
        {
            auto store = mustOpen(config);
            t0 = wallTimeSec();
            const auto imported =
                cachestore::importSnapshot(text_path, *store);
            if (!imported.ok || imported.entries != entries)
                fatal("binary import failed: ", imported.error);
            const Status synced = store->syncAll();
            if (!synced.ok())
                fatal("sync failed: ", synced.message());
            row.binary_import_sec = wallTimeSec() - t0;
        }

        // The two restart paths, alternated so that both see the same
        // host load: a v3 text load into a fresh in-memory cache, and
        // open() replaying the log.
        std::vector<double> text_loads, opens;
        for (int s = 0; s < kSamples; ++s) {
            {
                ScheduleCache revived;
                t0 = wallTimeSec();
                const auto loaded =
                    cachestore::importSnapshot(text_path, revived);
                text_loads.push_back(wallTimeSec() - t0);
                if (!loaded.ok || loaded.entries != entries)
                    fatal("text load failed: ", loaded.error);
            }
            t0 = wallTimeSec();
            auto store = mustOpen(config);
            opens.push_back(wallTimeSec() - t0);
            if (store->size() != static_cast<std::size_t>(entries))
                fatal("open replayed ", store->size(), " of ", entries);
        }
        row.text_load_sec = percentile(text_loads, 0.5);
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
        row.load_speedup =
            row.text_load_sec / std::max(row.binary_open_sec, 1e-9);
        row.lookup_p50_us = percentile(lookups, 0.50);
        row.lookup_p99_us = percentile(lookups, 0.99);
        rows.push_back(row);
        table.addRow({std::to_string(row.entries),
                      TextTable::fmt(row.text_save_sec, 3),
                      TextTable::fmt(row.text_load_sec, 3),
                      TextTable::fmt(row.binary_import_sec, 3),
                      TextTable::fmt(row.binary_open_sec, 3),
                      TextTable::fmt(row.load_speedup, 1),
                      TextTable::fmt(row.lookup_p50_us, 2),
                      TextTable::fmt(row.lookup_p99_us, 2)});
    }
    table.print(std::cout);
    std::cout << "(text_load_s and bin_open_s are medians of " << kSamples
              << " runs; speedup is their ratio)\n";

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
    std::remove(text_path.c_str());

    if (write_json) {
        json::Value doc = json::Value::object();
        doc.set("bench", "cache_store");
        json::Value series = json::Value::array();
        for (const Row& row : rows) {
            json::Value entry = json::Value::object();
            entry.set("entries", row.entries);
            entry.set("samples", kSamples);
            entry.set("text_save_sec", row.text_save_sec);
            entry.set("text_load_sec", row.text_load_sec);
            entry.set("binary_import_sec", row.binary_import_sec);
            entry.set("binary_open_sec", row.binary_open_sec);
            entry.set("load_speedup", row.load_speedup);
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
