#include "engine/schedule_cache.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/failpoint.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"

namespace cosa {

namespace {

/** Registry counter for one cache event kind. The handle is resolved
 *  once per event name (function-local statics at the call sites). */
metrics::Counter&
cacheEventCounter(const char* event)
{
    return metrics::MetricsRegistry::global().counter(
        "cosa_cache_events_total", "Schedule-cache events by kind",
        {{"event", event}});
}

} // namespace

double
canonicalLayerDistance(const LayerSpec& a, const LayerSpec& b)
{
    const auto term = [](std::int64_t x, std::int64_t y) {
        const double d = std::log2(static_cast<double>(x)) -
                         std::log2(static_cast<double>(y));
        return d * d;
    };
    const double sq = term(a.r, b.r) + term(a.s, b.s) + term(a.p, b.p) +
                      term(a.q, b.q) + term(a.c, b.c) + term(a.k, b.k) +
                      term(a.n, b.n) + term(a.stride, b.stride);
    return std::sqrt(sq);
}

ScheduleCache::ScheduleCache(std::int64_t capacity)
    : capacity_(std::max<std::int64_t>(capacity, 0))
{
}

std::optional<SearchResult>
ScheduleCache::lookup(const ScheduleCacheKey& key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key.flat());
    if (it == entries_.end()) {
        ++misses_;
        static metrics::Counter& miss_counter = cacheEventCounter("miss");
        miss_counter.inc();
        return std::nullopt;
    }
    ++hits_;
    static metrics::Counter& hit_counter = cacheEventCounter("hit");
    hit_counter.inc();
    // Refresh recency: an exact hit is the strongest reuse signal.
    lru_.splice(lru_.end(), lru_, it->second.lru_it);
    return it->second.result;
}

void
ScheduleCache::insert(const ScheduleCacheKey& key, const SearchResult& result,
                      const LayerSpec& layer)
{
    std::lock_guard<std::mutex> lock(mutex_);
    insertLocked(key, result, layer);
}

void
ScheduleCache::insertLocked(const ScheduleCacheKey& key,
                            const SearchResult& result,
                            const LayerSpec& layer)
{
    std::string flat = key.flat();
    const auto [it, inserted] = entries_.try_emplace(flat);
    Entry& entry = it->second;
    entry.result = result;
    entry.layer = layer;
    entry.layer_key = key.layer_key;
    entry.arch_key = key.arch_key;
    entry.scheduler_key = key.scheduler_key;
    entry.evaluator_key = key.evaluator_key;
    if (inserted) {
        static metrics::Counter& insert_counter =
            cacheEventCounter("insert");
        insert_counter.inc();
        entry.lru_it = lru_.insert(lru_.end(), flat);
        entry.order_index = insertion_order_.size();
        insertion_order_.push_back(std::move(flat));
        enforceCapacityLocked();
    } else {
        // An overwrite refreshes recency like a hit would.
        lru_.splice(lru_.end(), lru_, entry.lru_it);
    }
}

void
ScheduleCache::evictOneLocked()
{
    const std::string victim = lru_.front();
    lru_.pop_front();
    const auto it = entries_.find(victim);
    insertion_order_[it->second.order_index].clear(); // tombstone, O(1)
    ++order_tombstones_;
    entries_.erase(it);
    ++evictions_;
    static metrics::Counter& evict_counter = cacheEventCounter("evict");
    evict_counter.inc();
    // Dedicated eviction series (shard-labeled so the sharded
    // cachestore tier and this process-local map stay distinguishable
    // on one dashboard; the base class is the unsharded "local" shard).
    static metrics::Counter& eviction_total =
        metrics::MetricsRegistry::global().counter(
            "cosa_cache_evictions_total",
            "Schedule-cache LRU evictions by shard",
            {{"shard", "local"}});
    eviction_total.inc();
    if (order_tombstones_ > entries_.size() + 16)
        compactOrderLocked();
}

void
ScheduleCache::compactOrderLocked()
{
    std::vector<std::string> live;
    live.reserve(entries_.size());
    for (std::string& flat : insertion_order_) {
        if (flat.empty())
            continue;
        entries_.find(flat)->second.order_index = live.size();
        live.push_back(std::move(flat));
    }
    insertion_order_ = std::move(live);
    order_tombstones_ = 0;
}

void
ScheduleCache::enforceCapacityLocked()
{
    if (capacity_ <= 0)
        return;
    while (static_cast<std::int64_t>(entries_.size()) > capacity_)
        evictOneLocked();
}

std::optional<SearchResult>
ScheduleCache::nearestNeighbor(const std::string& arch_key,
                               const std::string& scheduler_key,
                               const std::string& evaluator_key,
                               const LayerSpec& target)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::string target_key = target.canonicalKey();
    const Entry* best = nullptr;
    double best_dist = 0.0;
    bool best_arch_match = false;
    for (const std::string& flat : insertion_order_) {
        if (flat.empty())
            continue; // eviction tombstone
        const auto it = entries_.find(flat);
        if (it == entries_.end())
            continue; // cleared since insertion
        const Entry& entry = it->second;
        if (!entry.result.found || entry.scheduler_key != scheduler_key ||
            entry.evaluator_key != evaluator_key)
            continue;
        const bool arch_match = entry.arch_key == arch_key;
        if (arch_match && entry.layer.canonicalKey() == target_key)
            continue; // the exact problem: a hit, not a neighbor
        const double dist = canonicalLayerDistance(entry.layer, target);
        const bool better =
            !best || dist < best_dist - 1e-12 ||
            (dist < best_dist + 1e-12 && arch_match && !best_arch_match);
        if (better) {
            best = &entry;
            best_dist = dist;
            best_arch_match = arch_match;
        }
    }
    if (!best)
        return std::nullopt;
    ++neighbor_hits_;
    static metrics::Counter& neighbor_counter =
        cacheEventCounter("neighbor_hit");
    neighbor_counter.inc();
    return best->result;
}

bool
ScheduleCache::contains(const ScheduleCacheKey& key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.find(key.flat()) != entries_.end();
}

std::size_t
ScheduleCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

std::int64_t
ScheduleCache::capacity() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return capacity_;
}

void
ScheduleCache::setCapacity(std::int64_t capacity)
{
    std::lock_guard<std::mutex> lock(mutex_);
    capacity_ = std::max<std::int64_t>(capacity, 0);
    enforceCapacityLocked();
}

ScheduleCacheStats
ScheduleCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    ScheduleCacheStats stats;
    stats.hits = hits_;
    stats.misses = misses_;
    stats.entries = static_cast<std::int64_t>(entries_.size());
    stats.neighbor_hits = neighbor_hits_;
    stats.evictions = evictions_;
    return stats;
}

std::vector<ScheduleCache::ExportedEntry>
ScheduleCache::exportEntries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<ExportedEntry> out;
    out.reserve(entries_.size());
    for (const std::string& flat : insertion_order_) {
        if (flat.empty())
            continue; // eviction tombstone
        const auto it = entries_.find(flat);
        if (it == entries_.end())
            continue;
        const Entry& e = it->second;
        ExportedEntry exported;
        exported.key.layer_key = e.layer_key;
        exported.key.arch_key = e.arch_key;
        exported.key.scheduler_key = e.scheduler_key;
        exported.key.evaluator_key = e.evaluator_key;
        exported.result = e.result;
        exported.layer = e.layer;
        out.push_back(std::move(exported));
    }
    return out;
}

void
ScheduleCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    insertion_order_.clear();
    order_tombstones_ = 0;
    lru_.clear();
}

// --- persistence ---------------------------------------------------------
//
// Line-oriented text format (see docs/cache-store.md):
//   cosa-schedule-cache v3
//   capacity <N>
//   entry
//   key.layer/key.arch/key.sched/key.eval  <rest-of-line string>
//   layer.name <string> / layer.dims <8 ints>
//   result.found / result.scheduler / result.stats
//   eval.valid / eval.reason / eval.scalars / eval.levels (4 vectors)
//   mapping.levels L, then L x mapping.level lines
//   sum <16 hex digits>   (FNV-1a 64 of the lines entry..here)
//   end
// Doubles are written at max_digits10 so a round trip is bit-exact.

namespace {

// v3 is the only format read or written: line 2 is the `capacity`
// header and every record ends in its `sum` checksum, so no record
// loads unverified. Any other header is rejected on line 1, a clean,
// versioned failure instead of a trip mid-stream on an unknown line.
constexpr const char* kCacheFormatHeader = "cosa-schedule-cache v3";

std::uint64_t
fnv1aBytes(std::uint64_t h, const std::string& bytes)
{
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001B3ULL;
    }
    return h;
}

/** FNV-1a 64 folded over @p line plus the newline save() wrote. */
std::uint64_t
fnv1aLine(std::uint64_t h, const std::string& line)
{
    h = fnv1aBytes(h, line);
    h ^= static_cast<unsigned char>('\n');
    h *= 0x100000001B3ULL;
    return h;
}

constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

void
writeDoubles(std::ostream& out, const std::vector<double>& values)
{
    out << values.size();
    for (double v : values)
        out << " " << v;
}

bool
readDoubles(std::istringstream& in, std::vector<double>* values)
{
    std::size_t n = 0;
    if (!(in >> n) || n > (1u << 20))
        return false;
    values->resize(n);
    for (double& v : *values) {
        if (!(in >> v))
            return false;
    }
    return true;
}

/** "prefix rest-of-line" accessor; empty nullopt when prefix missing. */
std::optional<std::string>
valueOf(const std::string& line, const std::string& prefix)
{
    if (line.rfind(prefix, 0) != 0)
        return std::nullopt;
    if (line.size() == prefix.size())
        return std::string();
    if (line[prefix.size()] != ' ')
        return std::nullopt;
    return line.substr(prefix.size() + 1);
}

} // namespace

ScheduleCache::IoResult
ScheduleCache::save(const std::string& path) const
{
    IoResult io;
    // Create missing parent directories so `--cache-file runs/a/b.txt`
    // works cold (the historical behavior was a silent open failure).
    std::error_code ec;
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (!parent.empty()) {
        std::filesystem::create_directories(parent, ec);
        if (ec) {
            io.error = "cannot create " + parent.string() + ": " +
                       ec.message();
            return io;
        }
    }
    // Crash safety: write the whole snapshot to a temporary sibling
    // and atomically rename it over the target, so a crash (or any
    // write failure) mid-save leaves an existing snapshot intact.
    const std::string tmp_path = path + ".tmp";
    std::ofstream out(tmp_path, std::ios::trunc);
    if (!out) {
        io.error = "cannot open " + tmp_path + " for writing";
        return io;
    }
    out.precision(std::numeric_limits<double>::max_digits10);
    out << kCacheFormatHeader << "\n";

    bool write_fault = false;
    std::string fault_text;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // The configured LRU bound is part of the header: without it a
        // bounded cache silently came back unbounded after a reload.
        out << "capacity " << capacity_ << "\n";
        for (const std::string& flat : insertion_order_) {
            if (flat.empty())
                continue; // eviction tombstone
            const auto it = entries_.find(flat);
            if (it == entries_.end())
                continue; // cleared since insertion
            try {
                // Simulated mid-save crash for chaos tests: the temp
                // file is abandoned, the real snapshot stays intact.
                COSA_FAILPOINT("cache.save_write", ErrorCode::kIoError);
            } catch (const CosaError& e) {
                write_fault = true;
                fault_text = e.status().toString();
                break;
            }
            const Entry& e = it->second;
            const SearchResult& r = e.result;
            const Evaluation& ev = r.eval;
            // The entry body is buffered so its checksum can follow it;
            // the hash covers the exact bytes between "entry" and "sum".
            std::ostringstream body;
            body.precision(std::numeric_limits<double>::max_digits10);
            body << "entry\n";
            body << "key.layer " << e.layer_key << "\n";
            body << "key.arch " << e.arch_key << "\n";
            body << "key.sched " << e.scheduler_key << "\n";
            body << "key.eval " << e.evaluator_key << "\n";
            body << "layer.name " << e.layer.name << "\n";
            body << "layer.dims " << e.layer.r << " " << e.layer.s << " "
                 << e.layer.p << " " << e.layer.q << " " << e.layer.c
                 << " " << e.layer.k << " " << e.layer.n << " "
                 << e.layer.stride << "\n";
            body << "result.found " << (r.found ? 1 : 0) << "\n";
            body << "result.scheduler " << r.scheduler << "\n";
            body << "result.stats " << r.stats.samples << " "
                 << r.stats.valid_evaluated << " "
                 << r.stats.search_time_sec << " " << r.stats.mip_nodes
                 << " " << r.stats.lp_iterations << " "
                 << r.stats.warm_starts_installed << " "
                 << r.stats.warm_start_hits << "\n";
            body << "eval.valid " << (ev.valid ? 1 : 0) << "\n";
            body << "eval.reason " << ev.invalid_reason << "\n";
            body << "eval.scalars " << ev.compute_cycles << " "
                 << ev.memory_cycles << " " << ev.cycles << " "
                 << ev.energy_pj << " " << ev.mac_energy_pj << " "
                 << ev.noc_energy_pj << " " << ev.noc_bytes << " "
                 << ev.dram_bytes << " " << ev.spatial_utilization << " "
                 << ev.total_macs << "\n";
            body << "eval.reads ";
            writeDoubles(body, ev.reads_bytes);
            body << "\neval.writes ";
            writeDoubles(body, ev.writes_bytes);
            body << "\neval.cycles ";
            writeDoubles(body, ev.level_cycles);
            body << "\neval.energy ";
            writeDoubles(body, ev.level_energy_pj);
            body << "\n";
            body << "mapping.levels " << r.mapping.levels.size() << "\n";
            for (const auto& level : r.mapping.levels) {
                body << "mapping.level " << level.size();
                for (const Loop& loop : level) {
                    body << " " << static_cast<int>(loop.dim) << " "
                         << loop.bound << " " << (loop.spatial ? 1 : 0);
                }
                body << "\n";
            }
            const std::string text = body.str();
            char sum[32];
            std::snprintf(sum, sizeof(sum), "%016llx",
                          static_cast<unsigned long long>(
                              fnv1aBytes(kFnvBasis, text)));
            out << text << "sum " << sum << "\nend\n";
            ++io.entries;
        }
    }
    out.flush();
    out.close();
    if (write_fault || !out) {
        std::remove(tmp_path.c_str());
        io.entries = 0;
        io.error = write_fault ? "write to " + path + " failed (" +
                                     fault_text + ")"
                               : "write to " + tmp_path + " failed";
        return io;
    }
    if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
        std::remove(tmp_path.c_str());
        io.entries = 0;
        io.error = "rename " + tmp_path + " -> " + path + " failed";
        return io;
    }
    io.ok = true;
    return io;
}

ScheduleCache::IoResult
ScheduleCache::load(const std::string& path)
{
    std::ifstream in(path);
    IoResult io;
    if (!in) {
        io.error = "cannot open " + path;
        return io;
    }
    std::string line;
    if (!std::getline(in, line) || line != kCacheFormatHeader) {
        io.error = path + ": not a " + std::string(kCacheFormatHeader) +
                   " file (got \"" + line + "\")";
        return io;
    }

    std::lock_guard<std::mutex> lock(mutex_);
    // Line 2: the saved LRU bound. An explicitly configured bound on
    // the destination cache wins over the snapshot's; an unbounded
    // destination adopts the saved bound.
    std::istringstream capacity_in(
        std::getline(in, line) ? valueOf(line, "capacity").value_or("")
                               : "");
    std::int64_t saved_capacity = -1;
    if (!(capacity_in >> saved_capacity) || saved_capacity < 0) {
        io.error = path + ": malformed capacity header";
        return io;
    }
    if (capacity_ == 0 && saved_capacity > 0) {
        capacity_ = saved_capacity;
        enforceCapacityLocked();
    }
    // `line` holds an unconsumed record-start line when true (a skip
    // scan stopped on the next "entry").
    bool have_line = false;
    // Resync after a corrupt/truncated record: count and log the skip,
    // then scan forward to the next record start (or EOF). Surviving
    // records still merge — one damaged entry never rejects a snapshot.
    auto skipEntry = [&](const std::string& what) {
        ++io.skipped;
        warn("schedule cache: skipping corrupt entry ", io.skipped,
             " in ", path, " (", what, ")");
        static metrics::Counter& corrupt_counter =
            cacheEventCounter("corrupt_entry");
        corrupt_counter.inc();
        if (in && line == "entry") {
            have_line = true;
            return;
        }
        while (std::getline(in, line)) {
            if (line == "entry") {
                have_line = true;
                return;
            }
        }
    };

    for (;;) {
        if (!have_line && !std::getline(in, line))
            break;
        have_line = false;
        if (line.empty())
            continue;
        if (line != "entry") {
            skipEntry("expected 'entry', got \"" + line + "\"");
            continue;
        }
        if (failpoint::armed() &&
            failpoint::shouldTrigger("cache.load_entry")) {
            // This record's own "entry" line must not resync the scan
            // onto itself (skipEntry reuses a pending "entry" line).
            line.clear();
            skipEntry("failpoint cache.load_entry");
            continue;
        }

        ScheduleCacheKey key;
        Entry entry;
        SearchResult& r = entry.result;
        Evaluation& ev = r.eval;
        // Fold the record's exact bytes (as written) for the `sum` check.
        std::uint64_t hash = fnv1aLine(kFnvBasis, line);

        // The per-entry lines, in the fixed order save() writes them.
        auto expect = [&](const char* prefix,
                          std::string* out_value) -> bool {
            if (!std::getline(in, line))
                return false;
            const auto value = valueOf(line, prefix);
            if (!value)
                return false;
            hash = fnv1aLine(hash, line);
            *out_value = *value;
            return true;
        };
        std::string value;
        bool record_ok = true;
        auto field = [&](bool parsed, const char* what) {
            if (!parsed && record_ok) {
                record_ok = false;
                skipEntry(what);
            }
            return record_ok;
        };
        if (!field(expect("key.layer", &key.layer_key), "key.layer"))
            continue;
        if (!field(expect("key.arch", &key.arch_key), "key.arch"))
            continue;
        if (!field(expect("key.sched", &key.scheduler_key), "key.sched"))
            continue;
        if (!field(expect("key.eval", &key.evaluator_key), "key.eval"))
            continue;
        if (!field(expect("layer.name", &entry.layer.name), "layer.name"))
            continue;
        if (!field(expect("layer.dims", &value), "layer.dims"))
            continue;
        {
            std::istringstream iss(value);
            LayerSpec& l = entry.layer;
            if (!field(static_cast<bool>(iss >> l.r >> l.s >> l.p >>
                                         l.q >> l.c >> l.k >> l.n >>
                                         l.stride),
                       "layer.dims values"))
                continue;
        }
        if (!field(expect("result.found", &value), "result.found"))
            continue;
        r.found = value == "1";
        if (!field(expect("result.scheduler", &r.scheduler),
                   "result.scheduler"))
            continue;
        if (!field(expect("result.stats", &value), "result.stats"))
            continue;
        {
            std::istringstream iss(value);
            SearchStats& s = r.stats;
            if (!field(static_cast<bool>(
                           iss >> s.samples >> s.valid_evaluated >>
                           s.search_time_sec >> s.mip_nodes >>
                           s.lp_iterations >> s.warm_starts_installed >>
                           s.warm_start_hits),
                       "result.stats values"))
                continue;
        }
        if (!field(expect("eval.valid", &value), "eval.valid"))
            continue;
        ev.valid = value == "1";
        if (!field(expect("eval.reason", &ev.invalid_reason),
                   "eval.reason"))
            continue;
        if (!field(expect("eval.scalars", &value), "eval.scalars"))
            continue;
        {
            std::istringstream iss(value);
            if (!field(static_cast<bool>(
                           iss >> ev.compute_cycles >> ev.memory_cycles >>
                           ev.cycles >> ev.energy_pj >> ev.mac_energy_pj >>
                           ev.noc_energy_pj >> ev.noc_bytes >>
                           ev.dram_bytes >> ev.spatial_utilization >>
                           ev.total_macs),
                       "eval.scalars values"))
                continue;
        }
        const struct
        {
            const char* prefix;
            std::vector<double>* target;
        } vectors[] = {
            {"eval.reads", &ev.reads_bytes},
            {"eval.writes", &ev.writes_bytes},
            {"eval.cycles", &ev.level_cycles},
            {"eval.energy", &ev.level_energy_pj},
        };
        for (const auto& spec : vectors) {
            if (!field(expect(spec.prefix, &value), spec.prefix))
                break;
            std::istringstream iss(value);
            if (!field(readDoubles(iss, spec.target),
                       (std::string(spec.prefix) + " values").c_str()))
                break;
        }
        if (!record_ok)
            continue;
        if (!field(expect("mapping.levels", &value), "mapping.levels"))
            continue;
        std::size_t num_levels = 0;
        {
            std::istringstream iss(value);
            if (!field(static_cast<bool>(iss >> num_levels) &&
                           num_levels <= 64,
                       "mapping.levels value"))
                continue;
        }
        r.mapping.levels.assign(num_levels, {});
        for (std::size_t l = 0; l < num_levels && record_ok; ++l) {
            if (!field(expect("mapping.level", &value), "mapping.level"))
                break;
            std::istringstream iss(value);
            std::size_t num_loops = 0;
            if (!field(static_cast<bool>(iss >> num_loops) &&
                           num_loops <= 4096,
                       "mapping.level count"))
                break;
            auto& loops = r.mapping.levels[l];
            loops.resize(num_loops);
            for (Loop& loop : loops) {
                int dim = 0, spatial = 0;
                if (!field(static_cast<bool>(iss >> dim >> loop.bound >>
                                             spatial) &&
                               dim >= 0 && dim < kNumDims,
                           "mapping.level loop"))
                    break;
                loop.dim = static_cast<Dim>(dim);
                loop.spatial = spatial != 0;
            }
        }
        if (!record_ok)
            continue;
        // Trailer: `sum <hex>`, then `end`. A record without its sum
        // cannot be verified, so it is skipped like a corrupt one.
        char expected[32];
        std::snprintf(expected, sizeof(expected), "%016llx",
                      static_cast<unsigned long long>(hash));
        if (!field(expect("sum", &value), "missing checksum") ||
            !field(value == expected,
                   "checksum mismatch (entry was altered)") ||
            !field(std::getline(in, line) && line == "end",
                   "expected 'end'"))
            continue;

        insertLocked(key, r, entry.layer);
        ++io.entries;
    }
    io.ok = true;
    return io;
}

} // namespace cosa
