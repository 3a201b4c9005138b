#include "cachestore/snapshot.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <vector>

#include "cachestore/log.hpp"
#include "common/failpoint.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"

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

namespace cosa {
namespace cachestore {

namespace {

// v3 is the only format read or written: line 2 is the `capacity`
// header and every record ends in its `sum` checksum, so no record
// loads unverified. Any other header is rejected on line 1, a clean,
// versioned failure instead of a trip mid-stream on an unknown line.
constexpr const char* kCacheFormatHeader = "cosa-schedule-cache v3";

/** The `sum` line's value: FNV-1a 64 of @p text as 16 hex digits. */
std::string
checksumHex(const std::string& text)
{
    char sum[32];
    std::snprintf(sum, sizeof(sum), "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a(text.data(), text.size())));
    return sum;
}

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

IoResult
exportSnapshot(const ScheduleCache& cache, const std::string& path)
{
    IoResult io;
    // Create missing parent directories so `export DIR runs/a/b.txt`
    // works cold.
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
    // write failure) mid-export leaves an existing snapshot intact.
    const std::string tmp_path = path + ".tmp";
    std::ofstream out(tmp_path, std::ios::trunc);
    if (!out) {
        io.error = "cannot open " + tmp_path + " for writing";
        return io;
    }
    out.precision(std::numeric_limits<double>::max_digits10);
    out << kCacheFormatHeader << "\n";
    out << "capacity 0\n";

    bool write_fault = false;
    std::string fault_text;
    for (const ScheduleCache::ExportedEntry& e : cache.exportEntries()) {
        try {
            // Simulated mid-export crash for chaos tests: the temp
            // file is abandoned, the real snapshot stays intact.
            COSA_FAILPOINT("cache.save_write", ErrorCode::kIoError);
        } catch (const CosaError& fault) {
            write_fault = true;
            fault_text = fault.status().toString();
            break;
        }
        const SearchResult& r = e.result;
        const Evaluation& ev = r.eval;
        // The entry body is buffered so its checksum can follow it;
        // the hash covers the exact bytes between "entry" and "sum".
        std::ostringstream body;
        body.precision(std::numeric_limits<double>::max_digits10);
        body << "entry\n";
        body << "key.layer " << e.key.layer_key << "\n";
        body << "key.arch " << e.key.arch_key << "\n";
        body << "key.sched " << e.key.scheduler_key << "\n";
        body << "key.eval " << e.key.evaluator_key << "\n";
        body << "layer.name " << e.layer.name << "\n";
        body << "layer.dims " << e.layer.r << " " << e.layer.s << " "
             << e.layer.p << " " << e.layer.q << " " << e.layer.c << " "
             << e.layer.k << " " << e.layer.n << " " << e.layer.stride
             << "\n";
        body << "result.found " << (r.found ? 1 : 0) << "\n";
        body << "result.scheduler " << r.scheduler << "\n";
        body << "result.stats " << r.stats.samples << " "
             << r.stats.valid_evaluated << " " << r.stats.search_time_sec
             << " " << r.stats.mip_nodes << " " << r.stats.lp_iterations
             << " " << r.stats.warm_starts_installed << " "
             << r.stats.warm_start_hits << "\n";
        body << "eval.valid " << (ev.valid ? 1 : 0) << "\n";
        body << "eval.reason " << ev.invalid_reason << "\n";
        body << "eval.scalars " << ev.compute_cycles << " "
             << ev.memory_cycles << " " << ev.cycles << " " << ev.energy_pj
             << " " << ev.mac_energy_pj << " " << ev.noc_energy_pj << " "
             << ev.noc_bytes << " " << ev.dram_bytes << " "
             << ev.spatial_utilization << " " << ev.total_macs << "\n";
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
        out << text << "sum " << checksumHex(text) << "\nend\n";
        ++io.entries;
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

IoResult
importSnapshot(const std::string& path, ScheduleCache& cache)
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

    // Line 2: the `capacity` header. It is required, so a file cut
    // after its header fails cleanly, but its value is not applied.
    std::istringstream capacity_in(
        std::getline(in, line) ? valueOf(line, "capacity").value_or("")
                               : "");
    std::int64_t saved_capacity = -1;
    if (!(capacity_in >> saved_capacity) || saved_capacity < 0) {
        io.error = path + ": malformed capacity header";
        return io;
    }
    // `line` holds an unconsumed record-start line when true (a skip
    // scan stopped on the next "entry").
    bool have_line = false;
    // Resync after a corrupt/truncated record: count and log the skip,
    // then scan forward to the next record start (or EOF). Surviving
    // records still merge — one damaged entry never rejects a snapshot.
    auto skipEntry = [&](const std::string& what) {
        ++io.skipped;
        warn("schedule cache: skipping corrupt entry ", io.skipped, " in ",
             path, " (", what, ")");
        static metrics::Counter& corrupt_counter =
            metrics::MetricsRegistry::global().counter(
                "cosa_cache_events_total", "Schedule-cache events by kind",
                {{"event", "corrupt_entry"}});
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

        ScheduleCache::ExportedEntry entry;
        ScheduleCacheKey& key = entry.key;
        SearchResult& r = entry.result;
        Evaluation& ev = r.eval;
        // The record's exact bytes (as written) for the `sum` check.
        std::string record_text = line + "\n";

        // The per-entry lines, in the fixed order exportSnapshot()
        // writes them.
        auto expect = [&](const char* prefix,
                          std::string* out_value) -> bool {
            if (!std::getline(in, line))
                return false;
            const auto value = valueOf(line, prefix);
            if (!value)
                return false;
            record_text += line;
            record_text += '\n';
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
            if (!field(static_cast<bool>(iss >> l.r >> l.s >> l.p >> l.q >>
                                         l.c >> l.k >> l.n >> l.stride),
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
        if (!field(expect("eval.reason", &ev.invalid_reason), "eval.reason"))
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
        const std::string expected = checksumHex(record_text);
        if (!field(expect("sum", &value), "missing checksum") ||
            !field(value == expected,
                   "checksum mismatch (entry was altered)") ||
            !field(std::getline(in, line) && line == "end",
                   "expected 'end'"))
            continue;

        cache.insert(key, r, entry.layer);
        ++io.entries;
    }
    io.ok = true;
    return io;
}

} // namespace cachestore
} // namespace cosa
