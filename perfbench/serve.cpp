/**
 * @file
 * Workloads serve_warm_hits and serve_novel_mix: cosad on loopback, as
 * an in-process server::Daemon (executor width 2, 2 handler threads,
 * auth on with one API key per client, unlimited quotas) mounted on a
 * persistent cache store that set-up warmed with the 56 unique shapes of
 * AlexNet, ResNet-50, ResNeXt-50 and DeepBench.
 *
 * Load: a closed loop of 2 stock server::Client threads. Each request is
 * POST /v1/jobs, GET /v1/jobs/{id}/events until the done line, then
 * GET /v1/jobs/{id}. The seed draws a pool of bodies (one third named
 * suites, the rest inline lists of 1-8 pool shapes) and each client's
 * sequence over it. In serve_novel_mix every tenth request of each
 * client (from a seeded phase) appends one novel conv shape, absent from
 * the pool and distinct within the run, so it pays one warm-started CoSA
 * solve and one store insert.
 *
 * The mix (body pool size, suite share, shapes per body, novel share) is
 * an assumption, not a measurement: no recorded cosad traffic exists to
 * derive it from. Closed loop on purpose: cosad's callers wait for their
 * schedule. Two waiting clients build no queue, so admission and
 * queueing claims need an open-loop workload of their own.
 */

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "cachestore/store.hpp"
#include "common/rng.hpp"
#include "cosa_replay.hpp"
#include "problem/workloads.hpp"
#include "server/client.hpp"
#include "server/daemon.hpp"
#include "server/wire.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using cosa::json::Value;

constexpr int kWarmWidth = 4;
constexpr int kServeWidth = 2;
constexpr int kHandlers = 2;
constexpr int kClients = 2;
constexpr int kSetupRepeats = 3;
/** Distinct request bodies per run (assumed). At the roughly 550
 *  requests of a serve_novel_mix run each body is sent about twice, so
 *  the same-body byte check has repeats to compare, while the in-process
 *  replay of every distinct body after the loop stays small. */
constexpr std::size_t kBodyPool = 256;
/** Every kNovelPeriod-th request of a client is novel (10%, assumed),
 *  from a seeded phase: a fixed share, so the run's request count does
 *  not swing with how the novel requests happen to cluster. */
constexpr std::uint64_t kNovelPeriod = 10;
constexpr std::uint64_t kNovelOrderSeed = 0x6e6f76656cULL;
/** Novel shapes the traced run re-solves layer by layer. */
constexpr std::size_t kNovelReplays = 8;
constexpr std::size_t kSmokeNovelReplays = 2;
/** Store probes the traced run times per cachestore call kind. */
constexpr std::size_t kNeighborProbes = 32;
constexpr std::size_t kInsertProbes = 16;
constexpr int kOpenProbes = 5;

struct Suite
{
    const char* name; //!< wire name
    cosa::Workload workload;
};

std::vector<Suite>
poolSuites(bool smoke)
{
    if (smoke)
        return {{"alexnet", cosa::workloads::alexNet()}};
    return {{"alexnet", cosa::workloads::alexNet()},
            {"resnet50", cosa::workloads::resNet50()},
            {"resnext50", cosa::workloads::resNeXt50()},
            {"deepbench", cosa::workloads::deepBench()}};
}

Value
layerJson(const cosa::LayerSpec& layer)
{
    Value v = Value::object();
    v.set("r", layer.r);
    v.set("s", layer.s);
    v.set("p", layer.p);
    v.set("q", layer.q);
    v.set("c", layer.c);
    v.set("k", layer.k);
    v.set("n", layer.n);
    v.set("stride", layer.stride);
    return v;
}

std::string
bodyText(Value workloads)
{
    Value body = Value::object();
    body.set("workloads", std::move(workloads));
    body.set("arch", "simba");
    return body.dump();
}

/** The run's inputs, all drawn from the seed. */
struct Inputs
{
    std::vector<cosa::LayerSpec> pool; //!< unique shapes, first-seen order
    std::vector<Value> bodies;         //!< "workloads" array per body
    std::vector<std::string> texts;    //!< the matching request bodies
    /** Conv shapes absent from the pool, in the order runs use them. */
    std::vector<cosa::LayerSpec> novel;
};

Inputs
drawInputs(const std::vector<Suite>& suites, std::uint64_t seed, bool smoke)
{
    Inputs in;
    std::set<std::string> keys;
    for (const Suite& suite : suites) {
        for (const cosa::LayerSpec& layer : suite.workload.layers) {
            if (keys.insert(layer.canonicalKey()).second)
                in.pool.push_back(layer);
        }
    }
    cosa::Rng rng(seed);
    const std::size_t count = smoke ? kBodyPool / 8 : kBodyPool;
    for (std::size_t b = 0; b < count; ++b) {
        Value workloads = Value::array();
        if (rng.nextBelow(3) == 0) {
            workloads.push(suites[rng.choiceIndex(suites)].name);
        } else {
            Value net = Value::object();
            net.set("name", "mix" + std::to_string(b));
            Value layers = Value::array();
            const std::uint64_t n = 1 + rng.nextBelow(8);
            for (std::uint64_t i = 0; i < n; ++i)
                layers.push(layerJson(in.pool[rng.choiceIndex(in.pool)]));
            net.set("layers", std::move(layers));
            workloads.push(std::move(net));
        }
        in.texts.push_back(bodyText(workloads));
        in.bodies.push_back(std::move(workloads));
    }
    for (std::int64_t r : {1, 3}) {
        for (std::int64_t p : {7, 14, 28}) {
            for (std::int64_t c : {48, 80, 96, 160, 192, 320}) {
                for (std::int64_t k : {48, 80, 96, 160, 192, 320}) {
                    cosa::LayerSpec layer;
                    layer.r = layer.s = r;
                    layer.p = layer.q = p;
                    layer.c = c;
                    layer.k = k;
                    layer.name = layer.label();
                    if (!keys.count(layer.canonicalKey()))
                        in.novel.push_back(layer);
                }
            }
        }
    }
    // A fixed order, not the seed's: every run then pays the same
    // warm-started solves, so the tail latency they set is comparable
    // across seeds. The seed still picks which requests carry them.
    cosa::Rng novel_order(kNovelOrderSeed);
    novel_order.shuffle(in.novel);
    return in;
}

/** Body of novel request @p j: pool body @p b plus one novel layer. */
std::string
novelText(const Inputs& in, std::size_t b, std::size_t j)
{
    Value workloads = in.bodies[b];
    Value net = Value::object();
    net.set("name", "novel" + std::to_string(j));
    Value layers = Value::array();
    layers.push(layerJson(in.novel[j]));
    net.set("layers", std::move(layers));
    workloads.push(std::move(net));
    return bodyText(std::move(workloads));
}

std::string
tenantName(int client)
{
    return "client" + std::to_string(client);
}

std::string
apiKey(int client)
{
    return "perfbench-key-" + std::to_string(client);
}

/**
 * Set-up: solve every pool shape into a fresh store in-process, then
 * start the daemon on it (which replays the store). The warm-up's
 * results, which the store then serves, land in @p warm. Null on
 * failure.
 */
std::unique_ptr<cosa::server::Daemon>
setUp(const std::vector<Suite>& suites, const std::string& dir,
      std::vector<cosa::NetworkResult>* warm)
{
    {
        cosa::cachestore::StoreConfig store_config;
        store_config.dir = dir;
        auto store = cosa::cachestore::PersistentScheduleCache::open(
            store_config);
        if (!store.ok()) {
            std::cerr << "perfbench: " << store.status().toString() << "\n";
            return nullptr;
        }
        cosa::ServiceConfig service_config;
        service_config.num_threads = kWarmWidth;
        cosa::SchedulerService service(service_config);
        cosa::ScheduleRequest request;
        for (const Suite& suite : suites)
            request.workloads.push_back(suite.workload);
        request.arch = cosa::ArchSpec::simbaBaseline();
        request.cache = store.value();
        request.tag = "perfbench-warmup";
        cosa::SubmitResult submitted = service.submit(std::move(request));
        if (!submitted.accepted()) {
            std::cerr << "perfbench: warm-up query was not admitted\n";
            return nullptr;
        }
        *warm = submitted.job().wait();
        for (const cosa::NetworkResult& net : *warm) {
            if (!net.all_found) {
                std::cerr << "perfbench: warm-up left " << net.network
                          << " unscheduled\n";
                return nullptr;
            }
        }
    }
    cosa::server::DaemonConfig config;
    config.port = 0;
    config.num_handler_threads = kHandlers;
    config.service.num_threads = kServeWidth;
    config.cache_dir = dir;
    for (int c = 0; c < kClients; ++c)
        config.tenants.push_back({tenantName(c), apiKey(c), 0.0, 0.0, 0});
    auto daemon = std::make_unique<cosa::server::Daemon>(std::move(config));
    const cosa::Status started = daemon->start();
    if (!started.ok()) {
        std::cerr << "perfbench: " << started.toString() << "\n";
        return nullptr;
    }
    return daemon;
}

/** What one client thread saw. */
struct ClientLog
{
    std::vector<double> latency_s; //!< completed requests only
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::int64_t connect_failures = 0;
    std::int64_t novel_completed = 0;
    std::int64_t warm_hints = 0; //!< from the wire provenance
    std::int64_t warm_hits = 0;
    /** Novel index -> LP iterations of its network's solve, from the
     *  wire provenance of each completed novel request. */
    std::map<std::size_t, std::int64_t> novel_lp;
    double body_bytes = 0.0; //!< summed GET /v1/jobs/{id} body sizes
    double end_sec = 0.0;
};

/** Wire result bytes per body, shared by the client threads. */
class WireBytes
{
  public:
    /**
     * Record the @p bytes request body @p id (text @p body) received.
     * False when they differ from the bytes an earlier request with the
     * same body received (check b of the serving path).
     */
    bool
    record(std::size_t id, const std::string& body, std::string bytes)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto [it, inserted] = bodies_.try_emplace(id);
        if (inserted) {
            it->second.text = body;
            it->second.bytes = std::move(bytes);
        } else if (it->second.bytes != bytes) {
            return false;
        }
        ++it->second.requests;
        return true;
    }

    struct Body
    {
        std::string text;
        std::string bytes;
        std::int64_t requests = 0; //!< requests that received `bytes`
    };

    /** Bodies in id order; call only after the client threads joined. */
    std::vector<std::pair<std::size_t, const Body*>>
    sorted() const
    {
        std::vector<std::pair<std::size_t, const Body*>> out;
        for (const auto& [id, body] : bodies_)
            out.emplace_back(id, &body);
        std::sort(out.begin(), out.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        return out;
    }

  private:
    std::mutex mutex_;
    std::unordered_map<std::size_t, Body> bodies_;
};

constexpr const char* kResultsKey = ",\"results\":";
constexpr const char* kProvenanceKey = ",\"provenance\":";

/** Result bytes the daemon splices, verbatim, into a GET /v1/jobs/{id}
 *  body between "results" and "provenance"; empty when absent. */
std::string
resultBytesOf(const std::string& body)
{
    const std::size_t key = body.find(kResultsKey);
    const std::size_t to = body.rfind(kProvenanceKey);
    if (key == std::string::npos || to == std::string::npos || to < key)
        return {};
    const std::size_t from = key + std::strlen(kResultsKey);
    return body.substr(from, to - from);
}

/**
 * Tally the warm-start provenance of a fetched job body into @p log and,
 * when @p novel names a novel request, the LP iterations its network's
 * solve took. The provenance array sits between the results and the
 * body's closing brace.
 */
void
readProvenance(const std::string& job, std::optional<std::size_t> novel,
               ClientLog& log)
{
    const std::size_t at = job.rfind(kProvenanceKey);
    if (at == std::string::npos)
        return;
    const std::size_t from = at + std::strlen(kProvenanceKey);
    auto provenance = Value::parse(
        std::string_view(job).substr(from, job.size() - from - 1));
    if (!provenance.ok())
        return;
    const std::string novel_name =
        novel ? "novel" + std::to_string(*novel) : std::string();
    for (const Value& net : provenance.value().items()) {
        log.warm_hints += net.getInt("num_warm_hints", 0);
        log.warm_hits += net.getInt("num_warm_hits", 0);
        const Value* search = net.find("search");
        if (novel && search && net.getString("network", "") == novel_name)
            log.novel_lp[*novel] = search->getInt("lp_iterations", -1);
    }
}

/** One submit -> events -> fetch exchange; false on any failure. On
 *  success @p job holds the GET /v1/jobs/{id} body. */
bool
oneRequest(cosa::server::Client& client, const std::string& body,
           std::int64_t request_id, ClientLog& log, std::string* job)
{
    Span request("request", 0, request_id);
    Span submit("server.submit", request.id(), request_id);
    auto submitted = client.submit(body);
    submit.end();
    if (!submitted.ok()) {
        if (submitted.status().message().rfind("connect(", 0) == 0)
            ++log.connect_failures;
        return false;
    }
    if (submitted.value().status != 202)
        return false;
    auto accepted = Value::parse(submitted.value().body);
    if (!accepted.ok())
        return false;
    const auto id =
        static_cast<std::uint64_t>(accepted.value().getInt("id", 0));

    Span wait("server.wait", request.id(), request_id);
    bool done = false;
    auto streamed = client.streamEvents(id, [&](const std::string& line) {
        done = done || line.find("\"done\":true") != std::string::npos;
    });
    wait.end();
    if (!streamed.ok()) {
        if (streamed.status().message().rfind("connect(", 0) == 0)
            ++log.connect_failures;
        return false;
    }
    if (streamed.value() != 200 || !done)
        return false;

    Span fetch("server.fetch", request.id(), request_id);
    auto fetched = client.jobStatus(id);
    fetch.end();
    if (!fetched.ok()) {
        if (fetched.status().message().rfind("connect(", 0) == 0)
            ++log.connect_failures;
        return false;
    }
    if (fetched.value().status != 200)
        return false;
    *job = std::move(fetched.value().body);
    return true;
}

/** Closed loop of kClients threads until @p seconds elapse. */
std::vector<ClientLog>
closedLoop(const cosa::server::Daemon& daemon, const Inputs& in,
           bool novel_mix, std::uint64_t seed, double seconds,
           std::atomic<std::size_t>& next_novel, WireBytes& wire)
{
    std::vector<ClientLog> logs(kClients);
    std::vector<std::thread> threads;
    const double deadline = nowSec() + seconds;
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            ClientLog& log = logs[static_cast<std::size_t>(c)];
            cosa::server::Client client(daemon.host(), daemon.port(),
                                        apiKey(c));
            cosa::Rng rng(seed * 7919 + static_cast<std::uint64_t>(c) + 1);
            std::int64_t request_id =
                static_cast<std::int64_t>(c + 1) << 40;
            const std::uint64_t phase = rng.nextBelow(kNovelPeriod);
            for (std::uint64_t i = 0; nowSec() < deadline; ++i) {
                const std::size_t b = rng.choiceIndex(in.bodies);
                std::optional<std::size_t> novel;
                if (novel_mix && i % kNovelPeriod == phase) {
                    const std::size_t j = next_novel.fetch_add(1);
                    if (j < in.novel.size())
                        novel = j;
                }
                const std::size_t body_id =
                    novel ? in.bodies.size() + *novel : b;
                const std::string novel_body =
                    novel ? novelText(in, b, *novel) : std::string();
                const std::string& body = novel ? novel_body : in.texts[b];
                ++log.attempted;
                const double start = nowSec();
                std::string job;
                bool ok = oneRequest(client, body, ++request_id, log, &job);
                const double latency = nowSec() - start;
                std::string result = ok ? resultBytesOf(job) : std::string();
                ok = !result.empty();
                if (ok && novel)
                    ++log.novel_completed;
                if (!ok || !wire.record(body_id, body, std::move(result))) {
                    ++log.failed;
                    continue;
                }
                log.latency_s.push_back(latency);
                log.body_bytes += static_cast<double>(job.size());
                readProvenance(job, novel, log);
            }
            log.end_sec = nowSec();
        });
    }
    for (std::thread& t : threads)
        t.join();
    return logs;
}

void
accumulate(ClientLog& into, const ClientLog& from)
{
    into.latency_s.insert(into.latency_s.end(), from.latency_s.begin(),
                          from.latency_s.end());
    into.attempted += from.attempted;
    into.failed += from.failed;
    into.connect_failures += from.connect_failures;
    into.novel_completed += from.novel_completed;
    into.warm_hints += from.warm_hints;
    into.warm_hits += from.warm_hits;
    into.novel_lp.insert(from.novel_lp.begin(), from.novel_lp.end());
    into.body_bytes += from.body_bytes;
    into.end_sec = std::max(into.end_sec, from.end_sec);
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/**
 * Traced-run probes of the store: lookups of the run's cache keys,
 * nearest-neighbour queries, and open / insert on a copy of the run's
 * directory. Adds the count metrics to @p layer.
 */
void
probeStore(const cosa::server::Daemon& daemon, const Inputs& in,
           const std::vector<cosa::ScheduleCacheKey>& keys,
           const std::string& dir, const std::string& work_dir, Value& layer)
{
    cosa::cachestore::PersistentScheduleCache& cache = *daemon.cache();
    for (const cosa::ScheduleCacheKey& key : keys) {
        Span span("cachestore.lookup");
        cache.lookup(key);
    }
    const std::string arch_key = cosa::ArchSpec::simbaBaseline().fingerprint();
    const std::string sched_key =
        cosa::schedulerConfigKey(cosa::ScheduleRequest{});
    const std::string eval_key = cosa::defaultEvaluator().fingerprint();
    for (std::size_t j = 0; j < std::min(kNeighborProbes, in.novel.size());
         ++j) {
        Span span("cachestore.neighbor");
        cache.nearestNeighbor(arch_key, sched_key, eval_key, in.novel[j]);
    }

    const cosa::cachestore::StoreStats stats = cache.storeStats();
    std::int64_t log_bytes = 0;
    std::int64_t compactions = 0;
    for (const cosa::cachestore::ShardStats& shard : stats.shards) {
        log_bytes += static_cast<std::int64_t>(shard.log_bytes);
        compactions += shard.compactions;
    }
    layer.set("cachestore.log_bytes", log_bytes);
    layer.set("cachestore.compactions", compactions);

    const std::string copy = work_dir + "/store-copy";
    fs::remove_all(copy);
    fs::copy(dir, copy, fs::copy_options::recursive);
    cosa::cachestore::StoreConfig config;
    config.dir = copy;
    std::shared_ptr<cosa::cachestore::PersistentScheduleCache> store;
    for (int i = 0; i < kOpenProbes; ++i) {
        store.reset();
        Span span("cachestore.open");
        auto opened = cosa::cachestore::PersistentScheduleCache::open(config);
        span.end();
        if (opened.ok())
            store = std::move(opened).value();
    }
    if (store) {
        // Overwrites append one fsync'd record each, like a fresh insert.
        const auto entries = store->exportEntries();
        for (std::size_t i = 0; i < std::min(kInsertProbes, entries.size());
             ++i) {
            Span span("cachestore.insert");
            store->insert(entries[i].key, entries[i].result, entries[i].layer);
        }
    }
    store.reset();
    fs::remove_all(copy);
}

/** What replayNovel found. */
struct NovelReplay
{
    ReplayTotals totals;
    Value rows = Value::array();
    std::int64_t hint_trials = 0;   //!< unspanned solves picking a hint
    std::int64_t lp_mismatches = 0; //!< replays off the wire's LP count
    std::int64_t replay_lp = 0;
    std::int64_t wire_lp = 0;
};

/**
 * Re-solve the run's first @p limit novel shapes, in novel order, layer
 * by layer with the warm-start hint each served job got, and check every
 * replay against its job's LP iterations from the wire provenance
 * (@p wire_lp).
 *
 * A job took its hint from nearestNeighbor on the store as its memoize
 * phase saw it: the set-up shapes plus the novel results inserted by
 * then, a prefix of the store's insert order that ends before the job's
 * own insert. @p setup_dir is a copy of the store made before the loop;
 * walking the daemon store's insert order on it gives every hint a job
 * could have got. When there are several (a nearer novel result was
 * inserted around the time the job started), unspanned trial solves find
 * the one that reproduces the job's LP count. Null when the copy cannot
 * be opened.
 */
std::optional<NovelReplay>
replayNovel(cosa::cachestore::PersistentScheduleCache& store,
            const Inputs& in,
            const std::map<std::size_t, std::int64_t>& wire_lp,
            const std::string& setup_dir, std::size_t limit)
{
    const cosa::ArchSpec arch = cosa::ArchSpec::simbaBaseline();
    const std::string arch_key = arch.fingerprint();
    const std::string sched_key =
        cosa::schedulerConfigKey(cosa::ScheduleRequest{});
    const std::string eval_key = cosa::defaultEvaluator().fingerprint();
    cosa::cachestore::StoreConfig config;
    config.dir = setup_dir;
    auto opened = cosa::cachestore::PersistentScheduleCache::open(config);
    if (!opened.ok()) {
        std::cerr << "perfbench: " << opened.status().toString() << "\n";
        return std::nullopt;
    }
    cosa::cachestore::PersistentScheduleCache& replica = *opened.value();
    auto hintNow = [&](std::size_t j) {
        std::vector<cosa::Mapping> hints;
        if (auto nn = replica.nearestNeighbor(arch_key, sched_key, eval_key,
                                              in.novel[j]))
            hints.push_back(std::move(nn->mapping));
        return hints;
    };

    // Novel index -> the distinct hints it could have got, oldest first.
    std::map<std::size_t, std::vector<std::vector<cosa::Mapping>>> possible;
    for (auto it = wire_lp.begin();
         it != wire_lp.end() && possible.size() < limit; ++it)
        possible[it->first].push_back(hintNow(it->first));
    std::set<std::size_t> settled; //!< inserted: no later state counts
    for (const auto& entry : store.exportEntries()) {
        if (replica.contains(entry.key))
            continue; // a set-up shape
        replica.insert(entry.key, entry.result, entry.layer);
        const std::string key = entry.layer.canonicalKey();
        for (auto& [j, hints] : possible) {
            if (key == in.novel[j].canonicalKey())
                settled.insert(j);
            if (settled.count(j))
                continue;
            std::vector<cosa::Mapping> now = hintNow(j);
            if (now != hints.back())
                hints.push_back(std::move(now));
        }
    }

    NovelReplay out;
    for (const auto& [j, hints] : possible) {
        const std::int64_t wire = wire_lp.at(j);
        std::size_t pick = hints.size() - 1;
        if (hints.size() > 1) {
            Spans::global().setEnabled(false);
            for (std::size_t h = hints.size(); h-- > 0;) {
                ReplayTotals trial;
                Value scratch = Value::object();
                replayCosa(in.novel[j], arch, cosa::CosaConfig{}, hints[h],
                           trial, scratch);
                ++out.hint_trials;
                if (trial.lp_iterations == wire) {
                    pick = h;
                    break;
                }
            }
            Spans::global().setEnabled(true);
        }
        const std::int64_t before = out.totals.lp_iterations;
        Value row = Value::object();
        replayCosa(in.novel[j], arch, cosa::CosaConfig{}, hints[pick],
                   out.totals, row);
        const std::int64_t lp = out.totals.lp_iterations - before;
        row.set("wire_lp_iterations", wire);
        row.set("possible_hints", static_cast<std::int64_t>(hints.size()));
        out.rows.push(std::move(row));
        out.replay_lp += lp;
        out.wire_lp += wire;
        out.lp_mismatches += lp == wire ? 0 : 1;
    }
    return out;
}

} // namespace

bool
runServe(const Options& options, bool novel_mix, Value& report)
{
    const std::vector<Suite> suites = poolSuites(options.smoke);
    const Inputs in = drawInputs(suites, options.seed, options.smoke);

    const int repeats = options.smoke || options.trace ? 1 : kSetupRepeats;
    std::unique_ptr<cosa::server::Daemon> daemon;
    std::vector<cosa::NetworkResult> warm;
    Value setup = Value::array();
    std::string dir;
    for (int k = 0; k < repeats; ++k) {
        if (daemon) {
            daemon->stop();
            daemon.reset();
            fs::remove_all(dir);
        }
        dir = options.work_dir + "/store" + std::to_string(k);
        fs::remove_all(dir);
        const double start = nowSec();
        daemon = setUp(suites, dir, &warm);
        if (!daemon)
            return false;
        setup.push(nowSec() - start);
    }
    // The store as every job of the run found it before any novel
    // insert, for the traced replay of the novel solves.
    const std::string setup_copy = options.work_dir + "/store-setup";
    if (options.trace && novel_mix) {
        fs::remove_all(setup_copy);
        fs::copy(dir, setup_copy, fs::copy_options::recursive);
    }

    std::atomic<std::size_t> next_novel{0};
    WireBytes wire;
    Value layer = Value::object();
    ClientLog total; //!< every request of the run, for the checks
    const cosa::ScheduleCacheStats cache_start = daemon->cache()->stats();
    double loop_seconds = options.seconds;
    if (options.trace) {
        // Untraced half, then the traced half: the p50 difference is the
        // tracing overhead on the request path.
        loop_seconds = options.seconds / 2;
        ClientLog plain;
        for (const ClientLog& log :
             closedLoop(*daemon, in, novel_mix, options.seed, loop_seconds,
                        next_novel, wire))
            accumulate(plain, log);
        Value untraced = Value::array();
        for (double l : plain.latency_s)
            untraced.push(l);
        report.set("untraced_latency_s", std::move(untraced));
        accumulate(total, plain);
        Spans::global().setEnabled(true);
    }

    const cosa::ServiceStats stats_before = daemon->service().stats();
    const cosa::ScheduleCacheStats cache_before = daemon->cache()->stats();
    const std::int64_t opens_before = tcpActiveOpens();
    const double loop_start = nowSec();
    ClientLog timed;
    timed.end_sec = loop_start;
    for (const ClientLog& log :
         closedLoop(*daemon, in, novel_mix, options.seed + 1, loop_seconds,
                    next_novel, wire))
        accumulate(timed, log);
    const std::int64_t opens_after = tcpActiveOpens();
    const cosa::ScheduleCacheStats cache_after = daemon->cache()->stats();
    const cosa::ServiceStats stats_after = daemon->service().stats();
    accumulate(total, timed);

    // Check d: every store miss is a novel request's shape.
    const std::int64_t misses = cache_after.misses - cache_start.misses;
    const std::int64_t expected_misses = novel_mix ? total.novel_completed : 0;
    const std::int64_t unexpected_misses = std::abs(misses - expected_misses);

    // Checks a and c: replay every distinct body in-process on the same
    // service and store. Its bytes must equal the wire's and its
    // schedules must pass validateMapping; every request that received
    // a failing body's bytes counts as failed.
    const cosa::ArchSpec arch = cosa::ArchSpec::simbaBaseline();
    const std::string eval_key = cosa::defaultEvaluator().fingerprint();
    std::unordered_map<std::string, bool> valid_by_shape;
    std::vector<cosa::ScheduleCacheKey> keys;
    std::int64_t wire_mismatches = 0;
    std::int64_t body_failures = 0;
    std::int64_t layers_total = 0;
    std::int64_t unique_total = 0;
    const auto bodies = wire.sorted();
    for (const auto& [id, body] : bodies) {
        Span decode("server.decode");
        auto parsed = Value::parse(body->text);
        cosa::StatusOr<cosa::ScheduleRequest> request =
            parsed.ok() ? cosa::server::requestFromJson(parsed.value(),
                                                        tenantName(0))
                        : cosa::StatusOr<cosa::ScheduleRequest>(
                              parsed.status());
        decode.end();
        bool ok = request.ok();
        std::vector<cosa::NetworkResult> results;
        if (ok) {
            cosa::ScheduleRequest query = request.value();
            query.cache = daemon->cache();
            Span span("engine.query");
            cosa::SubmitResult submitted =
                daemon->service().submit(std::move(query));
            ok = submitted.accepted();
            if (ok)
                results = submitted.job().wait();
            span.end();
            const std::string sched_key =
                cosa::schedulerConfigKey(request.value());
            for (const cosa::Workload& net : request.value().workloads) {
                for (const cosa::LayerSpec& l : net.layers)
                    keys.push_back({l.canonicalKey(),
                                    request.value().arch.fingerprint(),
                                    sched_key, eval_key});
            }
        }
        if (ok) {
            Span render("server.render");
            const std::string bytes = cosa::server::resultsToJson(results).dump();
            render.end();
            ok = bytes == body->bytes;
        }
        if (!ok)
            ++wire_mismatches;
        bool valid = ok;
        for (const cosa::NetworkResult& net : results) {
            layers_total += net.num_layers;
            unique_total += net.num_unique;
            for (const cosa::LayerScheduleResult& lr : net.layers) {
                auto [it, fresh] =
                    valid_by_shape.try_emplace(lr.layer.canonicalKey(), true);
                if (fresh)
                    it->second = lr.result.found &&
                                 cosa::validateMapping(lr.result.mapping,
                                                       lr.layer, arch)
                                     .valid;
                valid = valid && it->second;
            }
        }
        if (!valid)
            body_failures += body->requests;
    }
    std::int64_t invalid = 0;
    for (const auto& [shape, valid] : valid_by_shape)
        invalid += valid ? 0 : 1;

    Value checks = Value::object();
    checks.set("a_invalid_schedules", invalid);
    checks.set("c_wire_mismatches", wire_mismatches);
    checks.set("d_store_misses", misses);
    checks.set("d_expected_misses", expected_misses);
    checks.set("connect_failures", total.connect_failures);
    checks.set("distinct_bodies", static_cast<std::int64_t>(bodies.size()));

    std::int64_t replay_attempted = 0;
    std::int64_t replay_failed = 0; //!< novel replays off the wire's LP
    if (options.trace) {
        const double requests = static_cast<double>(timed.attempted);
        constexpr int normal = static_cast<int>(cosa::JobPriority::Normal);
        const auto& tier_before = stats_before.tiers[normal];
        const auto& tier_after = stats_after.tiers[normal];
        layer.set("server.result_kb",
                  ratio(timed.body_bytes / 1024.0,
                        static_cast<double>(timed.latency_s.size())));
        layer.set("server.connects_per_req",
                  ratio(static_cast<double>(opens_after - opens_before),
                        requests));
        layer.set("engine.queue_wait_ms",
                  1e3 * ratio(tier_after.total_queue_wait_sec -
                                  tier_before.total_queue_wait_sec,
                              static_cast<double>(tier_after.submitted -
                                                  tier_before.submitted)));
        layer.set("engine.dedup_ratio",
                  ratio(static_cast<double>(unique_total),
                        static_cast<double>(layers_total)));
        const double hits =
            static_cast<double>(cache_after.hits - cache_before.hits);
        const double lookups =
            hits + static_cast<double>(cache_after.misses - cache_before.misses);
        layer.set("engine.cache_hit_ratio", ratio(hits, lookups));
        layer.set("engine.parallel_eff", 0.0);
        layer.set("engine.executor_tasks",
                  ratio(static_cast<double>(stats_after.executor.tasks_executed -
                                            stats_before.executor.tasks_executed),
                        requests));
        layer.set("engine.executor_steals",
                  ratio(static_cast<double>(stats_after.executor.steals -
                                            stats_before.executor.steals),
                        requests));
        layer.set("engine.warm_hint_hit_ratio",
                  ratio(static_cast<double>(timed.warm_hits),
                        static_cast<double>(timed.warm_hints)));

        probeStore(*daemon, in, keys, dir, options.work_dir, layer);

        NovelReplay novel;
        if (novel_mix) {
            auto replayed = replayNovel(
                *daemon->cache(), in, total.novel_lp, setup_copy,
                options.smoke ? kSmokeNovelReplays : kNovelReplays);
            if (!replayed)
                return false;
            novel = std::move(*replayed);
            // The replay is one more checked operation, like the cold
            // workload's.
            ++replay_attempted;
            replay_failed = novel.lp_mismatches == 0 ? 0 : 1;
            fs::remove_all(setup_copy);
        }
        novel.totals.writeTo(layer);
        layer.set("mapping.invalid", invalid + novel.totals.invalid);
        Value findings = Value::object();
        findings.set("novel_replayed", novel.totals.solves);
        findings.set("novel_hint_trials", novel.hint_trials);
        findings.set("replay_lp_iterations", novel.replay_lp);
        findings.set("wire_lp_iterations", novel.wire_lp);
        findings.set("replay_lp_mismatches", novel.lp_mismatches);
        report.set("layer", std::move(layer));
        report.set("layer_rows", std::move(novel.rows));
        report.set("findings", std::move(findings));
    }

    Value latencies = Value::array();
    for (double l : timed.latency_s)
        latencies.push(l);
    // The schedules the store serves: every layer of the four suites.
    Value net = Value::object();
    Value cycles = Value::array();
    Value energy = Value::array();
    for (const cosa::NetworkResult& suite : warm) {
        for (const cosa::LayerScheduleResult& lr : suite.layers) {
            cycles.push(lr.result.eval.cycles);
            energy.push(lr.result.eval.energy_pj);
        }
    }
    net.set("cycles", std::move(cycles));
    net.set("energy_pj", std::move(energy));

    Value facts = Value::object();
    facts.set("warmup_width", kWarmWidth);
    facts.set("executor_width", kServeWidth);
    facts.set("handler_threads", kHandlers);
    facts.set("clients", kClients);
    facts.set("work_limit", cosa::CosaConfig{}.mip.work_limit);
    facts.set("setup_repeats", repeats);
    facts.set("pool_shapes", static_cast<std::int64_t>(in.pool.size()));
    facts.set("body_pool", static_cast<std::int64_t>(in.bodies.size()));
    facts.set("novel_percent",
              novel_mix ? static_cast<std::int64_t>(100 / kNovelPeriod) : 0);

    report.set("facts", std::move(facts));
    report.set("setup_s", std::move(setup));
    report.set("attempted", total.attempted + replay_attempted);
    report.set("failed",
               std::min(total.attempted, total.failed + body_failures +
                                             unexpected_misses) +
                   replay_failed);
    report.set("checks", std::move(checks));
    report.set("latency_s", std::move(latencies));
    report.set("wall_s", timed.end_sec - loop_start);
    report.set("net", std::move(net));
    daemon->stop();
    return true;
}

} // namespace perfbench
