#include "server/wire.hpp"

#include <cmath>
#include <limits>
#include <set>
#include <type_traits>

#include "common/byte_codec.hpp"
#include "problem/workloads.hpp"

namespace cosa {
namespace server {

namespace {

using json::Value;

// --- strict member reads --------------------------------------------------

/**
 * Strict reads of one JSON object's members: a request never changes a
 * value silently. Every member must be one the reader knows; an absent
 * one keeps the destination's default, and a present one must have the
 * destination's type (an integer must be an integral number within the
 * destination's range). Any other case fails with kInvalidInput naming
 * the member. The first failure sticks, and later reads are no-ops.
 */
class MemberReader
{
  public:
    /** Errors name the object @p what ("request", "layer", "random")
     *  and the member: `what key "k" must be ...`. */
    MemberReader(const Value& object, std::string what,
                 const std::set<std::string>& known)
        : object_(object), what_(std::move(what))
    {
        if (!object.isObject()) {
            status_ = Status{ErrorCode::kInvalidInput,
                             "\"" + what_ + "\" must be an object"};
            return;
        }
        for (const auto& [key, value] : object.members()) {
            if (!known.count(key)) {
                status_ = Status{ErrorCode::kInvalidInput,
                                 "unknown " + what_ + " key \"" + key +
                                     "\""};
                return;
            }
        }
    }

    /** An integral number in [lo, hi]. */
    void
    read(std::string_view key, std::int64_t lo, std::int64_t hi,
         std::int64_t* out)
    {
        const Value* v = member(key);
        if (!v)
            return;
        std::int64_t value = 0;
        bool integral = v->isInt();
        if (integral) {
            value = v->asInt();
        } else if (v->isDouble()) {
            // 2^63 is exact as a double; NaN and the infinities fail.
            constexpr double kTwo63 = 9223372036854775808.0;
            const double d = v->asDouble();
            integral = d == std::trunc(d) && d >= -kTwo63 && d < kTwo63;
            if (integral)
                value = static_cast<std::int64_t>(d);
        }
        if (!integral || value < lo || value > hi)
            return fail(key,
                        "an integer in [" + std::to_string(lo) + ", " +
                            std::to_string(hi) + "]",
                        *v);
        *out = value;
    }

    /** An integer over the range of @p out's type (an unsigned one from
     *  0 up to the largest int64). */
    template <typename Int>
        requires(std::is_integral_v<Int> && !std::is_same_v<Int, bool>)
    void
    read(std::string_view key, Int* out)
    {
        constexpr std::int64_t lo =
            std::is_signed_v<Int> ? std::numeric_limits<Int>::min() : 0;
        constexpr std::int64_t hi = static_cast<std::int64_t>(
            std::min<std::uint64_t>(std::numeric_limits<Int>::max(),
                                    std::numeric_limits<std::int64_t>::max()));
        auto value = static_cast<std::int64_t>(*out);
        read(key, lo, hi, &value);
        *out = static_cast<Int>(value);
    }

    void
    read(std::string_view key, double* out)
    {
        if (const Value* v = member(key))
            v->isNumber() ? void(*out = v->asDouble())
                          : fail(key, "a number", *v);
    }

    void
    read(std::string_view key, bool* out)
    {
        if (const Value* v = member(key))
            v->isBool() ? void(*out = v->asBool())
                        : fail(key, "true or false", *v);
    }

    void
    read(std::string_view key, std::string* out)
    {
        if (const Value* v = member(key))
            v->isString() ? void(*out = v->asString())
                          : fail(key, "a string", *v);
    }

    const Status& status() const { return status_; }

  private:
    const Value*
    member(std::string_view key) const
    {
        return status_.ok() ? object_.find(key) : nullptr;
    }

    void
    fail(std::string_view key, const std::string& expected, const Value& got)
    {
        status_ = Status{ErrorCode::kInvalidInput,
                         what_ + " key \"" + std::string(key) +
                             "\" must be " + expected + ", got " +
                             got.dump()};
    }

    const Value& object_;
    std::string what_;
    Status status_;
};

StatusOr<LayerSpec>
layerFromJson(const Value& item)
{
    if (item.isString()) // paper label convention R_P_C_K_Stride
        return LayerSpec::parseLabel(item.asString());
    if (!item.isObject())
        return Status{ErrorCode::kInvalidInput,
                      "layer must be a label string or an object"};
    LayerSpec layer;
    MemberReader in(item, "layer",
                    {"name", "r", "s", "p", "q", "c", "k", "n", "stride"});
    in.read("name", &layer.name);
    // Every bound and the stride lie in [1, kMaxBound]; S and Q default
    // to R and P. checkBounds() then guards the products.
    auto bound = [&](std::string_view key, std::int64_t* field) {
        in.read(key, 1, LayerSpec::kMaxBound, field);
    };
    bound("r", &layer.r);
    layer.s = layer.r;
    bound("s", &layer.s);
    bound("p", &layer.p);
    layer.q = layer.p;
    bound("q", &layer.q);
    bound("c", &layer.c);
    bound("k", &layer.k);
    bound("n", &layer.n);
    bound("stride", &layer.stride);
    if (!in.status().ok())
        return in.status();
    if (layer.name.empty())
        layer.name = layer.label();
    if (Status bounds = layer.checkBounds(); !bounds.ok())
        return bounds;
    return layer;
}

StatusOr<Workload>
workloadFromJson(const Value& v)
{
    if (v.isString()) {
        const std::string& name = v.asString();
        if (name == "alexnet")
            return workloads::alexNet();
        if (name == "resnet50")
            return workloads::resNet50();
        if (name == "resnet50full")
            return workloads::resNet50Full();
        if (name == "resnext50")
            return workloads::resNeXt50();
        if (name == "deepbench")
            return workloads::deepBench();
        return Status{ErrorCode::kInvalidInput,
                      "unknown workload \"" + name +
                          "\" (expected alexnet, resnet50, resnet50full, "
                          "resnext50, deepbench, or an inline object)"};
    }
    if (!v.isObject())
        return Status{ErrorCode::kInvalidInput,
                      "workload must be a name or an object"};
    Workload net;
    net.name = "inline";
    MemberReader in(v, "workload", {"name", "layers"});
    in.read("name", &net.name);
    if (!in.status().ok())
        return in.status();
    const Value* layers = v.find("layers");
    if (!layers || !layers->isArray() || layers->size() == 0)
        return Status{ErrorCode::kInvalidInput,
                      "inline workload \"" + net.name +
                          "\" needs a non-empty \"layers\" array"};
    for (const Value& item : layers->items()) {
        StatusOr<LayerSpec> layer = layerFromJson(item);
        if (!layer.ok())
            return layer.status();
        net.layers.push_back(std::move(layer).value());
    }
    return net;
}

StatusOr<ArchSpec>
archFromJson(const Value& v)
{
    if (!v.isString())
        return Status{ErrorCode::kInvalidInput,
                      "\"arch\" must be a name string"};
    const std::string& name = v.asString();
    if (name == "simba" || name == "simba-baseline")
        return ArchSpec::simbaBaseline();
    if (name == "simba8x8")
        return ArchSpec::simba8x8();
    if (name == "simba-big-buffers")
        return ArchSpec::simbaBigBuffers();
    return Status{ErrorCode::kInvalidInput,
                  "unknown arch \"" + name +
                      "\" (expected simba, simba8x8, simba-big-buffers)"};
}

const std::set<std::string>&
knownRequestKeys()
{
    static const std::set<std::string> keys = {
        "workloads",  "arch",         "scheduler",
        "objective",  "priority",     "weight",
        "deadline_sec", "max_parallelism", "max_solve_retries",
        "deduplicate", "use_cache",   "warm_start_hints",
        "tag",        "tenant",       "random",
        "hybrid",
    };
    return keys;
}

} // namespace

StatusOr<ScheduleRequest>
requestFromJson(const Value& body, const std::string& tenant)
{
    if (!body.isObject())
        return Status{ErrorCode::kInvalidInput,
                      "request body must be a JSON object"};
    MemberReader in(body, "request", knownRequestKeys());
    if (!in.status().ok())
        return in.status();

    ScheduleRequest request;
    const Value* nets = body.find("workloads");
    if (!nets || !nets->isArray() || nets->size() == 0)
        return Status{ErrorCode::kInvalidInput,
                      "request needs a non-empty \"workloads\" array"};
    for (const Value& net : nets->items()) {
        StatusOr<Workload> parsed = workloadFromJson(net);
        if (!parsed.ok())
            return parsed.status();
        request.workloads.push_back(std::move(parsed).value());
    }

    const Value* arch = body.find("arch");
    if (!arch)
        return Status{ErrorCode::kInvalidInput,
                      "request needs an \"arch\" name"};
    StatusOr<ArchSpec> parsed_arch = archFromJson(*arch);
    if (!parsed_arch.ok())
        return parsed_arch.status();
    request.arch = std::move(parsed_arch).value();

    std::string scheduler = "cosa";
    std::string objective = "latency";
    std::string priority = "normal";
    in.read("scheduler", &scheduler);
    in.read("objective", &objective);
    in.read("priority", &priority);
    in.read("weight", &request.weight);
    in.read("deadline_sec", &request.deadline_sec);
    in.read("max_parallelism", &request.max_parallelism);
    in.read("max_solve_retries", &request.max_solve_retries);
    in.read("deduplicate", &request.deduplicate);
    in.read("use_cache", &request.use_cache);
    in.read("warm_start_hints", &request.warm_start_hints);
    in.read("tag", &request.tag);
    in.read("tenant", &request.tenant);
    if (!in.status().ok())
        return in.status();
    if (!tenant.empty())
        request.tenant = tenant;

    if (scheduler == "cosa")
        request.scheduler = SchedulerKind::Cosa;
    else if (scheduler == "random")
        request.scheduler = SchedulerKind::Random;
    else if (scheduler == "hybrid")
        request.scheduler = SchedulerKind::Hybrid;
    else
        return Status{ErrorCode::kInvalidInput,
                      "unknown scheduler \"" + scheduler + "\""};

    if (objective == "latency")
        request.objective = SearchObjective::Latency;
    else if (objective == "energy")
        request.objective = SearchObjective::Energy;
    else if (objective == "edp")
        request.objective = SearchObjective::Edp;
    else
        return Status{ErrorCode::kInvalidInput,
                      "unknown objective \"" + objective + "\""};

    if (!parseJobPriority(priority, &request.priority))
        return Status{ErrorCode::kInvalidInput,
                      "unknown priority \"" + priority +
                          "\" (expected interactive, normal, batch)"};

    if (!(request.weight > 0.0))
        return Status{ErrorCode::kInvalidInput,
                      "\"weight\" must be > 0"};

    if (const Value* random = body.find("random")) {
        MemberReader tunables(*random, "random",
                              {"max_samples", "target_valid", "seed"});
        tunables.read("max_samples", &request.random.max_samples);
        tunables.read("target_valid", &request.random.target_valid);
        tunables.read("seed", &request.random.seed);
        if (!tunables.status().ok())
            return tunables.status();
    }
    if (const Value* hybrid = body.find("hybrid")) {
        MemberReader tunables(*hybrid, "hybrid",
                              {"num_threads", "victory_condition",
                               "max_samples_per_thread", "seed"});
        tunables.read("num_threads", &request.hybrid.num_threads);
        tunables.read("victory_condition",
                      &request.hybrid.victory_condition);
        tunables.read("max_samples_per_thread",
                      &request.hybrid.max_samples_per_thread);
        tunables.read("seed", &request.hybrid.seed);
        if (!tunables.status().ok())
            return tunables.status();
        if (Status threads = request.hybrid.checkBounds(); !threads.ok())
            return threads;
    }
    return request;
}

namespace {

Value
mappingToJson(const Mapping& mapping)
{
    Value levels = Value::array();
    for (const auto& level : mapping.levels) {
        Value loops = Value::array();
        for (const Loop& loop : level) {
            Value l = Value::object();
            l.set("dim", dimName(loop.dim));
            l.set("bound", loop.bound);
            l.set("spatial", loop.spatial);
            loops.push(std::move(l));
        }
        levels.push(std::move(loops));
    }
    return levels;
}

Value
layerToJson(const LayerSpec& layer)
{
    Value v = Value::object();
    v.set("name", layer.name);
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

Value
layerResultToJson(const LayerScheduleResult& lr)
{
    Value v = Value::object();
    v.set("layer", layerToJson(lr.layer));
    v.set("found", lr.result.found);
    v.set("deduplicated", lr.deduplicated);
    v.set("cancelled", lr.cancelled);
    v.set("unique_index", lr.unique_index);
    v.set("outcome", layerOutcomeName(lr.outcome));
    v.set("solve_retries", lr.solve_retries);
    if (!lr.fallback_stage.empty())
        v.set("fallback_stage", lr.fallback_stage);
    if (!lr.result.status.ok()) {
        Value status = Value::object();
        status.set("code", errorCodeName(lr.result.status.code()));
        status.set("message", lr.result.status.message());
        v.set("status", std::move(status));
    }
    if (lr.result.found) {
        v.set("scheduler", lr.result.scheduler);
        Value eval = Value::object();
        eval.set("cycles", lr.result.eval.cycles);
        eval.set("energy_pj", lr.result.eval.energy_pj);
        eval.set("compute_cycles", lr.result.eval.compute_cycles);
        eval.set("memory_cycles", lr.result.eval.memory_cycles);
        eval.set("noc_bytes", lr.result.eval.noc_bytes);
        eval.set("dram_bytes", lr.result.eval.dram_bytes);
        eval.set("spatial_utilization",
                 lr.result.eval.spatial_utilization);
        v.set("eval", std::move(eval));
        v.set("mapping", mappingToJson(lr.result.mapping));
    }
    return v;
}

} // namespace

json::Value
resultsToJson(const std::vector<NetworkResult>& results)
{
    Value arr = Value::array();
    for (const NetworkResult& net : results) {
        Value v = Value::object();
        v.set("network", net.network);
        v.set("arch", net.arch);
        v.set("scheduler", net.scheduler);
        v.set("all_found", net.all_found);
        v.set("cancelled", net.cancelled);
        v.set("deadline_expired", net.deadline_expired);
        v.set("total_cycles", net.total_cycles);
        v.set("total_energy_pj", net.total_energy_pj);
        v.set("edp", net.edp());
        v.set("num_layers", net.num_layers);
        v.set("num_unique", net.num_unique);
        v.set("num_cancelled", net.num_cancelled);
        v.set("num_degraded", net.num_degraded);
        v.set("num_failed", net.num_failed);
        // Cache/warm-start provenance and search-effort counters live in
        // provenanceToJson(): they flip between a cold solve and a warm
        // cache hit, and these bytes must not.
        Value layers = Value::array();
        for (const LayerScheduleResult& lr : net.layers)
            layers.push(layerResultToJson(lr));
        v.set("layers", std::move(layers));
        arr.push(std::move(v));
    }
    return arr;
}

json::Value
provenanceToJson(const std::vector<NetworkResult>& results)
{
    Value arr = Value::array();
    for (const NetworkResult& net : results) {
        Value v = Value::object();
        v.set("network", net.network);
        v.set("num_solved", net.num_solved);
        v.set("num_cache_hits", net.num_cache_hits);
        v.set("num_warm_hints", net.num_warm_hints);
        v.set("num_warm_hits", net.num_warm_hits);
        // Deterministic search counters (wall times and solver phase
        // timings stay off the wire entirely).
        Value search = Value::object();
        search.set("samples", net.search.samples);
        search.set("valid_evaluated", net.search.valid_evaluated);
        search.set("mip_nodes", net.search.mip_nodes);
        search.set("lp_iterations", net.search.lp_iterations);
        v.set("search", std::move(search));
        Value cached = Value::array();
        for (std::size_t l = 0; l < net.layers.size(); ++l) {
            if (net.layers[l].from_cache)
                cached.push(static_cast<std::int64_t>(l));
        }
        v.set("cached_layers", std::move(cached));
        arr.push(std::move(v));
    }
    return arr;
}

std::string
progressEventLine(const JobProgress& event)
{
    Value v = Value::object();
    v.set("completed", event.completed);
    v.set("total", event.total);
    v.set("unique_index", event.unique_index);
    v.set("layer", event.layer);
    v.set("from_cache", event.from_cache);
    v.set("found", event.found);
    v.set("wall_time_sec", event.wall_time_sec);
    return v.dump() + "\n";
}

// --- finished-job record -----------------------------------------------
//
// What cosad keeps of a finished job: its progress-event log (length
// prefixed), then per network exactly the fields resultsToJson() and
// provenanceToJson() read, in the codec of common/byte_codec.hpp. A
// layer's scheduler, eval and mapping are kept only when it was found,
// because only then are they rendered. The record lives only in memory,
// so it carries no version: a change to a renderer changes the record
// in the same commit, and the round-trip tests in test_wire.cpp pin the
// two together.

namespace {

Status
malformedRecord()
{
    return Status{ErrorCode::kInternal, "malformed finished-job record"};
}

void
encodeLayer(std::string& out, const LayerScheduleResult& lr)
{
    const LayerSpec& l = lr.layer;
    codec::putString(out, l.name);
    for (std::int64_t v : {l.r, l.s, l.p, l.q, l.c, l.k, l.n, l.stride})
        codec::putI64(out, v);
    const SearchResult& r = lr.result;
    const bool has_status = !r.status.ok();
    out.push_back(static_cast<char>(r.found | lr.deduplicated << 1 |
                                    lr.cancelled << 2 | lr.from_cache << 3 |
                                    has_status << 4));
    codec::putI64(out, lr.unique_index);
    out.push_back(static_cast<char>(lr.outcome));
    codec::putI64(out, lr.solve_retries);
    codec::putString(out, lr.fallback_stage);
    if (has_status) {
        codec::putVarint(out, static_cast<std::uint64_t>(r.status.code()));
        codec::putString(out, r.status.message());
    }
    if (!r.found)
        return;
    codec::putString(out, r.scheduler);
    const Evaluation& e = r.eval;
    for (double v : {e.cycles, e.energy_pj, e.compute_cycles, e.memory_cycles,
                     e.noc_bytes, e.dram_bytes, e.spatial_utilization})
        codec::putDouble(out, v);
    codec::putVarint(out, r.mapping.levels.size());
    for (const std::vector<Loop>& level : r.mapping.levels) {
        codec::putVarint(out, level.size());
        for (const Loop& loop : level) {
            codec::putVarint(out, static_cast<std::uint64_t>(loop.dim) << 1 |
                                      loop.spatial);
            codec::putI64(out, loop.bound);
        }
    }
}

/** One layer; false on a malformed record. */
bool
decodeLayer(codec::Cursor& in, LayerScheduleResult* lr)
{
    LayerSpec& l = lr->layer;
    l.name = in.str();
    for (std::int64_t* v : {&l.r, &l.s, &l.p, &l.q, &l.c, &l.k, &l.n,
                            &l.stride})
        *v = in.i64();
    SearchResult& r = lr->result;
    const std::uint8_t flags = in.u8();
    r.found = flags & 1;
    lr->deduplicated = flags & 2;
    lr->cancelled = flags & 4;
    lr->from_cache = flags & 8;
    lr->unique_index = static_cast<int>(in.i64());
    const std::uint8_t outcome = in.u8();
    if (outcome > static_cast<std::uint8_t>(LayerOutcome::kFailed))
        return false;
    lr->outcome = static_cast<LayerOutcome>(outcome);
    lr->solve_retries = static_cast<int>(in.i64());
    lr->fallback_stage = in.str();
    if (flags & 16) {
        const std::uint64_t code = in.varint();
        if (code == 0 ||
            code > static_cast<std::uint64_t>(ErrorCode::kInternal))
            return false;
        r.status = Status{static_cast<ErrorCode>(code), in.str()};
    }
    if (!r.found)
        return in.ok;
    r.scheduler = in.str();
    Evaluation& e = r.eval;
    for (double* v : {&e.cycles, &e.energy_pj, &e.compute_cycles,
                      &e.memory_cycles, &e.noc_bytes, &e.dram_bytes,
                      &e.spatial_utilization})
        *v = in.f64();
    // Every level and loop takes at least a byte, so a count beyond the
    // bytes left is corruption, not a reason to allocate.
    const std::uint64_t num_levels = in.varint();
    if (!in.ok || num_levels > in.size - in.pos)
        return false;
    r.mapping.levels.resize(num_levels);
    for (std::vector<Loop>& level : r.mapping.levels) {
        const std::uint64_t num_loops = in.varint();
        if (!in.ok || num_loops > in.size - in.pos)
            return false;
        level.resize(num_loops);
        for (Loop& loop : level) {
            const std::uint64_t dim = in.varint();
            if ((dim >> 1) >= static_cast<std::uint64_t>(kNumDims))
                return false;
            loop.dim = static_cast<Dim>(dim >> 1);
            loop.spatial = dim & 1;
            loop.bound = in.i64();
        }
    }
    return in.ok;
}

/** A cursor past the event log of @p record (whose size it checks). */
codec::Cursor
afterEventLog(std::string_view record, std::string_view* log)
{
    codec::Cursor in(record);
    const std::uint64_t size = in.varint();
    const unsigned char* bytes = nullptr;
    if (in.ok && size <= in.size - in.pos && in.take(size, &bytes))
        *log = std::string_view(reinterpret_cast<const char*>(bytes), size);
    else
        in.ok = false;
    return in;
}

} // namespace

void
appendEventRecord(std::string& log, const JobProgress& event)
{
    codec::putI64(log, event.completed);
    codec::putI64(log, event.total);
    codec::putI64(log, event.unique_index);
    codec::putString(log, event.layer);
    log.push_back(static_cast<char>(event.from_cache | event.found << 1));
    codec::putDouble(log, event.wall_time_sec);
}

std::string
encodeJobRecord(const std::vector<NetworkResult>& results,
                std::string_view event_log)
{
    std::string out;
    codec::putString(out, event_log);
    codec::putVarint(out, results.size());
    for (const NetworkResult& net : results) {
        codec::putString(out, net.network);
        codec::putString(out, net.arch);
        codec::putString(out, net.scheduler);
        out.push_back(static_cast<char>(
            net.all_found | net.cancelled << 1 | net.deadline_expired << 2));
        codec::putDouble(out, net.total_cycles);
        codec::putDouble(out, net.total_energy_pj);
        for (std::int64_t v :
             {net.num_layers, net.num_unique, net.num_cancelled,
              net.num_degraded, net.num_failed, net.num_solved,
              net.num_cache_hits, net.num_warm_hints, net.num_warm_hits,
              net.search.samples, net.search.valid_evaluated,
              net.search.mip_nodes, net.search.lp_iterations})
            codec::putI64(out, v);
        codec::putVarint(out, net.layers.size());
        for (const LayerScheduleResult& lr : net.layers)
            encodeLayer(out, lr);
    }
    out.shrink_to_fit();
    return out;
}

StatusOr<std::vector<NetworkResult>>
decodeRecordResults(std::string_view record)
{
    std::string_view log;
    codec::Cursor in = afterEventLog(record, &log);
    const std::uint64_t num_networks = in.varint();
    if (!in.ok || num_networks > in.size - in.pos)
        return malformedRecord();
    std::vector<NetworkResult> results(num_networks);
    for (NetworkResult& net : results) {
        net.network = in.str();
        net.arch = in.str();
        net.scheduler = in.str();
        const std::uint8_t flags = in.u8();
        net.all_found = flags & 1;
        net.cancelled = flags & 2;
        net.deadline_expired = flags & 4;
        net.total_cycles = in.f64();
        net.total_energy_pj = in.f64();
        for (std::int64_t* v :
             {&net.num_layers, &net.num_unique, &net.num_cancelled,
              &net.num_degraded, &net.num_failed, &net.num_solved,
              &net.num_cache_hits, &net.num_warm_hints, &net.num_warm_hits,
              &net.search.samples, &net.search.valid_evaluated,
              &net.search.mip_nodes, &net.search.lp_iterations})
            *v = in.i64();
        const std::uint64_t num_layers = in.varint();
        if (!in.ok || num_layers > in.size - in.pos)
            return malformedRecord();
        net.layers.resize(num_layers);
        for (LayerScheduleResult& lr : net.layers) {
            if (!decodeLayer(in, &lr))
                return malformedRecord();
        }
    }
    if (!in.ok || in.pos != in.size)
        return malformedRecord();
    return results;
}

StatusOr<std::vector<JobProgress>>
decodeRecordEvents(std::string_view record)
{
    std::string_view log;
    if (!afterEventLog(record, &log).ok)
        return malformedRecord();
    codec::Cursor in(log);
    std::vector<JobProgress> events;
    while (in.ok && in.pos < in.size) {
        JobProgress& event = events.emplace_back();
        event.completed = in.i64();
        event.total = in.i64();
        event.unique_index = static_cast<int>(in.i64());
        event.layer = in.str();
        const std::uint8_t flags = in.u8();
        event.from_cache = flags & 1;
        event.found = flags & 2;
        event.wall_time_sec = in.f64();
    }
    if (!in.ok)
        return malformedRecord();
    return events;
}

std::string
errorBody(ErrorCode code, const std::string& message)
{
    return errorBody(std::string(errorCodeName(code)), message);
}

std::string
errorBody(const std::string& code, const std::string& message)
{
    Value v = Value::object();
    Value error = Value::object();
    error.set("code", code);
    error.set("message", message);
    v.set("error", std::move(error));
    return v.dump();
}

} // namespace server
} // namespace cosa
