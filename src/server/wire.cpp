#include "server/wire.hpp"

#include <set>

#include "problem/workloads.hpp"

namespace cosa {
namespace server {

namespace {

using json::Value;

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
    net.name = v.getString("name", "inline");
    const Value* layers = v.find("layers");
    if (!layers || !layers->isArray() || layers->size() == 0)
        return Status{ErrorCode::kInvalidInput,
                      "inline workload \"" + net.name +
                          "\" needs a non-empty \"layers\" array"};
    for (const Value& item : layers->items()) {
        if (item.isString()) {
            // Paper label convention R_P_C_K_Stride.
            StatusOr<LayerSpec> layer = LayerSpec::parseLabel(item.asString());
            if (!layer.ok())
                return layer.status();
            net.layers.push_back(std::move(layer).value());
            continue;
        }
        if (!item.isObject())
            return Status{ErrorCode::kInvalidInput,
                          "layer must be a label string or an object"};
        LayerSpec layer;
        layer.name = item.getString("name", "");
        layer.r = item.getInt("r", 1);
        layer.s = item.getInt("s", layer.r);
        layer.p = item.getInt("p", 1);
        layer.q = item.getInt("q", layer.p);
        layer.c = item.getInt("c", 1);
        layer.k = item.getInt("k", 1);
        layer.n = item.getInt("n", 1);
        layer.stride = item.getInt("stride", 1);
        if (layer.name.empty())
            layer.name = layer.label();
        if (Status bounds = layer.checkBounds(); !bounds.ok())
            return bounds;
        net.layers.push_back(std::move(layer));
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
        "hybrid",     "exhaustive",
    };
    return keys;
}

/** A scheduler's tunables must be an object of the @p known keys, so a
 *  misspelled tunable fails instead of silently keeping its default. */
Status
checkTunables(const Value& v, const std::string& name,
              const std::set<std::string>& known)
{
    if (!v.isObject())
        return Status{ErrorCode::kInvalidInput,
                      "\"" + name + "\" must be an object"};
    for (const auto& [key, value] : v.members()) {
        if (!known.count(key))
            return Status{ErrorCode::kInvalidInput,
                          "unknown request key \"" + name + "." + key +
                              "\""};
    }
    return Status::Ok();
}

} // namespace

StatusOr<ScheduleRequest>
requestFromJson(const Value& body, const std::string& tenant)
{
    if (!body.isObject())
        return Status{ErrorCode::kInvalidInput,
                      "request body must be a JSON object"};
    for (const auto& [key, value] : body.members()) {
        if (!knownRequestKeys().count(key))
            return Status{ErrorCode::kInvalidInput,
                          "unknown request key \"" + key + "\""};
    }

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

    const std::string scheduler = body.getString("scheduler", "cosa");
    if (scheduler == "cosa")
        request.scheduler = SchedulerKind::Cosa;
    else if (scheduler == "random")
        request.scheduler = SchedulerKind::Random;
    else if (scheduler == "hybrid")
        request.scheduler = SchedulerKind::Hybrid;
    else if (scheduler == "exhaustive")
        request.scheduler = SchedulerKind::Exhaustive;
    else if (scheduler == "portfolio")
        request.scheduler = SchedulerKind::Portfolio;
    else
        return Status{ErrorCode::kInvalidInput,
                      "unknown scheduler \"" + scheduler + "\""};

    const std::string objective = body.getString("objective", "latency");
    if (objective == "latency")
        request.objective = SearchObjective::Latency;
    else if (objective == "energy")
        request.objective = SearchObjective::Energy;
    else if (objective == "edp")
        request.objective = SearchObjective::Edp;
    else
        return Status{ErrorCode::kInvalidInput,
                      "unknown objective \"" + objective + "\""};

    const std::string priority = body.getString("priority", "normal");
    if (!parseJobPriority(priority, &request.priority))
        return Status{ErrorCode::kInvalidInput,
                      "unknown priority \"" + priority +
                          "\" (expected interactive, normal, batch)"};

    request.weight = body.getDouble("weight", 1.0);
    if (!(request.weight > 0.0))
        return Status{ErrorCode::kInvalidInput,
                      "\"weight\" must be > 0"};
    request.deadline_sec = body.getDouble("deadline_sec", 0.0);
    request.max_parallelism = static_cast<int>(
        body.getInt("max_parallelism", 0));
    request.max_solve_retries = static_cast<int>(
        body.getInt("max_solve_retries", request.max_solve_retries));
    request.deduplicate = body.getBool("deduplicate", true);
    request.use_cache = body.getBool("use_cache", true);
    request.warm_start_hints = body.getBool("warm_start_hints", true);
    request.tag = body.getString("tag", "");
    request.tenant = tenant.empty() ? body.getString("tenant", "") : tenant;

    if (const Value* random = body.find("random")) {
        Status checked = checkTunables(
            *random, "random", {"max_samples", "target_valid", "seed"});
        if (!checked.ok())
            return checked;
        request.random.max_samples =
            random->getInt("max_samples", request.random.max_samples);
        request.random.target_valid = static_cast<int>(
            random->getInt("target_valid", request.random.target_valid));
        request.random.seed = static_cast<std::uint64_t>(
            random->getInt("seed",
                           static_cast<std::int64_t>(request.random.seed)));
    }
    if (const Value* hybrid = body.find("hybrid")) {
        Status checked = checkTunables(
            *hybrid, "hybrid",
            {"num_threads", "victory_condition", "max_samples_per_thread",
             "seed"});
        if (!checked.ok())
            return checked;
        request.hybrid.num_threads = static_cast<int>(
            hybrid->getInt("num_threads", request.hybrid.num_threads));
        request.hybrid.victory_condition = static_cast<int>(
            hybrid->getInt("victory_condition",
                           request.hybrid.victory_condition));
        request.hybrid.max_samples_per_thread =
            hybrid->getInt("max_samples_per_thread",
                           request.hybrid.max_samples_per_thread);
        request.hybrid.seed = static_cast<std::uint64_t>(
            hybrid->getInt("seed",
                           static_cast<std::int64_t>(request.hybrid.seed)));
    }
    if (const Value* exhaustive = body.find("exhaustive")) {
        Status checked = checkTunables(*exhaustive, "exhaustive",
                                       {"max_points", "max_perms"});
        if (!checked.ok())
            return checked;
        request.exhaustive.max_points = exhaustive->getInt(
            "max_points", request.exhaustive.max_points);
        request.exhaustive.max_perms = static_cast<int>(
            exhaustive->getInt("max_perms", request.exhaustive.max_perms));
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
        // Cache/warm-start provenance, search-effort counters and
        // portfolio win tallies live in provenanceToJson(): they all
        // flip between a cold solve and a warm cache hit, and these
        // bytes must not.
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
        if (net.scheduler == std::string("Portfolio")) {
            Value wins = Value::object();
            wins.set("cosa", net.portfolio_wins.cosa);
            wins.set("random", net.portfolio_wins.random);
            wins.set("hybrid", net.portfolio_wins.hybrid);
            v.set("portfolio_wins", std::move(wins));
        }
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
