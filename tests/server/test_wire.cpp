#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "engine/scheduler_service.hpp"
#include "server/wire.hpp"

namespace cosa {
namespace server {
namespace {

json::Value
parseBody(const std::string& text)
{
    StatusOr<json::Value> parsed = json::Value::parse(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status().message();
    return parsed.ok() ? std::move(parsed).value() : json::Value();
}

ScheduleRequest
mustDecode(const std::string& text, const std::string& tenant = "")
{
    StatusOr<ScheduleRequest> decoded =
        requestFromJson(parseBody(text), tenant);
    EXPECT_TRUE(decoded.ok()) << decoded.status().message();
    return decoded.ok() ? std::move(decoded).value() : ScheduleRequest();
}

TEST(RequestFromJson, DecodesEveryKnob)
{
    const ScheduleRequest request = mustDecode(R"({
        "workloads": [{"name": "net", "layers": ["3_14_64_64_1"]}],
        "arch": "simba8x8",
        "scheduler": "random",
        "objective": "edp",
        "priority": "batch",
        "weight": 2.5,
        "deadline_sec": 9.0,
        "max_parallelism": 3,
        "deduplicate": false,
        "use_cache": false,
        "warm_start_hints": false,
        "tag": "t1",
        "tenant": "from-body",
        "random": {"max_samples": 50, "target_valid": 50, "seed": 7}
    })");
    ASSERT_EQ(request.workloads.size(), 1u);
    EXPECT_EQ(request.workloads[0].name, "net");
    ASSERT_EQ(request.workloads[0].layers.size(), 1u);
    EXPECT_EQ(request.workloads[0].layers[0].k, 64);
    EXPECT_EQ(request.arch.name, ArchSpec::simba8x8().name);
    EXPECT_EQ(request.scheduler, SchedulerKind::Random);
    EXPECT_EQ(request.objective, SearchObjective::Edp);
    EXPECT_EQ(request.priority, JobPriority::Batch);
    EXPECT_DOUBLE_EQ(request.weight, 2.5);
    EXPECT_DOUBLE_EQ(request.deadline_sec, 9.0);
    EXPECT_EQ(request.max_parallelism, 3);
    EXPECT_FALSE(request.deduplicate);
    EXPECT_FALSE(request.use_cache);
    EXPECT_FALSE(request.warm_start_hints);
    EXPECT_EQ(request.tag, "t1");
    EXPECT_EQ(request.tenant, "from-body");
    EXPECT_EQ(request.random.max_samples, 50);
    EXPECT_EQ(request.random.target_valid, 50);
    EXPECT_EQ(request.random.seed, 7u);
}

TEST(RequestFromJson, AuthTenantOverridesBodyTenant)
{
    const ScheduleRequest request = mustDecode(
        R"({"workloads": ["alexnet"], "arch": "simba",
            "tenant": "impostor"})",
        "alice");
    EXPECT_EQ(request.tenant, "alice");
}

TEST(RequestFromJson, AcceptsNamedWorkloadsAndInlineLayerObjects)
{
    const ScheduleRequest request = mustDecode(R"({
        "workloads": [
            "alexnet",
            {"name": "mine", "layers": [
                {"name": "l0", "r": 3, "s": 3, "p": 14, "q": 14,
                 "c": 64, "k": 128, "n": 1, "stride": 2}]}],
        "arch": "simba"})");
    ASSERT_EQ(request.workloads.size(), 2u);
    EXPECT_FALSE(request.workloads[0].layers.empty());
    ASSERT_EQ(request.workloads[1].layers.size(), 1u);
    const LayerSpec& layer = request.workloads[1].layers[0];
    EXPECT_EQ(layer.c, 64);
    EXPECT_EQ(layer.k, 128);
    EXPECT_EQ(layer.stride, 2);
}

TEST(RequestFromJson, RejectsUnknownTopLevelKey)
{
    StatusOr<ScheduleRequest> decoded = requestFromJson(
        parseBody(R"({"workloads": ["alexnet"], "arch": "simba",
                      "shceduler": "cosa"})"),
        "");
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), ErrorCode::kInvalidInput);
    EXPECT_NE(decoded.status().message().find("shceduler"),
              std::string::npos);
}

TEST(RequestFromJson, RejectsBadInputsWithInvalidInput)
{
    for (const char* bad : {
             R"({"arch": "simba"})",                         // no workloads
             R"({"workloads": [], "arch": "simba"})",        // empty
             R"({"workloads": ["alexnet"]})",                // no arch
             R"({"workloads": ["alexnet"], "arch": "tpu"})", // unknown arch
             R"({"workloads": ["noSuchNet"], "arch": "simba"})",
             R"({"workloads": ["alexnet"], "arch": "simba",
                 "scheduler": "magic"})",
             R"({"workloads": ["alexnet"], "arch": "simba",
                 "scheduler": "portfolio"})",
             R"({"workloads": ["alexnet"], "arch": "simba",
                 "objective": "carbon"})",
             R"({"workloads": ["alexnet"], "arch": "simba",
                 "priority": "urgent"})",
             R"({"workloads": ["alexnet"], "arch": "simba",
                 "weight": -1})",
             R"({"workloads": ["alexnet"], "arch": "simba",
                 "random": {"max_sample": 10, "target_valid": 1}})",
             R"({"workloads": ["alexnet"], "arch": "simba",
                 "random": 5})",
             R"({"workloads": ["alexnet"], "arch": "simba",
                 "hybrid": {"num_thread": 2}})",
             R"({"workloads": ["alexnet"], "arch": "simba",
                 "hybrid": {"max_sample_per_thread": 10}})",
             R"({"workloads": [{"name": "x", "layers": ["3_14_abc_32_1"]}],
                 "arch": "simba"})", // non-numeric field
             R"({"workloads": [{"name": "x", "layers": ["3_14_32"]}],
                 "arch": "simba"})", // three fields
             R"({"workloads": [{"name": "x", "layers": ["3_0_32_32_1"]}],
                 "arch": "simba"})", // zero bound
             R"({"workloads": [{"name": "x", "layers": ["3_14_32_32_0"]}],
                 "arch": "simba"})", // zero stride
             R"({"workloads": [{"name": "x",
                 "layers": [{"r": 3, "p": 0, "c": 8, "k": 8}]}],
                 "arch": "simba"})", // inline zero bound
             R"({"workloads": [{"name": "x", "layers": [{"stride": 0}]}],
                 "arch": "simba"})", // inline zero stride
             R"({"workloads": [{"name": "x", "layers":
                 [{"r": 3, "p": 7, "c": 9223372036854775783, "k": 8}]}],
                 "arch": "simba"})", // inline bound above 2^31 - 1
             R"({"workloads": [{"name": "x",
                 "layers": ["65536_65536_1_1_1"]}],
                 "arch": "simba"})", // MAC count overflows int64
             R"([1,2,3])",
         }) {
        StatusOr<ScheduleRequest> decoded =
            requestFromJson(parseBody(bad), "");
        EXPECT_FALSE(decoded.ok()) << "accepted: " << bad;
        if (!decoded.ok())
            EXPECT_EQ(decoded.status().code(), ErrorCode::kInvalidInput);
    }

    // A value never changes silently: a member of the wrong type, a
    // non-integral or out-of-range integer, an unknown key and an
    // unbounded Hybrid thread count each fail, naming the member.
    const auto layer = [](const std::string& members) {
        return R"({"workloads": [{"name": "x", "layers": [)" + members +
               R"(]}], "arch": "simba"})";
    };
    const auto knob = [](const std::string& members) {
        return R"({"workloads": ["alexnet"], "arch": "simba", )" + members +
               "}";
    };
    const std::pair<std::string, std::string> named[] = {
        {layer(R"({"r": 3, "p": 7, "c": "64", "k": 8})"),
         "layer key \"c\""},
        {layer(R"({"r": 3, "p": 7, "C": 64, "k": 8.9})"),
         "unknown layer key \"C\""},
        {layer(R"({"r": 3, "p": 7, "c": 64, "k": 8.9})"),
         "layer key \"k\""},
        {layer(R"({"r": 3, "p": 7, "c": 1e300, "k": 8})"),
         "layer key \"c\""},
        {layer(R"({"r": 3, "p": 7, "c": 2147483648, "k": 8})"),
         "layer key \"c\""},
        {layer(R"({"name": 5, "r": 3})"), "layer key \"name\""},
        {R"({"workloads": [{"name": "x", "layers": ["1_7_8_8_1"],
              "batch": 4}], "arch": "simba"})",
         "unknown workload key \"batch\""},
        {R"({"workloads": [{"name": 7, "layers": ["1_7_8_8_1"]}],
              "arch": "simba"})",
         "workload key \"name\""},
        {knob(R"("random": {"target_valid": 10.7})"),
         "random key \"target_valid\""},
        {knob(R"("random": {"target_valid": 2147483648})"),
         "random key \"target_valid\""},
        {knob(R"("random": {"seed": -1})"), "random key \"seed\""},
        {knob(R"("random": {"max_samples": 9223372036854775808})"),
         "random key \"max_samples\""},
        {knob(R"("hybrid": {"victory_condition": -2147483649})"),
         "hybrid key \"victory_condition\""},
        {knob(R"("max_parallelism": 2147483648)"),
         "request key \"max_parallelism\""},
        {knob(R"("max_solve_retries": 1.5)"),
         "request key \"max_solve_retries\""},
        {knob(R"("hybrid": {"victory_condition": "500"})"),
         "hybrid key \"victory_condition\""},
        {knob(R"("hybrid": {"num_threads": 0})"), "num_threads"},
        {knob(R"("hybrid": {"num_threads": 65})"), "num_threads"},
        {knob(R"("hybrid": {"num_threads": 1000000})"), "num_threads"},
        {knob(R"("deduplicate": "false")"), "request key \"deduplicate\""},
        {knob(R"("weight": "2")"), "request key \"weight\""},
        {knob(R"("deadline_sec": true)"), "request key \"deadline_sec\""},
        {knob(R"("tag": 5)"), "request key \"tag\""},
        {knob(R"("scheduler": 5)"), "request key \"scheduler\""},
        {knob(R"("scheduler": "exhaustive")"),
         "unknown scheduler \"exhaustive\""},
    };
    for (const auto& [bad, key] : named) {
        StatusOr<ScheduleRequest> decoded =
            requestFromJson(parseBody(bad), "");
        ASSERT_FALSE(decoded.ok()) << "accepted: " << bad;
        EXPECT_EQ(decoded.status().code(), ErrorCode::kInvalidInput) << bad;
        EXPECT_NE(decoded.status().message().find(key), std::string::npos)
            << decoded.status().message() << " does not name " << key;
    }
}

TEST(RequestFromJson, AcceptsIntegralNumbersInRange)
{
    const ScheduleRequest request = mustDecode(R"({
        "workloads": [{"name": "x", "layers":
            [{"r": 3, "p": 7, "c": 64.0, "k": 2147483647, "stride": 1e0}]}],
        "arch": "simba",
        "max_parallelism": 2147483647,
        "random": {"seed": 9223372036854775807, "target_valid": 5.0},
        "hybrid": {"num_threads": 64}})");
    ASSERT_EQ(request.workloads.size(), 1u);
    const LayerSpec& layer = request.workloads[0].layers.at(0);
    EXPECT_EQ(layer.c, 64);
    EXPECT_EQ(layer.k, 2147483647);
    EXPECT_EQ(layer.stride, 1);
    EXPECT_EQ(layer.s, 3);
    EXPECT_EQ(layer.q, 7);
    EXPECT_EQ(request.max_parallelism, 2147483647);
    EXPECT_EQ(request.random.seed, 9223372036854775807u);
    EXPECT_EQ(request.random.target_valid, 5);
    EXPECT_EQ(request.hybrid.num_threads, kMaxHybridThreads);
}

TEST(ResultsToJson, IsByteIdenticalAcrossRunsAndThreadCounts)
{
    const std::string body = R"({
        "workloads": [{"name": "w", "layers":
            ["3_14_32_32_1", "1_7_32_48_1", "3_14_32_32_1"]}],
        "arch": "simba",
        "scheduler": "random",
        "random": {"max_samples": 40, "target_valid": 40, "seed": 11}})";

    std::string bytes[2];
    const int threads[2] = {1, 4};
    for (int run = 0; run < 2; ++run) {
        ServiceConfig config;
        config.num_threads = threads[run];
        SchedulerService service{config};
        SubmitResult submitted =
            service.submit(mustDecode(body));
        ASSERT_TRUE(submitted.accepted());
        bytes[run] = resultsToJson(submitted.takeJob().wait()).dump();
    }
    EXPECT_FALSE(bytes[0].empty());
    EXPECT_EQ(bytes[0], bytes[1])
        << "canonical result bytes must not depend on executor width";
}

TEST(ResultsToJson, OmitsWallClockAndProvenance)
{
    SchedulerService service{ServiceConfig{}};
    SubmitResult submitted = service.submit(mustDecode(
        R"({"workloads": [{"name": "w", "layers": ["3_14_32_32_1"]}],
            "arch": "simba", "scheduler": "random",
            "random": {"max_samples": 20, "target_valid": 20}})"));
    ASSERT_TRUE(submitted.accepted());
    const std::vector<NetworkResult> results = submitted.takeJob().wait();
    const std::string bytes = resultsToJson(results).dump();
    EXPECT_EQ(bytes.find("wall_time"), std::string::npos);
    EXPECT_EQ(bytes.find("search_time"), std::string::npos);
    // Provenance (cache/warm accounting, search effort) must never
    // touch the canonical bytes — it flips cold vs warm runs and would
    // break the CI cold-vs-warm `cmp`.
    EXPECT_EQ(bytes.find("from_cache"), std::string::npos);
    EXPECT_EQ(bytes.find("num_cache_hits"), std::string::npos);
    EXPECT_EQ(bytes.find("\"samples\""), std::string::npos);
    EXPECT_NE(bytes.find("\"total_cycles\""), std::string::npos);
    EXPECT_NE(bytes.find("\"mapping\""), std::string::npos);
    // The segregated provenance body carries those counters instead.
    const std::string provenance = provenanceToJson(results).dump();
    EXPECT_NE(provenance.find("num_cache_hits"), std::string::npos);
    EXPECT_NE(provenance.find("\"samples\""), std::string::npos);
    EXPECT_NE(provenance.find("cached_layers"), std::string::npos);
    // Parse-then-redump must preserve the bytes (what `cosactl result`
    // relies on to keep the CI diff byte-exact).
    StatusOr<json::Value> reparsed = json::Value::parse(bytes);
    ASSERT_TRUE(reparsed.ok());
    EXPECT_EQ(reparsed.value().dump(), bytes);
}

/** Raw bits, so NaN, the infinities and -0.0 compare exactly. */
std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/** Two networks with every field the renderers read set away from its
 *  default: each outcome, a failed status with a message, a fallback
 *  stage, cancellation and deadline flags, a layer not found (empty
 *  mapping) and NaN, infinite and negative-zero doubles. */
std::vector<NetworkResult>
syntheticResults()
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();

    NetworkResult a;
    a.network = "net-a";
    a.arch = "simba \"x\"";
    a.scheduler = "TimeloopHybrid";
    a.all_found = false;
    a.cancelled = true;
    a.deadline_expired = true;
    a.total_cycles = nan;
    a.total_energy_pj = -0.0;
    a.num_layers = 3;
    a.num_unique = 2;
    a.num_cancelled = 1;
    a.num_degraded = 1;
    a.num_failed = 1;
    a.num_solved = 5;
    a.num_cache_hits = 6;
    a.num_warm_hints = 7;
    a.num_warm_hits = 8;
    a.search.samples = 9;
    a.search.valid_evaluated = 10;
    a.search.mip_nodes = 11;
    a.search.lp_iterations = std::int64_t{1} << 40;

    LayerScheduleResult degraded;
    degraded.layer = {"conv-0", 3, 1, 14, 12, 64, 2147483647, 2, 2};
    degraded.result.found = true;
    degraded.result.scheduler = "Greedy[fallback]";
    degraded.result.eval.cycles = inf;
    degraded.result.eval.energy_pj = 4.9e-324;
    degraded.result.eval.compute_cycles = 123456789.25;
    degraded.result.eval.memory_cycles = -0.0;
    degraded.result.eval.noc_bytes = nan;
    degraded.result.eval.dram_bytes = -inf;
    degraded.result.eval.spatial_utilization = 0.1;
    degraded.result.mapping.levels = {
        {{Dim::K, 16, true}, {Dim::C, 4, false}},
        {},
        {{Dim::P, 2147483647, false}, {Dim::N, 1, true},
         {Dim::R, 3, false}}};
    degraded.deduplicated = true;
    degraded.from_cache = true;
    degraded.unique_index = 1;
    degraded.outcome = LayerOutcome::kDegradedFallback;
    degraded.solve_retries = 2;
    degraded.fallback_stage = "greedy";

    LayerScheduleResult failed;
    failed.layer = {"fc", 1, 1, 1, 1, 4096, 1000, 1, 1};
    failed.result.scheduler = "never rendered";
    failed.result.status = {ErrorCode::kNumericFailure,
                            "lost \"feasibility\"\n"};
    failed.unique_index = 0;
    failed.outcome = LayerOutcome::kFailed;
    failed.solve_retries = 3;

    LayerScheduleResult cancelled;
    cancelled.layer = {"skipped", 5, 5, 7, 7, 3, 3, 1, 1};
    cancelled.cancelled = true;
    cancelled.result.status = {ErrorCode::kCancelled, "cancelled"};
    cancelled.unique_index = -1;
    a.layers = {degraded, failed, cancelled};

    NetworkResult b;
    b.network = "";
    b.arch = "simba";
    b.scheduler = "CoSA";
    b.total_cycles = 1e300;
    b.total_energy_pj = 0.5;
    b.num_layers = 1;
    b.num_unique = 1;
    LayerScheduleResult optimal;
    optimal.layer = {"", 1, 1, 7, 7, 32, 16, 1, 1};
    optimal.result.found = true;
    optimal.result.scheduler = "CoSA";
    optimal.result.eval.cycles = 1024.0;
    optimal.result.eval.spatial_utilization = 1.0;
    optimal.result.mapping.levels = {{{Dim::Q, 7, false}}};
    b.layers = {optimal};
    return {a, b};
}

TEST(JobRecord, RoundTripRendersTheSameBytes)
{
    const std::vector<NetworkResult> results = syntheticResults();
    std::vector<JobProgress> events(3);
    events[0] = {1, 3, 0, "fc", false, false, -0.0};
    events[1] = {2, 3, 1, "conv-0 \"q\"", true, true, 1e-9};
    events[2] = {3, 3, 2, "", false, true,
                 std::numeric_limits<double>::infinity()};
    std::string log;
    for (const JobProgress& event : events)
        appendEventRecord(log, event);
    const std::string record = encodeJobRecord(results, log);

    StatusOr<std::vector<NetworkResult>> decoded =
        decodeRecordResults(record);
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(resultsToJson(decoded.value()).dump(),
              resultsToJson(results).dump());
    EXPECT_EQ(provenanceToJson(decoded.value()).dump(),
              provenanceToJson(results).dump());
    // JSON renders NaN and the infinities as null, so check the bits.
    const NetworkResult& net = decoded.value().at(0);
    EXPECT_EQ(bitsOf(net.total_cycles), bitsOf(results[0].total_cycles));
    EXPECT_EQ(bitsOf(net.total_energy_pj), bitsOf(-0.0));
    const Evaluation& eval = net.layers.at(0).result.eval;
    const Evaluation& want = results[0].layers[0].result.eval;
    EXPECT_EQ(bitsOf(eval.cycles), bitsOf(want.cycles));
    EXPECT_EQ(bitsOf(eval.noc_bytes), bitsOf(want.noc_bytes));
    EXPECT_EQ(bitsOf(eval.dram_bytes), bitsOf(want.dram_bytes));
    EXPECT_EQ(bitsOf(eval.memory_cycles), bitsOf(-0.0));
    EXPECT_TRUE(net.layers.at(1).result.mapping.levels.empty());

    StatusOr<std::vector<JobProgress>> replayed = decodeRecordEvents(record);
    ASSERT_TRUE(replayed.ok()) << replayed.status().message();
    ASSERT_EQ(replayed.value().size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(progressEventLine(replayed.value()[i]),
                  progressEventLine(events[i]));
        EXPECT_EQ(bitsOf(replayed.value()[i].wall_time_sec),
                  bitsOf(events[i].wall_time_sec));
    }
}

TEST(JobRecord, RoundTripOfACancelledJob)
{
    // A real job, cancelled deterministically after its first event.
    SchedulerService service{ServiceConfig{}};
    std::string log;
    std::vector<std::string> lines;
    SubmitResult submitted = service.submit(
        mustDecode(R"({"workloads": [{"name": "w", "layers":
            ["3_14_32_32_1", "1_7_32_48_1", "1_7_32_16_1"]}],
            "arch": "simba", "scheduler": "random",
            "random": {"max_samples": 40, "target_valid": 40, "seed": 3}})"),
        [&](const JobProgress& event) {
            appendEventRecord(log, event);
            lines.push_back(progressEventLine(event));
            event.requestCancel();
        });
    ASSERT_TRUE(submitted.accepted());
    const std::vector<NetworkResult> results = submitted.takeJob().wait();
    ASSERT_TRUE(results.at(0).cancelled);
    const std::string record = encodeJobRecord(results, log);

    StatusOr<std::vector<NetworkResult>> decoded =
        decodeRecordResults(record);
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(resultsToJson(decoded.value()).dump(),
              resultsToJson(results).dump());
    EXPECT_EQ(provenanceToJson(decoded.value()).dump(),
              provenanceToJson(results).dump());
    StatusOr<std::vector<JobProgress>> events = decodeRecordEvents(record);
    ASSERT_TRUE(events.ok());
    std::vector<std::string> replayed;
    for (const JobProgress& event : events.value())
        replayed.push_back(progressEventLine(event));
    EXPECT_EQ(replayed, lines);
}

TEST(JobRecord, MalformedRecordsFailCleanly)
{
    std::string log;
    appendEventRecord(log, JobProgress{1, 1, 0, "fc", true, true, 0.5});
    const std::string record = encodeJobRecord(syntheticResults(), log);
    for (std::size_t n = 0; n < record.size(); ++n) {
        StatusOr<std::vector<NetworkResult>> decoded =
            decodeRecordResults(std::string_view(record).substr(0, n));
        ASSERT_FALSE(decoded.ok()) << "decoded a " << n << "-byte prefix";
        EXPECT_EQ(decoded.status().code(), ErrorCode::kInternal);
    }
    EXPECT_FALSE(decodeRecordResults(record + "x").ok());
    EXPECT_FALSE(decodeRecordEvents(record.substr(0, log.size())).ok());
}

TEST(ErrorBody, CarriesTheTypedTaxonomy)
{
    EXPECT_EQ(errorBody(ErrorCode::kInvalidInput, "bad \"x\""),
              "{\"error\":{\"code\":\"invalid_input\","
              "\"message\":\"bad \\\"x\\\"\"}}");
    EXPECT_EQ(errorBody("not_found", "no job 9"),
              "{\"error\":{\"code\":\"not_found\","
              "\"message\":\"no job 9\"}}");
}

TEST(ProgressEventLine, IsOneJsonLine)
{
    JobProgress event;
    event.completed = 2;
    event.total = 5;
    event.unique_index = 1;
    event.layer = "3_14_64_64_1";
    event.found = true;
    event.wall_time_sec = 0.25;
    const std::string line = progressEventLine(event);
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.back(), '\n');
    EXPECT_EQ(line.find('\n'), line.size() - 1);
    StatusOr<json::Value> parsed =
        json::Value::parse(line.substr(0, line.size() - 1));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().getInt("completed", -1), 2);
    EXPECT_EQ(parsed.value().getString("layer", ""), "3_14_64_64_1");
}

} // namespace
} // namespace server
} // namespace cosa
