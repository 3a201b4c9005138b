#include <gtest/gtest.h>

#include <string>

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
                 "exhaustive": {"max_point": 10}})",
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
