#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "server/client.hpp"
#include "server/daemon.hpp"
#include "server/wire.hpp"

namespace cosa {
namespace server {
namespace {

/** A cheap deterministic request: Random scheduler, fixed seed. */
std::string
cheapBody(const std::string& tag = "t", int layers = 2, int samples = 30)
{
    std::string body =
        R"({"workloads":[{"name":"net","layers":[)";
    for (int i = 0; i < layers; ++i) {
        if (i)
            body += ",";
        body += "\"1_7_32_" + std::to_string(16 + i) + "_1\"";
    }
    body += R"(]}],"arch":"simba","scheduler":"random",)";
    body += "\"random\":{\"max_samples\":" + std::to_string(samples) +
            ",\"target_valid\":" + std::to_string(samples) +
            ",\"seed\":5},";
    body += "\"tag\":\"" + tag + "\"}";
    return body;
}

DaemonConfig
smallConfig()
{
    DaemonConfig config;
    config.port = 0;
    config.num_handler_threads = 2;
    config.service.num_threads = 2;
    return config;
}

std::uint64_t
submittedId(const StatusOr<WireResponse>& response)
{
    EXPECT_TRUE(response.ok()) << response.status().message();
    EXPECT_EQ(response.value().status, 202) << response.value().body;
    StatusOr<json::Value> body =
        json::Value::parse(response.value().body);
    EXPECT_TRUE(body.ok());
    return static_cast<std::uint64_t>(body.value().getInt("id", 0));
}

/** Poll GET /v1/jobs/{id} until state == done; returns the last body. */
std::string
waitDone(Client& client, std::uint64_t id)
{
    for (int i = 0; i < 600; ++i) {
        StatusOr<WireResponse> response = client.jobStatus(id);
        EXPECT_TRUE(response.ok()) << response.status().message();
        if (!response.ok())
            return "";
        EXPECT_EQ(response.value().status, 200) << response.value().body;
        StatusOr<json::Value> body =
            json::Value::parse(response.value().body);
        EXPECT_TRUE(body.ok());
        if (body.ok() &&
            body.value().getString("state", "") == "done")
            return response.value().body;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ADD_FAILURE() << "job " << id << " never finished";
    return "";
}

/** The same body solved in-process (the CI `cosactl local` reference,
 *  inlined); @p on_progress sees its events. */
std::vector<NetworkResult>
solveLocally(const std::string& body_text,
             ScheduleJob::ProgressCallback on_progress = {})
{
    StatusOr<json::Value> body = json::Value::parse(body_text);
    EXPECT_TRUE(body.ok());
    StatusOr<ScheduleRequest> decoded =
        requestFromJson(body.value(), "");
    EXPECT_TRUE(decoded.ok()) << decoded.status().message();
    SchedulerService service{ServiceConfig{}};
    SubmitResult submitted =
        service.submit(std::move(decoded).value(), std::move(on_progress));
    EXPECT_TRUE(submitted.accepted());
    return submitted.takeJob().wait();
}

/** The canonical bytes the same body produces in-process. */
std::string
localReference(const std::string& body_text)
{
    return resultsToJson(solveLocally(body_text)).dump();
}

/** "results" member bytes of a done status body. */
std::string
resultBytes(const std::string& status_body)
{
    StatusOr<json::Value> body = json::Value::parse(status_body);
    EXPECT_TRUE(body.ok());
    const json::Value* results = body.value().find("results");
    EXPECT_NE(results, nullptr);
    return results ? results->dump() : "";
}

/** Size of the record cosad keeps for @p body_text, from the same job
 *  solved in-process: the two records differ only in the recorded wall
 *  times, which take a fixed 8 bytes each. */
std::size_t
localRecordSize(const std::string& body_text)
{
    std::string log;
    const std::vector<NetworkResult> results =
        solveLocally(body_text, [&log](const JobProgress& event) {
            appendEventRecord(log, event);
        });
    return encodeJobRecord(results, log).size();
}

/** Member @p key of a JSON body, re-dumped. */
std::string
memberBytes(const std::string& body_text, const std::string& key)
{
    StatusOr<json::Value> body = json::Value::parse(body_text);
    EXPECT_TRUE(body.ok()) << body_text;
    const json::Value* member = body.ok() ? body.value().find(key) : nullptr;
    EXPECT_NE(member, nullptr) << key << " missing from " << body_text;
    return member ? member->dump() : "";
}

/** GET /v1/jobs/{id} body. */
std::string
fetchJob(Client& client, std::uint64_t id)
{
    StatusOr<WireResponse> response = client.jobStatus(id);
    EXPECT_TRUE(response.ok()) << response.status().message();
    if (!response.ok())
        return "";
    EXPECT_EQ(response.value().status, 200) << response.value().body;
    return response.value().body;
}

/** Every line of GET /v1/jobs/{id}/events, the done line included. */
std::vector<std::string>
eventLines(Client& client, std::uint64_t id)
{
    std::vector<std::string> lines;
    StatusOr<int> status = client.streamEvents(
        id, [&](const std::string& line) { lines.push_back(line); });
    EXPECT_TRUE(status.ok()) << status.status().message();
    EXPECT_EQ(status.ok() ? status.value() : 0, 200);
    EXPECT_FALSE(lines.empty());
    if (!lines.empty())
        EXPECT_EQ(lines.back(), "{\"done\":true}");
    return lines;
}

/** Value of the unlabeled metric @p name in /metrics; -1 if absent. */
double
metricValue(Client& client, const std::string& name)
{
    StatusOr<WireResponse> response = client.metrics();
    EXPECT_TRUE(response.ok()) << response.status().message();
    if (!response.ok())
        return -1.0;
    const std::string& text = response.value().body;
    const std::string prefix = "\n" + name + " ";
    const std::size_t at = text.find(prefix);
    if (at == std::string::npos)
        return -1.0;
    return std::stod(text.substr(at + prefix.size()));
}

/** Raw one-shot exchange for wire-level tests the Client cannot
 *  express (garbage, pipelining). Returns everything the daemon sent
 *  until it closed the connection. */
std::string
rawExchange(int port, const std::string& bytes)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    EXPECT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
    std::string out;
    char buffer[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
        if (n <= 0)
            break;
        out.append(buffer, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return out;
}

TEST(Daemon, HealthzRoutesAndErrors)
{
    Daemon daemon{smallConfig()};
    ASSERT_TRUE(daemon.start().ok());
    Client client("127.0.0.1", daemon.port());

    StatusOr<WireResponse> health = client.healthz();
    ASSERT_TRUE(health.ok()) << health.status().message();
    EXPECT_EQ(health.value().status, 200);
    EXPECT_EQ(health.value().body, "{\"ok\":true}");

    StatusOr<WireResponse> missing = client.request("GET", "/nope");
    ASSERT_TRUE(missing.ok());
    EXPECT_EQ(missing.value().status, 404);
    EXPECT_NE(missing.value().body.find("not_found"), std::string::npos);

    StatusOr<WireResponse> wrong_method =
        client.request("DELETE", "/healthz");
    ASSERT_TRUE(wrong_method.ok());
    EXPECT_EQ(wrong_method.value().status, 405);

    StatusOr<WireResponse> unknown_job = client.jobStatus(999);
    ASSERT_TRUE(unknown_job.ok());
    EXPECT_EQ(unknown_job.value().status, 404);
}

TEST(Daemon, SubmitRejectsBadBodiesWithStructuredErrors)
{
    Daemon daemon{smallConfig()};
    ASSERT_TRUE(daemon.start().ok());
    Client client("127.0.0.1", daemon.port());

    StatusOr<WireResponse> bad_json = client.submit("{not json");
    ASSERT_TRUE(bad_json.ok());
    EXPECT_EQ(bad_json.value().status, 400);
    EXPECT_NE(bad_json.value().body.find("invalid_input"),
              std::string::npos);

    StatusOr<WireResponse> bad_key = client.submit(
        R"({"workloads":["alexnet"],"arch":"simba","bogus":1})");
    ASSERT_TRUE(bad_key.ok());
    EXPECT_EQ(bad_key.value().status, 400);
    EXPECT_NE(bad_key.value().body.find("bogus"), std::string::npos);
}

TEST(Daemon, WireResultsAreByteIdenticalToInProcess)
{
    Daemon daemon{smallConfig()};
    ASSERT_TRUE(daemon.start().ok());
    Client client("127.0.0.1", daemon.port());

    const std::string body = cheapBody("byte-identity");
    const std::uint64_t id = submittedId(client.submit(body));
    const std::string status_body = waitDone(client, id);
    const std::string wire = resultBytes(status_body);
    EXPECT_FALSE(wire.empty());
    EXPECT_EQ(wire, localReference(body));

    // A done job renders its bytes on every GET: once more from the
    // same client and twice concurrently from two more clients, every
    // body equals the first byte for byte.
    auto fetch = [&](Client& from) {
        StatusOr<WireResponse> response = from.jobStatus(id);
        EXPECT_TRUE(response.ok()) << response.status().message();
        return response.ok() ? response.value().body : std::string();
    };
    EXPECT_EQ(fetch(client), status_body);
    Client second("127.0.0.1", daemon.port());
    Client third("127.0.0.1", daemon.port());
    std::string second_body;
    std::string third_body;
    std::thread second_get([&] { second_body = fetch(second); });
    std::thread third_get([&] { third_body = fetch(third); });
    second_get.join();
    third_get.join();
    EXPECT_EQ(second_body, status_body);
    EXPECT_EQ(third_body, status_body);
}

TEST(Daemon, MixedTenantMixedTierResultsStayByteIdentical)
{
    // The acceptance contract: the schedule bytes must not depend on
    // who else is on the daemon or at what priority.
    DaemonConfig config = smallConfig();
    config.tenants = {
        TenantSpec{"alice", "ka", 0.0, 0.0, 0},
        TenantSpec{"bob", "kb", 0.0, 0.0, 0},
    };
    Daemon daemon{std::move(config)};
    ASSERT_TRUE(daemon.start().ok());
    Client alice("127.0.0.1", daemon.port(), "ka");
    Client bob("127.0.0.1", daemon.port(), "kb");

    // Same problem at different priorities from different tenants.
    std::string alice_body = cheapBody("mix");
    alice_body.insert(alice_body.size() - 1,
                      ",\"priority\":\"interactive\"");
    std::string bob_body = cheapBody("mix");
    bob_body.insert(bob_body.size() - 1, ",\"priority\":\"batch\"");

    const std::uint64_t a1 = submittedId(alice.submit(alice_body));
    const std::uint64_t b1 = submittedId(bob.submit(bob_body));
    const std::uint64_t a2 = submittedId(alice.submit(alice_body));

    const std::string reference = localReference(cheapBody("mix"));
    EXPECT_EQ(resultBytes(waitDone(alice, a1)), reference);
    EXPECT_EQ(resultBytes(waitDone(bob, b1)), reference);
    EXPECT_EQ(resultBytes(waitDone(alice, a2)), reference);
}

TEST(Daemon, EventStreamReplaysProgressAndTerminates)
{
    Daemon daemon{smallConfig()};
    ASSERT_TRUE(daemon.start().ok());
    Client client("127.0.0.1", daemon.port());

    const std::uint64_t id =
        submittedId(client.submit(cheapBody("events", 3)));
    waitDone(client, id);
    // Subscribing after completion still replays the full sequence —
    // ScheduleJob::onProgress replay plus the terminal line.
    std::vector<std::string> lines;
    StatusOr<int> status = client.streamEvents(
        id, [&](const std::string& line) { lines.push_back(line); });
    ASSERT_TRUE(status.ok()) << status.status().message();
    EXPECT_EQ(status.value(), 200);
    ASSERT_GE(lines.size(), 4u) << "3 progress events + done";
    for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
        StatusOr<json::Value> event = json::Value::parse(lines[i]);
        ASSERT_TRUE(event.ok()) << lines[i];
        EXPECT_EQ(event.value().getInt("completed", -1),
                  static_cast<std::int64_t>(i + 1));
        EXPECT_EQ(event.value().getInt("total", -1), 3);
    }
    StatusOr<json::Value> last = json::Value::parse(lines.back());
    ASSERT_TRUE(last.ok());
    EXPECT_TRUE(last.value().getBool("done", false));

    StatusOr<int> missing = client.streamEvents(
        999, [](const std::string&) { FAIL() << "no events expected"; });
    ASSERT_TRUE(missing.ok()) << missing.status().message();
    EXPECT_EQ(missing.value(), 404);
}

TEST(Daemon, CancelRequestsCooperativeStop)
{
    Daemon daemon{smallConfig()};
    ASSERT_TRUE(daemon.start().ok());
    Client client("127.0.0.1", daemon.port());

    const std::uint64_t id =
        submittedId(client.submit(cheapBody("cancel", 4)));
    StatusOr<WireResponse> cancelled = client.cancel(id);
    ASSERT_TRUE(cancelled.ok());
    EXPECT_EQ(cancelled.value().status, 200);
    const std::string status_body = waitDone(client, id);
    StatusOr<json::Value> body = json::Value::parse(status_body);
    ASSERT_TRUE(body.ok());
    EXPECT_TRUE(body.value().getBool("cancel_requested", false));
}

TEST(Daemon, AuthQuotaAndIsolation)
{
    DaemonConfig config = smallConfig();
    config.tenants = {
        // Near-zero refill: the single burst token is all alice gets
        // within this test's lifetime (no timing flake).
        TenantSpec{"alice", "ka", 0.001, 1.0, 0},
        TenantSpec{"bob", "kb", 0.0, 0.0, 1},      // 1 job inflight
    };
    Daemon daemon{std::move(config)};
    ASSERT_TRUE(daemon.start().ok());

    // No key, wrong key -> 401 (and the job routes need auth too).
    Client anonymous("127.0.0.1", daemon.port());
    StatusOr<WireResponse> denied = anonymous.submit(cheapBody());
    ASSERT_TRUE(denied.ok());
    EXPECT_EQ(denied.value().status, 401);
    EXPECT_NE(denied.value().body.find("unauthorized"),
              std::string::npos);
    Client wrong("127.0.0.1", daemon.port(), "nope");
    StatusOr<WireResponse> denied_too = wrong.listJobs();
    ASSERT_TRUE(denied_too.ok());
    EXPECT_EQ(denied_too.value().status, 401);

    // Burst 1: the second immediate submit rate-limits, with a
    // Retry-After hint.
    Client alice("127.0.0.1", daemon.port(), "ka");
    const std::uint64_t id = submittedId(alice.submit(cheapBody()));
    StatusOr<WireResponse> limited = alice.submit(cheapBody());
    ASSERT_TRUE(limited.ok());
    EXPECT_EQ(limited.value().status, 429);
    EXPECT_NE(limited.value().body.find("rate_limited"),
              std::string::npos);
    EXPECT_FALSE(limited.value().header("Retry-After").empty());

    // Isolation: bob neither sees nor cancels alice's job.
    Client bob("127.0.0.1", daemon.port(), "kb");
    StatusOr<WireResponse> hidden = bob.jobStatus(id);
    ASSERT_TRUE(hidden.ok());
    EXPECT_EQ(hidden.value().status, 404);
    StatusOr<WireResponse> uncancellable = bob.cancel(id);
    ASSERT_TRUE(uncancellable.ok());
    EXPECT_EQ(uncancellable.value().status, 404);
    StatusOr<WireResponse> listing = bob.listJobs();
    ASSERT_TRUE(listing.ok());
    EXPECT_EQ(listing.value().body.find("alice"), std::string::npos);

    // Inflight cap: bob's second concurrent job is refused until the
    // first finishes (onDone releases the slot). The pinned job is
    // deliberately heavy so it cannot finish before the next submit.
    const std::uint64_t bob_id =
        submittedId(bob.submit(cheapBody("pin", 2, 5000)));
    StatusOr<WireResponse> full = bob.submit(cheapBody());
    ASSERT_TRUE(full.ok());
    EXPECT_EQ(full.value().status, 429);
    EXPECT_NE(full.value().body.find("too_many_inflight"),
              std::string::npos);
    waitDone(bob, bob_id);
    submittedId(bob.submit(cheapBody())); // slot released -> 202
    waitDone(alice, id);
}

TEST(Daemon, MetricsCarryTenantLabels)
{
    DaemonConfig config = smallConfig();
    config.tenants = {TenantSpec{"carol", "kc", 0.0, 0.0, 0}};
    Daemon daemon{std::move(config)};
    ASSERT_TRUE(daemon.start().ok());
    Client carol("127.0.0.1", daemon.port(), "kc");

    waitDone(carol, submittedId(carol.submit(cheapBody("metrics"))));
    StatusOr<WireResponse> metrics = carol.metrics();
    ASSERT_TRUE(metrics.ok());
    ASSERT_EQ(metrics.value().status, 200);
    const std::string& text = metrics.value().body;
    EXPECT_NE(text.find("tenant=\"carol\""), std::string::npos)
        << "admission/completion metrics must carry the tenant label";
    EXPECT_NE(text.find("cosad_http_requests_total"), std::string::npos);
}

TEST(Daemon, PipelinedRequestsAnswerInOrder)
{
    Daemon daemon{smallConfig()};
    ASSERT_TRUE(daemon.start().ok());
    const std::string wire = rawExchange(
        daemon.port(),
        "GET /healthz HTTP/1.1\r\n\r\n"
        "GET /nope HTTP/1.1\r\n\r\n"
        "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
    // Three responses, in request order, on one connection.
    const std::size_t first = wire.find("HTTP/1.1 200");
    const std::size_t second = wire.find("HTTP/1.1 404");
    const std::size_t third = wire.rfind("HTTP/1.1 200");
    ASSERT_NE(first, std::string::npos) << wire;
    ASSERT_NE(second, std::string::npos) << wire;
    ASSERT_NE(third, std::string::npos) << wire;
    EXPECT_LT(first, second);
    EXPECT_LT(second, third);
}

TEST(Daemon, MalformedStartLineGets400AndClose)
{
    Daemon daemon{smallConfig()};
    ASSERT_TRUE(daemon.start().ok());
    const std::string wire =
        rawExchange(daemon.port(), "GARBAGE\r\n\r\n");
    EXPECT_NE(wire.find("HTTP/1.1 400"), std::string::npos) << wire;
    EXPECT_NE(wire.find("Connection: close"), std::string::npos);
}

TEST(Daemon, OversizedBodyGets413)
{
    DaemonConfig config = smallConfig();
    config.max_body_bytes = 64;
    Daemon daemon{std::move(config)};
    ASSERT_TRUE(daemon.start().ok());
    const std::string wire = rawExchange(
        daemon.port(),
        "POST /v1/jobs HTTP/1.1\r\nContent-Length: 4096\r\n\r\n");
    EXPECT_NE(wire.find("HTTP/1.1 413"), std::string::npos) << wire;
}

TEST(Daemon, EvictsOldestFinishedJobsBeyondRetention)
{
    DaemonConfig config = smallConfig();
    config.max_finished_jobs = 2;
    Daemon daemon{std::move(config)};
    ASSERT_TRUE(daemon.start().ok());
    Client client("127.0.0.1", daemon.port());

    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 3; ++i) {
        ids.push_back(
            submittedId(client.submit(cheapBody("evict", 1))));
        waitDone(client, ids.back());
    }
    StatusOr<WireResponse> evicted = client.jobStatus(ids[0]);
    ASSERT_TRUE(evicted.ok());
    EXPECT_EQ(evicted.value().status, 404)
        << "oldest finished job must be evicted";
    EXPECT_EQ(client.jobStatus(ids[2]).value().status, 200);
}

TEST(Daemon, FinishedJobAnswersFromItsRecord)
{
    Daemon daemon{smallConfig()};
    ASSERT_TRUE(daemon.start().ok());
    Client client("127.0.0.1", daemon.port());

    // Heavy enough that the first stream subscribes while the job runs.
    const std::string body = cheapBody("record", 3, 2000);
    const std::uint64_t id = submittedId(client.submit(body));
    const std::vector<std::string> live = eventLines(client, id);
    ASSERT_EQ(live.size(), 4u) << "3 progress events + done";
    // The stream's done line fires after the completion hook that swapped
    // the job for its record, so everything below reads the record.
    EXPECT_EQ(metricValue(client, "cosad_finished_jobs"), 1.0);

    const std::string first = fetchJob(client, id);
    EXPECT_EQ(fetchJob(client, id), first);
    const std::vector<NetworkResult> local = solveLocally(body);
    EXPECT_EQ(memberBytes(first, "results"), resultsToJson(local).dump());
    EXPECT_EQ(memberBytes(first, "provenance"),
              provenanceToJson(local).dump());
    EXPECT_EQ(memberBytes(first, "cancel_requested"), "false");
    // A late stream replays the recorded events, wall times included.
    EXPECT_EQ(eventLines(client, id), live);

    // A job cancelled while it runs keeps its flag, its partial results
    // and its events the same way.
    const std::uint64_t cancelled =
        submittedId(client.submit(cheapBody("record-cancel", 4, 2000)));
    StatusOr<WireResponse> cancel = client.cancel(cancelled);
    ASSERT_TRUE(cancel.ok());
    EXPECT_EQ(cancel.value().status, 200);
    const std::vector<std::string> cancelled_live =
        eventLines(client, cancelled);
    const std::string cancelled_body = fetchJob(client, cancelled);
    EXPECT_EQ(memberBytes(cancelled_body, "state"), "\"done\"");
    EXPECT_EQ(memberBytes(cancelled_body, "cancel_requested"), "true");
    EXPECT_EQ(fetchJob(client, cancelled), cancelled_body);
    EXPECT_EQ(eventLines(client, cancelled), cancelled_live);
    // A DELETE after completion answers from the record and changes no
    // byte of an already cancelled job ...
    cancel = client.cancel(cancelled);
    ASSERT_TRUE(cancel.ok());
    EXPECT_EQ(cancel.value().status, 200);
    EXPECT_EQ(fetchJob(client, cancelled), cancelled_body);
    // ... while on a finished one it sets cancel_requested and nothing
    // else, as it did before jobs were compacted.
    ASSERT_TRUE(client.cancel(id).ok());
    std::string flagged = first;
    flagged.replace(flagged.find("\"cancel_requested\":false"),
                    std::string("\"cancel_requested\":false").size(),
                    "\"cancel_requested\":true");
    EXPECT_EQ(fetchJob(client, id), flagged);

    StatusOr<WireResponse> listing = client.listJobs();
    ASSERT_TRUE(listing.ok());
    EXPECT_EQ(memberBytes(listing.value().body, "jobs"),
              "[{\"id\":" + std::to_string(id) +
                  ",\"tenant\":\"default\",\"tag\":\"record\",\"priority\":"
                  "\"normal\",\"state\":\"done\",\"cancel_requested\":true},"
                  "{\"id\":" +
                  std::to_string(cancelled) +
                  ",\"tenant\":\"default\",\"tag\":\"record-cancel\","
                  "\"priority\":\"normal\",\"state\":\"done\","
                  "\"cancel_requested\":true}]");
}

TEST(Daemon, FinishedJobSwapRacesReaders)
{
    // Readers poll GET and the list while each job finishes and its
    // completion hook swaps the handle for the record (TSan's target).
    Daemon daemon{smallConfig()};
    ASSERT_TRUE(daemon.start().ok());
    Client client("127.0.0.1", daemon.port());
    std::vector<std::string> bodies;
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 4; ++i) {
        bodies.push_back(cheapBody("race" + std::to_string(i), 2, 300));
        ids.push_back(submittedId(client.submit(bodies.back())));
    }
    std::atomic<bool> done{false};
    std::vector<std::thread> readers;
    for (int r = 0; r < 2; ++r) {
        readers.emplace_back([&] {
            // Each request is one connection: a bounded number of rounds
            // keeps repeated runs clear of the ephemeral port range.
            Client reader("127.0.0.1", daemon.port());
            for (int round = 0; round < 25 && !done.load(); ++round) {
                for (const std::uint64_t id : ids)
                    EXPECT_TRUE(reader.jobStatus(id).ok());
                EXPECT_TRUE(reader.listJobs().ok());
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        });
    }
    for (const std::uint64_t id : ids)
        eventLines(client, id);
    done.store(true);
    for (std::thread& reader : readers)
        reader.join();
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const std::string body = fetchJob(client, ids[i]);
        EXPECT_EQ(fetchJob(client, ids[i]), body);
        EXPECT_EQ(resultBytes(body), localReference(bodies[i]));
    }
}

TEST(Daemon, FinishedJobBytesGaugeSumsTheRecords)
{
    DaemonConfig config = smallConfig();
    config.max_finished_jobs = 2;
    Daemon daemon{std::move(config)};
    ASSERT_TRUE(daemon.start().ok());
    Client client("127.0.0.1", daemon.port());

    const std::string resnet50 =
        R"({"workloads": ["resnet50"], "arch": "simba",
            "scheduler": "random",
            "random": {"max_samples": 100, "target_valid": 100,
                       "seed": 5}})";
    const std::vector<std::string> bodies = {resnet50, cheapBody("small", 1),
                                             cheapBody("evicts", 4)};
    std::vector<std::size_t> sizes;
    std::vector<std::uint64_t> ids;
    for (const std::string& body : bodies) {
        ids.push_back(submittedId(client.submit(body)));
        eventLines(client, ids.back()); // ends after the record exists
        sizes.push_back(localRecordSize(body));
        const std::size_t retained = std::min<std::size_t>(sizes.size(), 2);
        std::size_t bytes = 0;
        for (std::size_t i = sizes.size() - retained; i < sizes.size(); ++i)
            bytes += sizes[i];
        EXPECT_EQ(metricValue(client, "cosad_finished_jobs"),
                  static_cast<double>(retained));
        const double gauge =
            metricValue(client, "cosad_finished_job_bytes");
        EXPECT_EQ(gauge, static_cast<double>(bytes));
        // A ResNet-50 job (23 layers, each with its schedule and its
        // progress event) keeps under 4 KB.
        if (sizes.size() == 1)
            EXPECT_LT(gauge, 4096.0);
    }
    EXPECT_EQ(client.jobStatus(ids[0]).value().status, 404);

    daemon.stop();
    metrics::MetricsRegistry& registry = metrics::MetricsRegistry::global();
    EXPECT_EQ(registry.gauge("cosad_finished_jobs").value(), 0.0);
    EXPECT_EQ(registry.gauge("cosad_finished_job_bytes").value(), 0.0);
}

TEST(Daemon, StopWithJobsInFlightDrainsCleanly)
{
    // stop() (and the destructor) must not deadlock against jobs whose
    // completion hooks take the daemon's own locks.
    Daemon daemon{smallConfig()};
    ASSERT_TRUE(daemon.start().ok());
    Client client("127.0.0.1", daemon.port());
    for (int i = 0; i < 4; ++i)
        submittedId(client.submit(cheapBody("drain", 2)));
    daemon.stop();
}

TEST(Daemon, StartStopCyclesNeverHang)
{
    // stop() right after start() finds handlers between their predicate
    // check and their wait; a wakeup lost there hangs the join.
    DaemonConfig config = smallConfig();
    config.num_handler_threads = 4;
    Daemon daemon{config};
    for (int cycle = 0; cycle < 50; ++cycle) {
        ASSERT_TRUE(daemon.start().ok()) << "cycle " << cycle;
        daemon.stop();
    }
}

TEST(Daemon, CacheStatsIs404WithoutAMountedStore)
{
    Daemon daemon{smallConfig()};
    ASSERT_TRUE(daemon.start().ok());
    Client client("127.0.0.1", daemon.port());
    StatusOr<WireResponse> response =
        client.request("GET", "/v1/cache/stats");
    ASSERT_TRUE(response.ok()) << response.status().message();
    EXPECT_EQ(response.value().status, 404) << response.value().body;
}

TEST(Daemon, CacheCapacityNeedsAStoreAndANonNegativeBound)
{
    // A capacity without a store has nothing to bound.
    DaemonConfig no_store = smallConfig();
    no_store.cache_capacity = 5;
    Daemon storeless{no_store};
    const Status started = storeless.start();
    ASSERT_FALSE(started.ok());
    EXPECT_EQ(started.code(), ErrorCode::kInvalidInput);

    const std::string dir = "cosa_daemon_negative_capacity_dir";
    std::filesystem::remove_all(dir);
    DaemonConfig negative = smallConfig();
    negative.cache_dir = dir;
    negative.cache_capacity = -1;
    Daemon daemon{negative};
    EXPECT_EQ(daemon.start().code(), ErrorCode::kInvalidInput);
    EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(Daemon, PersistentCacheSurvivesRestartByteForByte)
{
    // The CI cache-persistence leg, in-process: warm a --cache-dir
    // daemon, restart it on the same directory, and the second daemon
    // must answer from disk with the *same wire bytes* as the cold
    // solve.
    const std::string dir = "cosa_daemon_cache_test_dir";
    std::filesystem::remove_all(dir);
    const std::string body = cheapBody("warm-restart", 3);
    std::string cold;

    DaemonConfig config = smallConfig();
    config.cache_dir = dir;
    {
        Daemon daemon{config};
        ASSERT_TRUE(daemon.start().ok());
        Client client("127.0.0.1", daemon.port());
        const std::uint64_t id = submittedId(client.submit(body));
        const std::string status_body = waitDone(client, id);
        cold = resultBytes(status_body);
        ASSERT_FALSE(cold.empty());
        // The status body carries cache provenance out-of-band of the
        // deterministic results member.
        EXPECT_NE(status_body.find("\"provenance\""), std::string::npos);
        daemon.stop();
    }

    Daemon warm{config};
    ASSERT_TRUE(warm.start().ok());
    Client client("127.0.0.1", warm.port());

    // The replayed tier is visible before any request touches it.
    StatusOr<WireResponse> stats =
        client.request("GET", "/v1/cache/stats");
    ASSERT_TRUE(stats.ok()) << stats.status().message();
    ASSERT_EQ(stats.value().status, 200) << stats.value().body;
    StatusOr<json::Value> parsed =
        json::Value::parse(stats.value().body);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().find("num_shards"), nullptr);
    const json::Value* log = parsed.value().find("shards");
    ASSERT_NE(log, nullptr);
    EXPECT_EQ(log->size(), 1u);
    const std::int64_t entries = parsed.value().getInt("entries", 0);
    EXPECT_GT(entries, 0) << stats.value().body;

    const std::uint64_t id = submittedId(client.submit(body));
    EXPECT_EQ(resultBytes(waitDone(client, id)), cold);

    // And the warm run really was served by the store.
    stats = client.request("GET", "/v1/cache/stats");
    ASSERT_TRUE(stats.ok());
    parsed = json::Value::parse(stats.value().body);
    ASSERT_TRUE(parsed.ok());
    EXPECT_GE(parsed.value().getInt("hits", 0), entries)
        << stats.value().body;
    warm.stop();
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace server
} // namespace cosa
