/**
 * @file
 * cosactl — command-line client for cosad.
 *
 *   cosactl [--host H] [--port P] [--key K] <command> [args]
 *
 *   submit FILE|-     POST the request JSON (stdin with "-")
 *   status ID         job status (includes "results" once done)
 *   result ID         just the canonical results bytes of a done job
 *   list              this tenant's jobs
 *   cancel ID         cooperative cancel
 *   watch ID          stream progress events (one JSON line each)
 *   metrics           Prometheus text
 *   health            liveness probe
 *   local FILE|-      run the request in-process (no daemon) and print
 *                     the canonical results bytes — the reference the
 *                     CI smoke diff compares wire results against
 *   cache stats       the daemon's persistent-cache tier stats
 *                     (GET /v1/cache/stats; 404 without --cache-dir)
 *
 * A cache store moves as its directory: copy it while no daemon uses
 * it. The API key may also come from COSAD_API_KEY. Exit status is 0
 * on a 2xx answer, 1 otherwise (error bodies print to stderr).
 */

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/flag_value.hpp"
#include "common/logging.hpp"
#include "server/client.hpp"
#include "server/wire.hpp"

namespace {

using namespace cosa;
using namespace cosa::server;

std::string
readAll(const std::string& path)
{
    if (path == "-") {
        std::ostringstream text;
        text << std::cin.rdbuf();
        return text.str();
    }
    std::ifstream in(path);
    if (!in)
        fatal("cannot read '", path, "'");
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Print the exchange; 0 on 2xx, 1 otherwise. */
int
report(const StatusOr<WireResponse>& response)
{
    if (!response.ok())
        fatal(response.status().message());
    const WireResponse& wire = response.value();
    if (wire.status >= 200 && wire.status < 300) {
        std::cout << wire.body;
        if (wire.body.empty() || wire.body.back() != '\n')
            std::cout << "\n";
        return 0;
    }
    std::cerr << "HTTP " << wire.status << ": " << wire.body << "\n";
    return 1;
}

std::uint64_t
parseId(const char* text)
{
    char* end = nullptr;
    const unsigned long long id = std::strtoull(text, &end, 10);
    if (!end || *end != '\0')
        fatal("bad job id '", text, "'");
    return id;
}

/** `result`: extract the canonical results bytes from a status body.
 *  The canonical dump is parse-stable (insertion order + shortest
 *  round-trip numbers), so re-dumping the member preserves the
 *  daemon's exact bytes. */
int
printResult(const StatusOr<WireResponse>& response)
{
    if (!response.ok())
        fatal(response.status().message());
    const WireResponse& wire = response.value();
    if (wire.status != 200) {
        std::cerr << "HTTP " << wire.status << ": " << wire.body << "\n";
        return 1;
    }
    StatusOr<json::Value> body = json::Value::parse(wire.body);
    if (!body.ok())
        fatal("bad status body: ", body.status().message());
    if (body.value().getString("state", "") != "done") {
        std::cerr << "job is still " << body.value().getString("state", "?")
                  << "; results exist only once done\n";
        return 1;
    }
    const json::Value* results = body.value().find("results");
    if (!results)
        fatal("status body has no 'results' member");
    std::cout << results->dump() << "\n";
    return 0;
}

/** `local`: same request, no daemon — the byte-identity reference. */
int
runLocal(const std::string& text)
{
    StatusOr<json::Value> body = json::Value::parse(text);
    if (!body.ok())
        fatal("bad request JSON: ", body.status().message());
    StatusOr<ScheduleRequest> decoded = requestFromJson(body.value(), "");
    if (!decoded.ok())
        fatal("bad request: ", decoded.status().message());
    SchedulerService service{ServiceConfig{}};
    SubmitResult submitted = service.submit(std::move(decoded).value());
    if (!submitted.accepted())
        fatal("rejected: ", submitted.rejection().message);
    std::cout << resultsToJson(submitted.takeJob().wait()).dump() << "\n";
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string host = "127.0.0.1";
    int port = 8573;
    std::string key;
    if (const char* env = std::getenv("COSAD_API_KEY"))
        key = env;

    int a = 1;
    for (; a < argc; ++a) {
        const auto want = [&](const char* flag) {
            return std::strcmp(argv[a], flag) == 0 && a + 1 < argc;
        };
        if (want("--host"))
            host = argv[++a];
        else if (want("--port"))
            port = flagValue(argv, a, 1, 65535);
        else if (want("--key"))
            key = argv[++a];
        else
            break;
    }
    if (a >= argc)
        fatal("no command (see the file comment in "
              "tools/cosactl_main.cpp)");
    const std::string command = argv[a++];
    const auto arg = [&](const char* what) -> const char* {
        if (a >= argc)
            fatal("'", command, "' needs ", what);
        return argv[a++];
    };

    Client client(host, port, key);
    if (command == "submit")
        return report(client.submit(readAll(arg("a request file"))));
    if (command == "status")
        return report(client.jobStatus(parseId(arg("a job id"))));
    if (command == "result")
        return printResult(client.jobStatus(parseId(arg("a job id"))));
    if (command == "list")
        return report(client.listJobs());
    if (command == "cancel")
        return report(client.cancel(parseId(arg("a job id"))));
    if (command == "metrics")
        return report(client.metrics());
    if (command == "health")
        return report(client.healthz());
    if (command == "local")
        return runLocal(readAll(arg("a request file")));
    if (command == "cache") {
        const std::string verb = arg("a verb (stats)");
        if (verb == "stats")
            return report(client.request("GET", "/v1/cache/stats", ""));
        fatal("unknown cache verb '", verb, "' (stats)");
    }
    if (command == "watch") {
        const std::uint64_t id = parseId(arg("a job id"));
        StatusOr<int> status = client.streamEvents(
            id, [](const std::string& line) {
                std::cout << line << std::endl; // flush: live progress
            });
        if (!status.ok())
            fatal(status.status().message());
        if (status.value() != 200) {
            std::cerr << "HTTP " << status.value() << "\n";
            return 1;
        }
        return 0;
    }
    fatal("unknown command '", command,
          "' (see the file comment in tools/cosactl_main.cpp)");
}
