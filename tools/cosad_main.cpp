/**
 * @file
 * cosad — the scheduling engine as a standalone network daemon.
 *
 *   cosad [--host H] [--port P] [--threads N] [--handlers N]
 *         [--tenants FILE] [--cache-dir DIR] [--cache-capacity N]
 *
 * --port 0 (the default) binds an ephemeral port and prints it, which
 * is what the smoke tests use. --tenants points at the JSON tenant
 * config (see docs/serving-daemon.md); the COSAD_TENANTS environment
 * variable overrides file entries of the same name. With no tenants
 * configured the daemon runs open (single "default" tenant, no
 * quota); a tenant's quota is the daemon's one admission bound.
 * --threads N >= 0 sizes the engine's executor (0 = hardware width),
 * --handlers N >= 1 the request handler pool. --cache-dir mounts the
 * persistent schedule cache (docs/cache-store.md) so solves survive
 * restarts; --cache-capacity N >= 0 bounds its LRU entry count
 * exactly (0 = unbounded) and needs --cache-dir. Jobs run in strict
 * priority tiers (a request's "priority"): no Batch task starts while
 * Interactive or Normal work can run. Numeric flags parse strictly; a
 * bad value exits 1 naming the flag. SIGINT/SIGTERM shut down
 * cleanly.
 */

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/flag_value.hpp"
#include "common/logging.hpp"
#include "server/daemon.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace cosa;
    using namespace cosa::server;

    DaemonConfig config;
    std::string tenants_file;
    for (int a = 1; a < argc; ++a) {
        const auto want = [&](const char* flag) {
            return std::strcmp(argv[a], flag) == 0 && a + 1 < argc;
        };
        if (want("--host")) {
            config.host = argv[++a];
        } else if (want("--port")) {
            config.port = flagValue(argv, a, 0, 65535);
        } else if (want("--threads")) {
            config.service.num_threads = flagValue(argv, a, 0);
        } else if (want("--handlers")) {
            config.num_handler_threads = flagValue(argv, a, 1);
        } else if (want("--tenants")) {
            tenants_file = argv[++a];
        } else if (want("--cache-dir")) {
            config.cache_dir = argv[++a];
        } else if (want("--cache-capacity")) {
            config.cache_capacity =
                flagValue<std::int64_t>(argv, a, 0);
        } else {
            fatal("unknown or incomplete flag '", argv[a],
                  "' (see the file comment in tools/cosad_main.cpp)");
        }
    }

    if (!tenants_file.empty()) {
        std::ifstream in(tenants_file);
        if (!in)
            fatal("cannot read --tenants file '", tenants_file, "'");
        std::ostringstream text;
        text << in.rdbuf();
        StatusOr<std::vector<TenantSpec>> parsed =
            TenantRegistry::parseConfig(text.str());
        if (!parsed.ok())
            fatal("bad --tenants file: ", parsed.status().message());
        config.tenants = std::move(parsed).value();
    }
    if (const char* env = std::getenv("COSAD_TENANTS")) {
        const Status overridden =
            TenantRegistry::applyEnvOverride(env, &config.tenants);
        if (!overridden.ok())
            fatal("bad COSAD_TENANTS: ", overridden.message());
    }

    Daemon daemon(std::move(config));
    const Status started = daemon.start();
    if (!started.ok())
        fatal("cosad failed to start: ", started.message());
    // The smoke tests scrape this exact line for the ephemeral port.
    std::cout << "cosad ready on " << daemon.host() << ":"
              << daemon.port() << std::endl;

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    while (!g_stop) {
        struct timespec ts = {0, 200 * 1000 * 1000};
        nanosleep(&ts, nullptr);
    }
    inform("cosad: shutting down");
    daemon.stop();
    return 0;
}
