#pragma once

/**
 * @file
 * Per-tenant API-key authentication and admission quota of cosad.
 *
 * A tenant is a named principal with an API key and two quota knobs:
 * a token-bucket submission rate (requests/sec with a burst) and a
 * cap on its unfinished jobs. Keys arrive as `Authorization: Bearer <key>`
 * or `X-Api-Key: <key>`.
 *
 * Configuration comes from a JSON file (--tenants file.json):
 *
 *     {"tenants": [{"name": "alice", "key": "ka", "rps": 10,
 *                   "burst": 20, "max_inflight": 4}]}
 *
 * and/or the COSAD_TENANTS environment variable
 * (`name:key:rps:burst:max_inflight`, comma-separated), which
 * overrides file entries of the same name — the env override knob for
 * containerized runs. With no tenants configured the daemon runs
 * open: every request maps to the "default" tenant, unlimited.
 *
 * The token bucket is deliberately wall-clock driven (quota is an
 * operational knob, not part of the deterministic result contract).
 */

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"

namespace cosa {
namespace server {

/** One configured principal. */
struct TenantSpec
{
    std::string name;
    std::string key;
    /** Sustained submissions/sec; <= 0 = unlimited. */
    double rps = 0.0;
    /** Bucket capacity (submissions that may burst); defaults to
     *  max(rps, 1) when unset. */
    double burst = 0.0;
    /** Concurrently live (submitted, not yet finished) jobs;
     *  <= 0 = unlimited. */
    int max_inflight = 0;
};

/** Outcome of one admission check. */
struct AdmissionDecision
{
    enum class Verdict {
        Allow,
        Unauthorized, //!< no/unknown key while tenants are configured
        RateLimited,  //!< token bucket empty -> 429
        TooManyInflight, //!< per-tenant inflight cap -> 429
    };
    Verdict verdict = Verdict::Allow;
    std::string tenant;        //!< resolved tenant name (Allow only)
    double retry_after_sec = 0.0; //!< 429 Retry-After hint
};

/** Thread-safe tenant registry + quota state. */
class TenantRegistry
{
  public:
    /** Open mode: no tenants, everything is "default"/unlimited. */
    TenantRegistry() = default;
    explicit TenantRegistry(std::vector<TenantSpec> tenants);

    /** Parse the config-file form (see the file comment). */
    static StatusOr<std::vector<TenantSpec>> parseConfig(
        const std::string& text);
    /** Parse the COSAD_TENANTS form; entries override same-name
     *  entries already in @p tenants. */
    static Status applyEnvOverride(const std::string& env,
                                   std::vector<TenantSpec>* tenants);

    bool open() const { return tenants_.empty(); }

    /**
     * Authenticate @p api_key and charge one submission against its
     * quota at time @p now_sec (monotonic seconds; injectable for
     * tests). Allow increments the tenant's inflight count — pair
     * with release() when the job finishes or was never admitted.
     */
    AdmissionDecision admit(const std::string& api_key, double now_sec);

    /** Undo the inflight increment of one admitted job. */
    void release(const std::string& tenant);

    /** Resolve a key without charging quota (GET/DELETE routes). */
    AdmissionDecision authenticate(const std::string& api_key) const;

  private:
    struct TenantState
    {
        TenantSpec spec;
        double tokens = 0.0;
        double last_refill_sec = 0.0;
        bool primed = false; //!< bucket starts full on first use
        int inflight = 0;
    };

    mutable std::mutex mutex_;
    std::unordered_map<std::string, TenantState> tenants_; //!< by key
};

/** Extract the API key from Authorization: Bearer / X-Api-Key. */
std::string apiKeyOf(const std::string& authorization,
                     const std::string& x_api_key);

} // namespace server
} // namespace cosa
