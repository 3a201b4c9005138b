#pragma once

/**
 * @file
 * Deterministic, seed-keyed fault injection ("failpoints").
 *
 * A failpoint is a named site in the code — `simplex.factorize`,
 * `evaluator.evaluate`, `executor.task`, ... — where a fault can be
 * injected on demand for chaos testing. Failpoints are compiled in
 * always and cost one relaxed atomic load when none is armed, so they
 * can live permanently at solver/evaluator/executor boundaries
 * (the same "off is free" discipline as trace spans).
 *
 * Arming, from the environment (read once, at first evaluation) or
 * programmatically via configure():
 *
 *   COSA_FAILPOINTS=simplex.factorize=0.05@42,evaluator.evaluate=1
 *
 * Each comma-separated term is `name=prob[@seed]`: `prob` in [0, 1] is
 * the per-evaluation trigger probability (1 = always), `seed` (default
 * 0) keys the pseudo-random decision stream. Decisions are a pure
 * function of (name, seed, per-point evaluation ordinal) — no global
 * RNG, no wall clock — so a fixed spec replays the same trigger
 * pattern run after run. (Under a multi-threaded call site the ordinal
 * assignment follows thread interleaving; pin the workload to one
 * lane, or use prob 1, when a test needs bit-exact chaos.)
 *
 * A triggered failpoint throws `CosaError` with the ErrorCode its site
 * declares (the service firewall converts it to a Status), and counts
 * into `cosa_failpoints_triggered_total{point=...}`. The catalog of
 * registered sites lives in docs/robustness.md.
 */

#include <cstdint>
#include <string>

#include "common/status.hpp"

namespace cosa::failpoint {

/** True when any failpoint is armed (one relaxed load — the only cost
 *  on the common path; use via the COSA_FAILPOINT macro). */
bool armed();

/**
 * Deterministic trigger decision for @p name. False when the point is
 * not armed; otherwise consumes one ordinal of the point's decision
 * stream and counts a trigger (log + metric) when it fires.
 */
bool shouldTrigger(const char* name);

/** Throw the CosaError of a fired failpoint (never returns). */
[[noreturn]] void throwTriggered(const char* name, ErrorCode code);

/**
 * Replace the armed set with @p spec (`name=prob[@seed],...`; empty
 * disarms everything). Per-point ordinals and trigger counts reset.
 * Rejects malformed terms, prob outside [0, 1] and bad seeds without
 * changing the armed set.
 */
Status configure(const std::string& spec);

/** Disarm every failpoint (tests; equivalent to configure("")). */
void disarmAll();

/** Lifetime trigger count of @p name since it was last (re)armed;
 *  0 when unarmed. */
std::int64_t triggerCount(const std::string& name);

} // namespace cosa::failpoint

/**
 * Evaluate the failpoint @p name: no-op unless armed and fired, in
 * which case it throws CosaError(@p code). Place at containment
 * boundaries; one relaxed load when nothing is armed.
 */
#define COSA_FAILPOINT(name, code)                                        \
    do {                                                                  \
        if (::cosa::failpoint::armed() &&                                 \
            ::cosa::failpoint::shouldTrigger(name))                       \
            ::cosa::failpoint::throwTriggered(name, code);                \
    } while (0)
