#pragma once

/**
 * @file
 * The JSON wire mapping between cosad's HTTP bodies and the engine's
 * ScheduleRequest / NetworkResult types.
 *
 * The load-bearing function is resultsToJson(): the canonical
 * serialization of a finished job's results. It deliberately omits
 * every nondeterministic field (wall times, solver phase timings) AND
 * every provenance field (cache hits, warm-start counts, per-layer
 * from_cache, search-effort counters) so that for a fixed request the
 * bytes are identical whether the job ran over the wire or
 * in-process, at any executor width and co-tenant mix, and — since
 * the cachestore tier landed — whether each layer was solved fresh or
 * served from a warm persistent cache. That is the daemon's
 * byte-identity contract, checked by CI's `cosactl local` diff and
 * its cold-vs-warm `cmp`.
 *
 * Provenance is still on the wire, just segregated: the job-status
 * body carries a "provenance" member (provenanceToJson()) next to
 * "results", so clients can see what was cached/warm-started without
 * those counters ever contaminating the schedule bytes.
 *
 * Request decoding accepts named paper workloads ("alexnet",
 * "resnet50", "resnet50full", "resnext50", "deepbench") and inline
 * layer lists, named architectures ("simba", "simba8x8",
 * "simba-big-buffers"), and a scoped subset of the scheduler knobs.
 * Unknown top-level request keys are a kInvalidInput error rather
 * than silently ignored — a misspelled knob must not silently run
 * with defaults and "pass".
 */

#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "common/status.hpp"
#include "engine/scheduler_service.hpp"

namespace cosa {
namespace server {

/** Decode one POST /v1/jobs body into a ScheduleRequest. The returned
 *  request has no evaluator/cache set (normalize() fills the
 *  deterministic defaults). @p tenant (from auth) overrides any
 *  "tenant" member in the body. */
StatusOr<ScheduleRequest> requestFromJson(const json::Value& body,
                                          const std::string& tenant);

/** Canonical deterministic serialization of a finished job's results
 *  ("the schedule bytes"; see the file comment). */
json::Value resultsToJson(const std::vector<NetworkResult>& results);

/** Per-network provenance of the same results: how much came from the
 *  cache, warm-start accounting, and the search-effort counters —
 *  everything that legitimately differs between a cold and a warm run
 *  and therefore must stay out of resultsToJson(). */
json::Value provenanceToJson(const std::vector<NetworkResult>& results);

/** One progress event as a single-line JSON object (the event-stream
 *  chunk payload, newline included). */
std::string progressEventLine(const JobProgress& event);

/**
 * The compact record cosad keeps of a finished job: a binary encoding
 * (layout in wire.cpp) of exactly the fields resultsToJson(),
 * provenanceToJson() and progressEventLine() read — doubles bit-exact,
 * integers as varints — so rendering what the decoders return gives the
 * same bytes as rendering the job itself. @p event_log is the job's
 * events, each appended with appendEventRecord() as it fired.
 */
std::string encodeJobRecord(const std::vector<NetworkResult>& results,
                            std::string_view event_log);

/** Append @p event to an event log for encodeJobRecord(). */
void appendEventRecord(std::string& log, const JobProgress& event);

/** A record's results: every field the two renderers read is set, and
 *  nothing else. kInternal on a malformed record. */
StatusOr<std::vector<NetworkResult>>
decodeRecordResults(std::string_view record);

/** A record's progress events, in the order they fired: every field
 *  progressEventLine() reads is set. kInternal on a malformed record. */
StatusOr<std::vector<JobProgress>>
decodeRecordEvents(std::string_view record);

/** Structured error body: {"error":{"code":...,"message":...}}. */
std::string errorBody(ErrorCode code, const std::string& message);
/** Wire-only errors with no ErrorCode ("not_found", "unauthorized",
 *  "quota_exhausted", ...). */
std::string errorBody(const std::string& code, const std::string& message);

} // namespace server
} // namespace cosa
