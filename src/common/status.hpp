#pragma once

/**
 * @file
 * Typed error taxonomy of the failure-containment layer.
 *
 * Every fault the stack can contain — numeric trouble inside the
 * simplex, a singular basis, an exhausted budget, a throwing evaluator,
 * a corrupt cache record — is named by an `ErrorCode` and carried as a
 * `Status` (code + human-readable context). `Status` threads through
 * `solver::MipResult::fault` → `SearchResult::status` → the service's
 * exception firewall → `LayerScheduleResult::status`, so a degraded or
 * failed layer always says *why* in a machine-matchable way.
 *
 * `CosaError` is the exception form of a Status: fault-injection points
 * and deep solver guards throw it, the firewall in SchedulerService
 * catches it (and any other exception) and converts back to a Status —
 * exceptions never cross a task or job boundary. `StatusOr<T>` is the
 * value-or-status return shape for new APIs that want neither
 * exceptions nor out-parameters.
 *
 * Note: `cosa::solver` has its own (older) `Status` enum for solve
 * outcomes; inside that namespace refer to this type as `cosa::Status`.
 * See docs/robustness.md for the taxonomy and the degradation ladder.
 */

#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "common/logging.hpp"

namespace cosa {

/** What kind of failure a Status describes. */
enum class ErrorCode {
    kOk = 0,
    /** Malformed or non-finite input (NaN/Inf in an ArchSpec, a
     *  non-positive layer dimension, a bad config value). Not
     *  retriable: the same input fails the same way. */
    kInvalidInput,
    /** Numeric trouble inside the solver (lost feasibility, unbounded
     *  phase-1, non-finite pivot). Retriable. */
    kNumericFailure,
    /** The simplex basis could not be factorized. Retriable. */
    kSingularBasis,
    /** A deterministic work/node budget ran out before any usable
     *  answer existed. */
    kBudgetExhausted,
    /** The evaluation backend threw or returned garbage. */
    kEvaluatorFault,
    /** File-system level failure (open/write/rename). */
    kIoError,
    /** The job was cancelled; not an error, never retried. */
    kCancelled,
    /** An uncategorized exception escaped a task. */
    kInternal,
};

/** Stable lower-snake name of @p code ("numeric_failure", ...), used
 *  as the `code` label of `cosa_errors_total`. */
const char* errorCodeName(ErrorCode code);

/**
 * A typed outcome: an ErrorCode plus free-form context. Default
 * construction (and `Status::Ok()`) is success. Cheap to copy when ok
 * (empty message).
 */
class Status
{
  public:
    Status() = default;
    Status(ErrorCode code, std::string message)
        : code_(code), message_(std::move(message))
    {
    }

    static Status Ok() { return Status(); }

    bool ok() const { return code_ == ErrorCode::kOk; }
    ErrorCode code() const { return code_; }
    const std::string& message() const { return message_; }

    /** "numeric_failure: lost feasibility in dive" (or "ok"). */
    std::string toString() const;

    /** Prepend "@p what: " to the message — provenance breadcrumbs as
     *  the status bubbles up ("layer conv1: retry 2: ..."). */
    Status withContext(std::string_view what) const;

    bool
    operator==(const Status& other) const
    {
        return code_ == other.code_ && message_ == other.message_;
    }

  private:
    ErrorCode code_ = ErrorCode::kOk;
    std::string message_;
};

/** True when retrying the same solve can plausibly succeed (numeric
 *  trouble, singular basis — when transient); false for input errors,
 *  cancellation and everything else. */
bool isRetriable(ErrorCode code);

/**
 * The HTTP status the serving daemon answers with when a request fails
 * with @p code: the taxonomy's wire projection. Client-caused codes
 * (kInvalidInput) map into 4xx, capacity into 503, cancellation into
 * 409 (the job raced its own deletion), everything else into 500.
 * Wire-only conditions (unknown route → 404, bad key → 401, quota →
 * 429) never reach this function — they have no ErrorCode.
 */
int httpStatusForError(ErrorCode code);

/**
 * The exception form of a Status. Thrown by failpoints and deep solver
 * guards; the service firewall converts it back to a Status at the
 * task boundary. what() is the status's toString().
 */
class CosaError : public std::runtime_error
{
  public:
    explicit CosaError(Status status)
        : std::runtime_error(status.toString()), status_(std::move(status))
    {
    }
    CosaError(ErrorCode code, std::string message)
        : CosaError(Status(code, std::move(message)))
    {
    }

    const Status& status() const { return status_; }

  private:
    Status status_;
};

/**
 * A T or the Status explaining why there is none. Minimal by design:
 * construction from either side, ok()/status()/value() accessors.
 * value() on a failed StatusOr is a fatal programming error.
 */
template <typename T>
class StatusOr
{
  public:
    /*implicit*/ StatusOr(T value)
        : value_(std::move(value)), status_(Status::Ok())
    {
    }
    /*implicit*/ StatusOr(Status status) : status_(std::move(status))
    {
        COSA_ASSERT(!status_.ok(),
                    "StatusOr constructed from an ok Status without a value");
    }

    bool ok() const { return status_.ok(); }
    const Status& status() const { return status_; }

    const T&
    value() const&
    {
        COSA_ASSERT(ok(), "StatusOr::value() on failure: ",
                    status_.toString());
        return value_;
    }
    T&
    value() &
    {
        COSA_ASSERT(ok(), "StatusOr::value() on failure: ",
                    status_.toString());
        return value_;
    }
    T&&
    value() &&
    {
        COSA_ASSERT(ok(), "StatusOr::value() on failure: ",
                    status_.toString());
        return std::move(value_);
    }

    const T& operator*() const& { return value(); }
    T& operator*() & { return value(); }

  private:
    T value_{};
    Status status_;
};

} // namespace cosa
