#include "common/status.hpp"

namespace cosa {

const char*
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::kOk: return "ok";
      case ErrorCode::kInvalidInput: return "invalid_input";
      case ErrorCode::kNumericFailure: return "numeric_failure";
      case ErrorCode::kSingularBasis: return "singular_basis";
      case ErrorCode::kBudgetExhausted: return "budget_exhausted";
      case ErrorCode::kEvaluatorFault: return "evaluator_fault";
      case ErrorCode::kIoError: return "io_error";
      case ErrorCode::kCancelled: return "cancelled";
      case ErrorCode::kInternal: return "internal";
    }
    return "unknown";
}

std::string
Status::toString() const
{
    if (ok())
        return "ok";
    std::string text = errorCodeName(code_);
    if (!message_.empty()) {
        text += ": ";
        text += message_;
    }
    return text;
}

Status
Status::withContext(std::string_view what) const
{
    if (ok())
        return *this;
    std::string annotated(what);
    annotated += ": ";
    annotated += message_;
    return Status(code_, std::move(annotated));
}

bool
isRetriable(ErrorCode code)
{
    return code == ErrorCode::kNumericFailure ||
           code == ErrorCode::kSingularBasis;
}

int
httpStatusForError(ErrorCode code)
{
    switch (code) {
      case ErrorCode::kOk: return 200;
      case ErrorCode::kInvalidInput: return 400;
      case ErrorCode::kCancelled: return 409;
      case ErrorCode::kBudgetExhausted: return 503;
      case ErrorCode::kNumericFailure:
      case ErrorCode::kSingularBasis:
      case ErrorCode::kEvaluatorFault:
      case ErrorCode::kIoError:
      case ErrorCode::kInternal: return 500;
    }
    return 500;
}

} // namespace cosa
