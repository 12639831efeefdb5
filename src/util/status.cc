#include "util/status.h"

namespace hm::util {

std::string_view StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kIoError:
      return "IoError";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kConflict:
      return "Conflict";
    case StatusCode::kPermissionDenied:
      return "PermissionDenied";
    case StatusCode::kNotSupported:
      return "NotSupported";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kUnavailable:
      return "Unavailable";
    case StatusCode::kDeadlineExceeded:
      return "DeadlineExceeded";
    case StatusCode::kOverloaded:
      return "Overloaded";
    case StatusCode::kReadOnly:
      return "ReadOnly";
    case StatusCode::kFencedOff:
      return "FencedOff";
    case StatusCode::kVersionMismatch:
      return "VersionMismatch";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(StatusCodeName(code_));
  out.append(": ");
  out.append(message_);
  return out;
}

}  // namespace hm::util
