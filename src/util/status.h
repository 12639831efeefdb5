#ifndef HM_UTIL_STATUS_H_
#define HM_UTIL_STATUS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace hm::util {

/// Error category for a failed operation. `kOk` means success.
enum class StatusCode : uint8_t {
  kOk = 0,
  kNotFound = 1,
  kCorruption = 2,
  kInvalidArgument = 3,
  kIoError = 4,
  kAlreadyExists = 5,
  kOutOfRange = 6,
  kConflict = 7,        // optimistic-concurrency validation failure
  kPermissionDenied = 8,
  kNotSupported = 9,
  kInternal = 10,
  kUnavailable = 11,       // transient transport failure; a retry may succeed
  kDeadlineExceeded = 12,  // per-call deadline elapsed before completion
  kOverloaded = 13,        // server shed the request under load
  kReadOnly = 14,          // replica refused a mutation; write to the primary
  kFencedOff = 15,         // a newer epoch fenced this primary; do not retry
  kVersionMismatch = 16,   // peers speak different wire versions
  kFailedPrecondition = 17,  // the data cannot serve this request
};

/// Human-readable name for a status code ("NotFound", ...).
std::string_view StatusCodeName(StatusCode code);

/// Lightweight success-or-error result, modeled after the RocksDB /
/// Arrow style: fallible operations return `Status` (or `Result<T>`)
/// instead of throwing. Successful statuses carry no allocation.
///
/// `[[nodiscard]]`: silently dropping a Status hides I/O and recovery
/// errors until a torture run trips over the corruption. Call sites
/// that genuinely cannot act on a failure (best-effort destructor
/// flushes) discard explicitly with a commented `(void)` cast.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  static Status Ok() { return Status(); }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Conflict(std::string msg) {
    return Status(StatusCode::kConflict, std::move(msg));
  }
  static Status PermissionDenied(std::string msg) {
    return Status(StatusCode::kPermissionDenied, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Overloaded(std::string msg) {
    return Status(StatusCode::kOverloaded, std::move(msg));
  }
  static Status ReadOnly(std::string msg) {
    return Status(StatusCode::kReadOnly, std::move(msg));
  }
  static Status FencedOff(std::string msg) {
    return Status(StatusCode::kFencedOff, std::move(msg));
  }
  static Status VersionMismatch(std::string msg) {
    return Status(StatusCode::kVersionMismatch, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsConflict() const { return code_ == StatusCode::kConflict; }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }
  bool IsDeadlineExceeded() const {
    return code_ == StatusCode::kDeadlineExceeded;
  }
  bool IsOverloaded() const { return code_ == StatusCode::kOverloaded; }
  bool IsPermissionDenied() const {
    return code_ == StatusCode::kPermissionDenied;
  }
  bool IsReadOnly() const { return code_ == StatusCode::kReadOnly; }
  bool IsFencedOff() const { return code_ == StatusCode::kFencedOff; }
  bool IsVersionMismatch() const {
    return code_ == StatusCode::kVersionMismatch;
  }

  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// A value-or-Status union: either holds a `T` (status is OK) or an
/// error `Status`. Accessing `value()` on an error aborts.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit from a value: success.
  Result(T value) : value_(std::move(value)) {}  // NOLINT
  /// Implicit from a non-OK status: failure. Aborts if passed OK.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    if (status_.ok()) {
      status_ = Status::Internal("Result constructed from OK status");
    }
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  T& value() & { return *value_; }
  const T& value() const& { return *value_; }
  T&& value() && { return *std::move(value_); }

  T& operator*() { return *value_; }
  const T& operator*() const { return *value_; }
  T* operator->() { return &*value_; }
  const T* operator->() const { return &*value_; }

  /// Returns the value, or `fallback` when this holds an error.
  T ValueOr(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace hm::util

/// Propagates a non-OK Status from the evaluated expression.
#define HM_RETURN_IF_ERROR(expr)                   \
  do {                                             \
    ::hm::util::Status _hm_status = (expr);        \
    if (!_hm_status.ok()) return _hm_status;       \
  } while (0)

/// Evaluates a Result<T> expression; assigns the value to `lhs` or
/// propagates the error status.
#define HM_ASSIGN_OR_RETURN(lhs, expr)             \
  HM_ASSIGN_OR_RETURN_IMPL(                        \
      HM_STATUS_CONCAT(_hm_result, __LINE__), lhs, expr)

#define HM_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr)   \
  auto tmp = (expr);                               \
  if (!tmp.ok()) return tmp.status();              \
  lhs = std::move(tmp).value()

#define HM_STATUS_CONCAT(a, b) HM_STATUS_CONCAT_IMPL(a, b)
#define HM_STATUS_CONCAT_IMPL(a, b) a##b

#endif  // HM_UTIL_STATUS_H_
