// Error handling primitives for Tebis. We do not use exceptions in the data
// path; fallible operations return Status or StatusOr<T>.
#ifndef TEBIS_COMMON_STATUS_H_
#define TEBIS_COMMON_STATUS_H_

#include <cassert>
#include <string>
#include <utility>
#include <variant>

namespace tebis {

enum class StatusCode {
  kOk = 0,
  kNotFound,
  kAlreadyExists,
  kInvalidArgument,
  kOutOfRange,
  kResourceExhausted,
  kFailedPrecondition,
  kUnavailable,
  kCorruption,
  kIoError,
  kInternal,
  // The region is not hosted here in the role the request needs (closed, or
  // the caller's map is stale); the RPC server answers kFlagWrongRegion.
  kWrongRegion,
};

// Returns a stable, human-readable name for a status code.
const char* StatusCodeName(StatusCode code);

// Cheap value-type status. Ok status carries no allocation.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message) : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status NotFound(std::string m = "") { return Status(StatusCode::kNotFound, std::move(m)); }
  static Status AlreadyExists(std::string m = "") {
    return Status(StatusCode::kAlreadyExists, std::move(m));
  }
  static Status InvalidArgument(std::string m = "") {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status OutOfRange(std::string m = "") {
    return Status(StatusCode::kOutOfRange, std::move(m));
  }
  static Status ResourceExhausted(std::string m = "") {
    return Status(StatusCode::kResourceExhausted, std::move(m));
  }
  static Status FailedPrecondition(std::string m = "") {
    return Status(StatusCode::kFailedPrecondition, std::move(m));
  }
  static Status Unavailable(std::string m = "") {
    return Status(StatusCode::kUnavailable, std::move(m));
  }
  static Status Corruption(std::string m = "") {
    return Status(StatusCode::kCorruption, std::move(m));
  }
  static Status IoError(std::string m = "") { return Status(StatusCode::kIoError, std::move(m)); }
  static Status Internal(std::string m = "") {
    return Status(StatusCode::kInternal, std::move(m));
  }
  static Status WrongRegion(std::string m = "") {
    return Status(StatusCode::kWrongRegion, std::move(m));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsAlreadyExists() const { return code_ == StatusCode::kAlreadyExists; }
  bool IsFailedPrecondition() const { return code_ == StatusCode::kFailedPrecondition; }
  bool IsWrongRegion() const { return code_ == StatusCode::kWrongRegion; }

  std::string ToString() const {
    if (ok()) {
      return "OK";
    }
    std::string s = StatusCodeName(code_);
    if (!message_.empty()) {
      s += ": ";
      s += message_;
    }
    return s;
  }

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

// Holds either a value or a non-ok Status.
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status) : rep_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    assert(!std::get<Status>(rep_).ok() && "StatusOr constructed from OK status without value");
  }
  StatusOr(T value) : rep_(std::move(value)) {}  // NOLINT(google-explicit-constructor)

  bool ok() const { return std::holds_alternative<T>(rep_); }

  Status status() const {
    if (ok()) {
      return Status::Ok();
    }
    return std::get<Status>(rep_);
  }

  const T& value() const& {
    assert(ok());
    return std::get<T>(rep_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(rep_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(rep_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<Status, T> rep_;
};

// Propagates a non-ok status to the caller.
#define TEBIS_RETURN_IF_ERROR(expr)      \
  do {                                   \
    ::tebis::Status _st = (expr);        \
    if (!_st.ok()) {                     \
      return _st;                        \
    }                                    \
  } while (0)

#define TEBIS_CONCAT_INNER(a, b) a##b
#define TEBIS_CONCAT(a, b) TEBIS_CONCAT_INNER(a, b)

// Assigns the value of a StatusOr expression or propagates its error.
#define TEBIS_ASSIGN_OR_RETURN(lhs, expr)                       \
  auto TEBIS_CONCAT(_statusor_, __LINE__) = (expr);             \
  if (!TEBIS_CONCAT(_statusor_, __LINE__).ok()) {               \
    return TEBIS_CONCAT(_statusor_, __LINE__).status();         \
  }                                                             \
  lhs = std::move(TEBIS_CONCAT(_statusor_, __LINE__)).value()

}  // namespace tebis

#endif  // TEBIS_COMMON_STATUS_H_
