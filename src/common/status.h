// Status / Result error-handling primitives in the Arrow/RocksDB idiom.
//
// Library code returns Status (or Result<T>) instead of throwing across the
// public API boundary. A Status is cheap to copy in the OK case (no
// allocation) and carries a code plus a human-readable message otherwise.

#ifndef TREEWM_COMMON_STATUS_H_
#define TREEWM_COMMON_STATUS_H_

#include <cassert>
#include <memory>
#include <string>
#include <utility>
#include <variant>

namespace treewm {

/// Machine-readable category for a failed operation.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfRange = 4,
  kFailedPrecondition = 5,
  kResourceExhausted = 6,
  kNotImplemented = 7,
  kInternal = 8,
  kIoError = 9,
  kParseError = 10,
  kTimeout = 11,
  kDeadlineExceeded = 12,
};

/// Returns a stable lower-case name for `code` (e.g. "invalid_argument").
const char* StatusCodeName(StatusCode code);

/// Outcome of an operation: OK, or a code plus message.
///
/// [[nodiscard]] on the class makes EVERY function returning Status by
/// value warn when the result is dropped (-Werror=unused-result in all CI
/// builds): a dropped refusal on the serve path must not compile silently.
/// An intentional discard is written `(void)expr;` with a
/// `// discard ok: <reason>` comment — tools/lint_invariants.py rejects
/// the cast without the justification.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  /// Constructs a status with the given code and message. `code` must not be
  /// kOk; use the default constructor for success.
  Status(StatusCode code, std::string message);

  /// Factory helpers for the codes the library raises. kOutOfRange and
  /// kNotImplemented have none; they stay in the enum because the wire's
  /// error frame carries codes by number.
  [[nodiscard]] static Status OK() { return Status(); }
  [[nodiscard]] static Status InvalidArgument(std::string msg);
  [[nodiscard]] static Status NotFound(std::string msg);
  [[nodiscard]] static Status AlreadyExists(std::string msg);
  [[nodiscard]] static Status FailedPrecondition(std::string msg);
  [[nodiscard]] static Status ResourceExhausted(std::string msg);
  [[nodiscard]] static Status Internal(std::string msg);
  [[nodiscard]] static Status IoError(std::string msg);
  [[nodiscard]] static Status ParseError(std::string msg);
  [[nodiscard]] static Status Timeout(std::string msg);
  [[nodiscard]] static Status DeadlineExceeded(std::string msg);

  /// True iff the operation succeeded.
  bool ok() const { return state_ == nullptr; }

  /// The status code (kOk when ok()).
  StatusCode code() const { return state_ ? state_->code : StatusCode::kOk; }

  /// The error message ("" when ok()).
  const std::string& message() const;

  /// "OK" or "<code_name>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code() == other.code() && message() == other.message();
  }

 private:
  struct State {
    StatusCode code;
    std::string message;
  };
  // Null for OK: copying a success status never allocates.
  std::shared_ptr<const State> state_;
};

/// A value or an error Status. Analogous to arrow::Result. [[nodiscard]]
/// for the same reason as Status: dropping a Result drops its error.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Constructs a Result holding `value`.
  Result(T value) : repr_(std::move(value)) {}  // NOLINT(google-explicit-constructor)

  /// Constructs a Result holding a non-OK `status`. Storing an OK status is a
  /// programming error and is normalized to an Internal error.
  Result(Status status) : repr_(std::move(status)) {  // NOLINT
    if (std::get<Status>(repr_).ok()) {
      repr_ = Status::Internal("Result constructed from OK status");
    }
  }

  /// True iff a value is held.
  bool ok() const { return std::holds_alternative<T>(repr_); }

  /// The status: OK when a value is held.
  [[nodiscard]] Status status() const {
    return ok() ? Status::OK() : std::get<Status>(repr_);
  }

  /// The held value; must only be called when ok().
  const T& value() const& {
    assert(ok());
    return std::get<T>(repr_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(repr_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(repr_));
  }

  /// Moves the value out of the Result; must only be called when ok().
  T MoveValue() {
    assert(ok());
    return std::get<T>(std::move(repr_));
  }

 private:
  std::variant<Status, T> repr_;
};

}  // namespace treewm

/// Propagates a non-OK Status to the caller.
#define TREEWM_RETURN_IF_ERROR(expr)                  \
  do {                                                \
    ::treewm::Status _st = (expr);                    \
    if (!_st.ok()) return _st;                        \
  } while (false)

#define TREEWM_CONCAT_IMPL(a, b) a##b
#define TREEWM_CONCAT(a, b) TREEWM_CONCAT_IMPL(a, b)

/// Evaluates `rexpr` (a Result<T>), propagating errors, else binds the value.
#define TREEWM_ASSIGN_OR_RETURN(lhs, rexpr)                           \
  TREEWM_ASSIGN_OR_RETURN_IMPL(TREEWM_CONCAT(_res_, __LINE__), lhs, rexpr)

#define TREEWM_ASSIGN_OR_RETURN_IMPL(res, lhs, rexpr) \
  auto res = (rexpr);                                 \
  if (!res.ok()) return res.status();                 \
  lhs = std::move(res).MoveValue()

#endif  // TREEWM_COMMON_STATUS_H_
