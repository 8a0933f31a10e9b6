// Typed error taxonomy: ErrorCode + Status + Result<T>.
//
// The serving surface must distinguish "the input is malformed" (give up)
// from "the backend hiccuped" (retry) from "the caller misused the API"
// (a bug): a privacy system that treats every failure the same either
// retries corrupt state forever or -- far worse -- falls back to raw
// coordinates when a transient store blip looks fatal. Every failure a
// caller can react to is therefore classified by ErrorCode; Status carries
// the code plus a human-readable cause, and Result<T> is the value-or-
// Status return shape of the fallible APIs (FaultPlan::parse,
// EdgeServer::create). is_transient() is the single source of truth the
// fault/retry layer consults for what is safe to retry.
//
// Exceptions remain the vehicle at the legacy throwing boundaries
// (C++ Core Guidelines I.5/E.2, see util/validation.hpp); ParseError and
// IoError are thin wrappers that keep those boundaries source-compatible
// (they still derive from InvalidArgument / std::runtime_error) while
// carrying the code and, for parse failures, the 1-based line number.
// status_from_exception() folds any caught exception back into a Status.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

#include "util/validation.hpp"

namespace privlocad::util {

/// Every failure class a caller can react to programmatically.
enum class ErrorCode {
  kOk = 0,
  kInvalidArgument,     ///< argument outside its documented domain
  kFailedPrecondition,  ///< object in the wrong state for the call
  kParseError,          ///< structurally malformed input (CSV, spec string)
  kIoError,             ///< file/stream open, read, or write failure
  kNotFound,            ///< named entity absent (user, column, file entry)
  kUnavailable,         ///< backend transiently unreachable -- retryable
  kTimeout,             ///< deadline exceeded -- retryable
  kResourceExhausted,   ///< capacity/quota exhausted -- retryable
  kInternal,            ///< invariant broken or unclassified failure
};

/// Stable upper-snake name ("UNAVAILABLE") for logs and JSON.
const char* error_code_name(ErrorCode code);

/// True for the codes a retry can plausibly cure (kUnavailable, kTimeout,
/// kResourceExhausted). Parse/argument/precondition failures are
/// deterministic and must fail fast instead of burning retry budget.
bool is_transient(ErrorCode code);

/// One operation outcome: kOk (no message) or an error code + cause.
class [[nodiscard]] Status {
 public:
  /// Default is success.
  Status() = default;

  /// An error status; `code` must not be kOk (use ok() for success).
  Status(ErrorCode code, std::string message);

  static Status invalid_argument(std::string message);
  static Status failed_precondition(std::string message);
  static Status parse_error(std::string message);
  static Status io_error(std::string message);
  static Status unavailable(std::string message);
  static Status internal(std::string message);

  bool ok() const { return code_ == ErrorCode::kOk; }
  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// True when a retry may cure this status (see is_transient).
  bool transient() const { return is_transient(code_); }

  /// "OK" or "UNAVAILABLE: table store unreachable".
  std::string to_string() const;

 private:
  ErrorCode code_ = ErrorCode::kOk;
  std::string message_;
};

/// Exception carrying a full Status: thrown where a Status has to cross a
/// throwing boundary (environment-variable parsing), so `catch` sites keep
/// the code + cause instead of a bare string.
class StatusError : public std::runtime_error {
 public:
  explicit StatusError(Status status)
      : std::runtime_error(status.to_string()), status_(std::move(status)) {}

  const Status& status() const { return status_; }
  ErrorCode code() const { return status_.code(); }

 private:
  Status status_;
};

/// Structurally malformed input. Derives from InvalidArgument so existing
/// catch/EXPECT_THROW sites keep working; adds the code and the 1-based
/// line (0 = unknown) so parse failures are programmatically
/// distinguishable from I/O failures and findable in the input.
class ParseError : public InvalidArgument {
 public:
  explicit ParseError(const std::string& message, std::size_t line = 0)
      : InvalidArgument(message), line_(line) {}

  ErrorCode code() const { return ErrorCode::kParseError; }
  std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

/// File/stream failure. Derives from std::runtime_error, preserving the
/// documented "IO failures throw std::runtime_error" contract.
class IoError : public std::runtime_error {
 public:
  explicit IoError(const std::string& message)
      : std::runtime_error(message) {}

  ErrorCode code() const { return ErrorCode::kIoError; }
};

/// Maps a caught exception onto the taxonomy: StatusError passes through,
/// ParseError/IoError keep their codes, InvalidArgument/Precondition map
/// to their codes, anything else becomes kInternal.
Status status_from_exception(const std::exception& error);

/// Value-or-Status: the return shape of every fallible operation that
/// produces a value. Constructing from a value yields ok(); constructing
/// from a Status requires a non-ok status (an "ok but no value" Result is
/// a contradiction and throws InvalidArgument).
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : state_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : state_(std::move(status)) {  // NOLINT
    if (std::get<Status>(state_).ok()) {
      throw InvalidArgument("Result<T> cannot hold an OK status");
    }
  }

  bool ok() const { return std::holds_alternative<T>(state_); }

  /// The status: ok() when a value is held.
  Status status() const {
    return ok() ? Status() : std::get<Status>(state_);
  }

  /// The held value; throws StatusError with the held status on misuse.
  const T& value() const& {
    require_value();
    return std::get<T>(state_);
  }
  T& value() & {
    require_value();
    return std::get<T>(state_);
  }
  T&& value() && {
    require_value();
    return std::get<T>(std::move(state_));
  }

  /// The held value, or `fallback` when this Result holds an error.
  T value_or(T fallback) const {
    return ok() ? std::get<T>(state_) : std::move(fallback);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void require_value() const {
    if (!ok()) throw StatusError(std::get<Status>(state_));
  }

  std::variant<T, Status> state_;
};

}  // namespace privlocad::util
