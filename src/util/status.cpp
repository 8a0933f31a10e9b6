#include "util/status.hpp"

namespace privlocad::util {

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "OK";
    case ErrorCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case ErrorCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case ErrorCode::kParseError: return "PARSE_ERROR";
    case ErrorCode::kIoError: return "IO_ERROR";
    case ErrorCode::kNotFound: return "NOT_FOUND";
    case ErrorCode::kUnavailable: return "UNAVAILABLE";
    case ErrorCode::kTimeout: return "TIMEOUT";
    case ErrorCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case ErrorCode::kInternal: return "INTERNAL";
  }
  return "UNKNOWN";
}

bool is_transient(ErrorCode code) {
  return code == ErrorCode::kUnavailable || code == ErrorCode::kTimeout ||
         code == ErrorCode::kResourceExhausted;
}

Status::Status(ErrorCode code, std::string message)
    : code_(code), message_(std::move(message)) {
  if (code_ == ErrorCode::kOk) {
    throw InvalidArgument("an error Status cannot carry ErrorCode::kOk");
  }
}

Status Status::invalid_argument(std::string message) {
  return Status(ErrorCode::kInvalidArgument, std::move(message));
}
Status Status::failed_precondition(std::string message) {
  return Status(ErrorCode::kFailedPrecondition, std::move(message));
}
Status Status::parse_error(std::string message) {
  return Status(ErrorCode::kParseError, std::move(message));
}
Status Status::io_error(std::string message) {
  return Status(ErrorCode::kIoError, std::move(message));
}
Status Status::unavailable(std::string message) {
  return Status(ErrorCode::kUnavailable, std::move(message));
}
Status Status::internal(std::string message) {
  return Status(ErrorCode::kInternal, std::move(message));
}

std::string Status::to_string() const {
  if (ok()) return "OK";
  return std::string(error_code_name(code_)) + ": " + message_;
}

Status status_from_exception(const std::exception& error) {
  if (const auto* status = dynamic_cast<const StatusError*>(&error)) {
    return status->status();
  }
  if (const auto* parse = dynamic_cast<const ParseError*>(&error)) {
    return Status(parse->code(), parse->what());
  }
  if (const auto* io = dynamic_cast<const IoError*>(&error)) {
    return Status(io->code(), io->what());
  }
  if (dynamic_cast<const InvalidArgument*>(&error) != nullptr) {
    return Status::invalid_argument(error.what());
  }
  if (dynamic_cast<const PreconditionViolation*>(&error) != nullptr) {
    return Status::failed_precondition(error.what());
  }
  return Status::internal(error.what());
}

}  // namespace privlocad::util
