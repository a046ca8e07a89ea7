#include "common/status.h"

namespace treewm {

namespace {
const std::string kEmptyString;
}  // namespace

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid_argument";
    case StatusCode::kNotFound:
      return "not_found";
    case StatusCode::kAlreadyExists:
      return "already_exists";
    case StatusCode::kOutOfRange:
      return "out_of_range";
    case StatusCode::kFailedPrecondition:
      return "failed_precondition";
    case StatusCode::kResourceExhausted:
      return "resource_exhausted";
    case StatusCode::kNotImplemented:
      return "not_implemented";
    case StatusCode::kInternal:
      return "internal";
    case StatusCode::kIoError:
      return "io_error";
    case StatusCode::kParseError:
      return "parse_error";
    case StatusCode::kTimeout:
      return "timeout";
    case StatusCode::kDeadlineExceeded:
      return "deadline_exceeded";
  }
  return "unknown";
}

Status::Status(StatusCode code, std::string message) {
  assert(code != StatusCode::kOk);
  state_ = std::make_shared<const State>(State{code, std::move(message)});
}

Status Status::InvalidArgument(std::string msg) {
  return Status(StatusCode::kInvalidArgument, std::move(msg));
}
Status Status::NotFound(std::string msg) {
  return Status(StatusCode::kNotFound, std::move(msg));
}
Status Status::AlreadyExists(std::string msg) {
  return Status(StatusCode::kAlreadyExists, std::move(msg));
}
Status Status::FailedPrecondition(std::string msg) {
  return Status(StatusCode::kFailedPrecondition, std::move(msg));
}
Status Status::ResourceExhausted(std::string msg) {
  return Status(StatusCode::kResourceExhausted, std::move(msg));
}
Status Status::Internal(std::string msg) {
  return Status(StatusCode::kInternal, std::move(msg));
}
Status Status::IoError(std::string msg) {
  return Status(StatusCode::kIoError, std::move(msg));
}
Status Status::ParseError(std::string msg) {
  return Status(StatusCode::kParseError, std::move(msg));
}
Status Status::Timeout(std::string msg) {
  return Status(StatusCode::kTimeout, std::move(msg));
}
Status Status::DeadlineExceeded(std::string msg) {
  return Status(StatusCode::kDeadlineExceeded, std::move(msg));
}

const std::string& Status::message() const {
  return state_ ? state_->message : kEmptyString;
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code());
  out += ": ";
  out += message();
  return out;
}

}  // namespace treewm
