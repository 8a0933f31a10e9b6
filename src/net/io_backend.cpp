#include "net/io_backend.hpp"

#include <cstdlib>
#include <cstring>
#include <string>

#include "net/epoll_backend.hpp"
#include "net/io_uring_backend.hpp"

namespace privlocad::net {

const char* io_backend_kind_name(IoBackendKind kind) {
  switch (kind) {
    case IoBackendKind::kAuto:
      return "auto";
    case IoBackendKind::kEpoll:
      return "epoll";
    case IoBackendKind::kIoUring:
      return "io_uring";
  }
  return "unknown";
}

util::Result<IoBackendKind> parse_io_backend_kind(const char* name) {
  if (name == nullptr || *name == '\0' ||
      std::strcmp(name, "auto") == 0) {
    return IoBackendKind::kAuto;
  }
  if (std::strcmp(name, "epoll") == 0) return IoBackendKind::kEpoll;
  if (std::strcmp(name, "io_uring") == 0) return IoBackendKind::kIoUring;
  return util::Status::parse_error(
      std::string("net backend must be auto | epoll | io_uring, got '") +
      name + "'");
}

namespace {

/// An explicit io_uring request that cannot be satisfied must fail
/// loudly: a bench must never report io_uring numbers that were silently
/// measured on epoll.
util::Status io_uring_unsatisfiable(const char* who) {
  if (!io_uring_compiled_in()) {
    return util::Status::failed_precondition(
        std::string(who) +
        ": io_uring requested but this binary was built without the "
        "io_uring backend (PRIVLOCAD_IO_URING=OFF or the configure "
        "probe failed)");
  }
  return util::Status::failed_precondition(
      std::string(who) +
      ": io_uring requested but the running kernel rejected the ring "
      "(io_uring_setup unavailable or missing EXT_ARG timed waits)");
}

}  // namespace

util::Result<IoBackendKind> resolve_io_backend(IoBackendKind requested) {
  if (requested == IoBackendKind::kIoUring) {
    if (!io_uring_available()) {
      return io_uring_unsatisfiable("ServerConfig.backend");
    }
    return IoBackendKind::kIoUring;
  }
  if (requested == IoBackendKind::kEpoll) return IoBackendKind::kEpoll;

  // kAuto: the environment decides, then capability.
  const char* env = std::getenv("PRIVLOCAD_NET_BACKEND");
  util::Result<IoBackendKind> from_env = parse_io_backend_kind(env);
  if (!from_env.ok()) {
    return util::Status::parse_error("PRIVLOCAD_NET_BACKEND: " +
                                     from_env.status().message());
  }
  if (from_env.value() == IoBackendKind::kIoUring) {
    if (!io_uring_available()) {
      return io_uring_unsatisfiable("PRIVLOCAD_NET_BACKEND");
    }
    return IoBackendKind::kIoUring;
  }
  if (from_env.value() == IoBackendKind::kEpoll) {
    return IoBackendKind::kEpoll;
  }
  return io_uring_available() ? IoBackendKind::kIoUring
                              : IoBackendKind::kEpoll;
}

util::Result<std::unique_ptr<IoBackend>> make_io_backend(
    IoBackendKind kind) {
  switch (kind) {
    case IoBackendKind::kEpoll:
      return std::unique_ptr<IoBackend>(new EpollBackend());
    case IoBackendKind::kIoUring:
      if (!io_uring_available()) {
        return io_uring_unsatisfiable("make_io_backend");
      }
      return make_io_uring_backend();
    case IoBackendKind::kAuto:
      break;
  }
  return util::Status::invalid_argument(
      "make_io_backend needs a resolved kind (epoll or io_uring), got "
      "'auto' -- call resolve_io_backend first");
}

}  // namespace privlocad::net
