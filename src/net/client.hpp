// Client side of the wire format: a small blocking client for tests and
// tooling (`edge_serverd --selftest` drives the daemon through it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/socket.hpp"
#include "net/wire.hpp"

namespace privlocad::net {

/// Blocking request/response client (one connection). Supports
/// pipelining: send N, then receive N.
class BlockingClient {
 public:
  static util::Result<BlockingClient> connect(std::uint16_t port);

  util::Status send(const ServeRequestFrame& request);
  util::Result<ServeResponseFrame> receive();

  /// send + receive in one call.
  util::Result<ServeResponseFrame> call(const ServeRequestFrame& request);

 private:
  explicit BlockingClient(UniqueFd fd) : fd_(std::move(fd)) {}

  UniqueFd fd_;
  std::vector<std::uint8_t> in_;
  std::size_t in_head_ = 0;
};

}  // namespace privlocad::net
