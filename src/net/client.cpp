#include "net/client.hpp"

#include <errno.h>
#include <sys/socket.h>

#include <cstring>
#include <string>

namespace privlocad::net {

util::Result<BlockingClient> BlockingClient::connect(std::uint16_t port) {
  util::Result<UniqueFd> fd = connect_loopback(port);
  if (!fd.ok()) return fd.status();
  return BlockingClient(std::move(fd.value()));
}

util::Status BlockingClient::send(const ServeRequestFrame& request) {
  std::vector<std::uint8_t> buffer;
  append_request(buffer, request);
  return write_all(fd_.get(), buffer.data(), buffer.size());
}

util::Result<ServeResponseFrame> BlockingClient::receive() {
  while (true) {
    Frame frame;
    std::size_t consumed = 0;
    if (util::Status s =
            try_decode(in_.data() + in_head_, in_.size() - in_head_, frame,
                       consumed);
        !s.ok()) {
      return s;
    }
    if (consumed > 0) {
      in_head_ += consumed;
      if (in_head_ * 2 >= in_.size()) {
        in_.erase(in_.begin(),
                  in_.begin() + static_cast<std::ptrdiff_t>(in_head_));
        in_head_ = 0;
      }
      if (frame.type != FrameType::kServeResponse) {
        return util::Status::parse_error(
            "client received a non-response frame");
      }
      return frame.response;
    }
    std::uint8_t chunk[4096];
    ssize_t got;
    do {
      got = ::recv(fd_.get(), chunk, sizeof(chunk), 0);
    } while (got < 0 && errno == EINTR);
    if (got == 0) {
      return util::Status::unavailable("server closed the connection");
    }
    if (got < 0) {
      return util::Status::io_error(std::string("recv() failed: ") +
                                    std::strerror(errno));
    }
    in_.insert(in_.end(), chunk, chunk + got);
  }
}

util::Result<ServeResponseFrame> BlockingClient::call(
    const ServeRequestFrame& request) {
  if (util::Status s = send(request); !s.ok()) return s;
  return receive();
}

}  // namespace privlocad::net
