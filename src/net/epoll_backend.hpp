// The PR 8 serving loop's IO mechanics, repackaged behind IoBackend:
// level-triggered epoll, readiness-driven recv/send, EPOLLOUT armed only
// while a backlog exists, EPOLLIN disarmed while the sink holds reads
// paused. Behavior- and metrics-identical to the pre-contract loop --
// the protocol core (net/server.cpp) makes every policy decision; this
// class only moves bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/io_backend.hpp"
#include "net/socket.hpp"

namespace privlocad::net {

class EpollBackend final : public IoBackend {
 public:
  EpollBackend() = default;

  IoBackendKind kind() const override { return IoBackendKind::kEpoll; }
  util::Status init(int listen_fd, int wake_fd, IoSink& sink) override;
  util::Status poll(int timeout_ms) override;
  void queue_send(std::uint64_t conn_id, const std::uint8_t* data,
                  std::size_t n) override;
  void flush(std::uint64_t conn_id) override;
  std::size_t outbound_bytes(std::uint64_t conn_id) const override;
  void pause_reads(std::uint64_t conn_id) override;
  void resume_reads(std::uint64_t conn_id) override;
  void close_connection(std::uint64_t conn_id) override;
  std::size_t open_connection_count() const override;
  void shutdown_flush() override;

 private:
  /// Per-connection IO state. `out` is head-indexed so flushing never
  /// memmoves the whole buffer per send; compaction happens when the
  /// head passes half the buffer (same policy as PR 8).
  struct Conn {
    UniqueFd fd;
    std::vector<std::uint8_t> out;
    std::size_t out_head = 0;
    bool want_write = false;   ///< EPOLLOUT currently armed
    bool read_paused = false;  ///< EPOLLIN disarmed by the sink
    bool read_eof = false;     ///< peer shut down writes; never read again
    bool dead = false;         ///< close at the end of this poll batch

    std::size_t out_backlog() const { return out.size() - out_head; }
    void compact_out();
  };

  void accept_all();
  /// Sends until EAGAIN; marks the conn dead on a hard error. Returns
  /// true when the backlog shrank.
  bool try_flush(Conn& conn);
  void update_interest(std::uint64_t id, Conn& conn);
  void handle_readable(std::uint64_t id, Conn& conn);
  void reap_dead();

  IoSink* sink_ = nullptr;
  int listen_fd_ = -1;
  int wake_fd_ = -1;
  UniqueFd epoll_fd_;
  std::unordered_map<std::uint64_t, Conn> conns_;
  std::uint64_t next_conn_id_ = 8;  ///< ids below 8 are reserved marks
  std::vector<std::uint8_t> read_chunk_;
};

}  // namespace privlocad::net
