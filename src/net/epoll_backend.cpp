#include "net/epoll_backend.hpp"

#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cstring>

namespace privlocad::net {

namespace {

/// Epoll user-data ids below this are reserved (listen socket, wake fd);
/// connection ids count up from here.
constexpr std::uint64_t kListenId = 0;
constexpr std::uint64_t kWakeId = 1;

constexpr std::size_t kReadChunkBytes = 64 * 1024;

}  // namespace

void EpollBackend::Conn::compact_out() {
  if (out_head > 0 && out_head * 2 >= out.size()) {
    out.erase(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(out_head));
    out_head = 0;
  }
}

util::Status EpollBackend::init(int listen_fd, int wake_fd, IoSink& sink) {
  sink_ = &sink;
  listen_fd_ = listen_fd;
  wake_fd_ = wake_fd;
  read_chunk_.resize(kReadChunkBytes);

  epoll_fd_ = UniqueFd(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_fd_.valid()) {
    return util::Status::io_error(std::string("epoll_create1 failed: ") +
                                  std::strerror(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenId;
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return util::Status::io_error(std::string("epoll_ctl(listen) failed: ") +
                                  std::strerror(errno));
  }
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeId;
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return util::Status::io_error(std::string("epoll_ctl(wake) failed: ") +
                                  std::strerror(errno));
  }
  return util::Status();
}

void EpollBackend::update_interest(std::uint64_t id, Conn& conn) {
  epoll_event ev{};
  const bool reading = !conn.read_paused && !conn.read_eof;
  ev.events = (reading ? static_cast<unsigned>(EPOLLIN) : 0u) |
              (conn.want_write ? static_cast<unsigned>(EPOLLOUT) : 0u);
  ev.data.u64 = id;
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, conn.fd.get(), &ev);
}

bool EpollBackend::try_flush(Conn& conn) {
  const std::size_t before = conn.out_backlog();
  while (conn.out_backlog() > 0) {
    const ssize_t wrote =
        ::send(conn.fd.get(), conn.out.data() + conn.out_head,
               conn.out_backlog(), MSG_NOSIGNAL);
    if (wrote > 0) {
      conn.out_head += static_cast<std::size_t>(wrote);
      continue;
    }
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    conn.dead = true;  // peer gone; the caller reports the close
    return false;
  }
  conn.compact_out();
  conn.want_write = conn.out_backlog() > 0;
  return conn.out_backlog() < before;
}

void EpollBackend::queue_send(std::uint64_t conn_id,
                              const std::uint8_t* data, std::size_t n) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end() || it->second.dead) return;  // peer already gone
  it->second.out.insert(it->second.out.end(), data, data + n);
}

void EpollBackend::flush(std::uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end() || it->second.dead) return;
  Conn& conn = it->second;
  const bool was_want_write = conn.want_write;
  try_flush(conn);
  if (conn.dead) {
    if (sink_ != nullptr) sink_->on_closed(conn_id);
    return;
  }
  if (conn.want_write != was_want_write) update_interest(conn_id, conn);
}

std::size_t EpollBackend::outbound_bytes(std::uint64_t conn_id) const {
  const auto it = conns_.find(conn_id);
  return it == conns_.end() ? 0 : it->second.out_backlog();
}

void EpollBackend::pause_reads(std::uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end() || it->second.dead) return;
  if (!it->second.read_paused) {
    it->second.read_paused = true;
    update_interest(conn_id, it->second);
  }
}

void EpollBackend::resume_reads(std::uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end() || it->second.dead) return;
  if (it->second.read_paused) {
    it->second.read_paused = false;
    update_interest(conn_id, it->second);
  }
}

void EpollBackend::close_connection(std::uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  it->second.dead = true;  // reaped at the end of the current poll batch
}

std::size_t EpollBackend::open_connection_count() const {
  std::size_t open = 0;
  for (const auto& [id, conn] : conns_) {
    if (!conn.dead) ++open;
  }
  return open;
}

void EpollBackend::accept_all() {
  while (true) {
    const int raw = ::accept4(listen_fd_, nullptr, nullptr,
                              SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (raw < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN or transient accept error: epoll will re-arm
    }
    const int one = 1;
    ::setsockopt(raw, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const std::uint64_t id = next_conn_id_++;
    Conn& conn = conns_[id];
    conn.fd = UniqueFd(raw);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, raw, &ev);
    sink_->on_accept(id);
  }
}

void EpollBackend::handle_readable(std::uint64_t id, Conn& conn) {
  while (!conn.dead) {
    const ssize_t got =
        ::recv(conn.fd.get(), read_chunk_.data(), read_chunk_.size(), 0);
    if (got > 0) {
      sink_->on_data(id, read_chunk_.data(), static_cast<std::size_t>(got));
      // The sink may have poisoned the connection from inside on_data.
      if (conn.dead) return;
      if (static_cast<std::size_t>(got) < read_chunk_.size()) break;
      continue;
    }
    if (got == 0) {
      // The peer shut down its sending side. Stop reading (EPOLLIN stays
      // ready at EOF) but keep the connection: the sink still owes it
      // responses and closes it once they are out.
      conn.read_eof = true;
      update_interest(id, conn);
      sink_->on_read_eof(id);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    conn.dead = true;  // hard error
    sink_->on_closed(id);
    return;
  }
}

void EpollBackend::reap_dead() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (it->second.dead) {
      ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, it->second.fd.get(),
                  nullptr);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

util::Status EpollBackend::poll(int timeout_ms) {
  std::array<epoll_event, 64> events;
  const int n = ::epoll_wait(epoll_fd_.get(), events.data(),
                             static_cast<int>(events.size()), timeout_ms);
  if (n < 0 && errno != EINTR) {
    return util::Status::io_error(std::string("epoll_wait failed: ") +
                                  std::strerror(errno));
  }
  for (int i = 0; i < (n > 0 ? n : 0); ++i) {
    const std::uint64_t id = events[static_cast<std::size_t>(i)].data.u64;
    const std::uint32_t mask = events[static_cast<std::size_t>(i)].events;
    if (id == kListenId) {
      accept_all();
      continue;
    }
    if (id == kWakeId) {
      std::uint64_t drained = 0;
      [[maybe_unused]] ssize_t r =
          ::read(wake_fd_, &drained, sizeof(drained));
      continue;  // poll() returning is the wake; the sink drains its work
    }
    const auto it = conns_.find(id);
    if (it == conns_.end()) continue;  // closed earlier this batch
    Conn& conn = it->second;
    if (conn.dead) continue;
    if ((mask & (EPOLLHUP | EPOLLERR)) != 0) {
      conn.dead = true;
      sink_->on_closed(id);
      continue;
    }
    if ((mask & EPOLLOUT) != 0) {
      const bool flushed = try_flush(conn);
      if (conn.dead) {
        sink_->on_closed(id);
        continue;
      }
      update_interest(id, conn);
      if (flushed) sink_->on_writable_resume(id);
    }
    if ((mask & EPOLLIN) != 0 && !conn.dead) handle_readable(id, conn);
  }
  reap_dead();
  return util::Status();
}

void EpollBackend::shutdown_flush() {
  for (auto& [id, conn] : conns_) {
    if (!conn.dead) try_flush(conn);  // best effort; EAGAIN just stops
  }
  conns_.clear();
  epoll_fd_.reset();
}

}  // namespace privlocad::net
