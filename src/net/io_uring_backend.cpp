#include "net/io_uring_backend.hpp"

#ifdef PRIVLOCAD_HAVE_IO_URING

#include <errno.h>
#include <linux/io_uring.h>
#include <linux/time_types.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/socket.hpp"

namespace privlocad::net {

namespace {

int sys_io_uring_setup(unsigned entries, io_uring_params* params) {
  return static_cast<int>(
      ::syscall(__NR_io_uring_setup, entries, params));
}

int sys_io_uring_enter(int ring_fd, unsigned to_submit,
                       unsigned min_complete, unsigned flags,
                       const void* arg, std::size_t argsz) {
  return static_cast<int>(::syscall(__NR_io_uring_enter, ring_fd,
                                    to_submit, min_complete, flags, arg,
                                    argsz));
}

/// user_data tag in the top byte; connection id (always < 2^56) below.
constexpr std::uint64_t kTagShift = 56;
constexpr std::uint64_t kIdMask = (std::uint64_t{1} << kTagShift) - 1;
constexpr std::uint64_t kTagAccept = 1;
constexpr std::uint64_t kTagWake = 2;
constexpr std::uint64_t kTagRecv = 3;
constexpr std::uint64_t kTagSend = 4;

constexpr std::uint64_t tagged(std::uint64_t tag, std::uint64_t id) {
  return (tag << kTagShift) | (id & kIdMask);
}

constexpr unsigned kSqEntries = 256;
constexpr unsigned kCqEntries = 4096;
constexpr std::size_t kRecvBufBytes = 64 * 1024;

}  // namespace

class IoUringBackend final : public IoBackend {
 public:
  IoUringBackend() = default;
  ~IoUringBackend() override { teardown_ring(); }

  IoBackendKind kind() const override { return IoBackendKind::kIoUring; }
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
  /// Per-connection state. `rbuf` backs the single in-flight recv; its
  /// heap storage must stay put while a recv is submitted, so it is
  /// sized once at accept and never resized. Outbound bytes double-
  /// buffer: `sending` is the stable region an in-flight send reads
  /// from, `pending` is where queue_send appends; they swap when a send
  /// chain starts, so queue_send can never reallocate memory the kernel
  /// is reading.
  struct Conn {
    UniqueFd fd;
    std::vector<std::uint8_t> rbuf;
    std::vector<std::uint8_t> sending;
    std::size_t sent_head = 0;
    std::vector<std::uint8_t> pending;
    bool recv_inflight = false;
    bool send_inflight = false;
    bool read_paused = false;
    bool read_eof = false;  ///< peer shut down writes; never re-armed
    bool dead = false;

    std::size_t out_backlog() const {
      return (sending.size() - sent_head) + pending.size();
    }
  };

  io_uring_sqe* get_sqe();
  void push_sqe();
  void submit_staged();
  util::Status wait_cqes(int timeout_ms);
  unsigned cq_ready() const;
  void drain_cq();
  void handle_cqe(std::uint64_t user_data, std::int32_t res,
                  std::uint32_t flags);
  void on_accept_cqe(std::int32_t res, std::uint32_t flags);
  void on_recv_cqe(std::uint64_t id, std::int32_t res);
  void on_send_cqe(std::uint64_t id, std::int32_t res);
  void arm_accept();
  void arm_wake();
  void arm_recv(std::uint64_t id, Conn& conn);
  void arm_send(std::uint64_t id, Conn& conn);
  /// Drains the socket synchronously as far as it will go without
  /// blocking; returns false on a hard error (conn marked dead).
  bool direct_send(Conn& conn);
  void begin_teardown(std::uint64_t id, Conn& conn);
  void maybe_finalize(std::uint64_t id);
  void drain_inflight_for_shutdown();
  void teardown_ring();

  IoSink* sink_ = nullptr;
  int listen_fd_ = -1;
  int wake_fd_ = -1;

  UniqueFd ring_fd_;
  unsigned sq_entries_ = 0;
  void* sq_ring_ = nullptr;
  std::size_t sq_ring_bytes_ = 0;
  void* cq_ring_ = nullptr;
  std::size_t cq_ring_bytes_ = 0;
  bool single_mmap_ = false;
  io_uring_sqe* sqes_ = nullptr;
  std::size_t sqes_bytes_ = 0;
  unsigned* sq_head_ = nullptr;
  unsigned* sq_tail_ = nullptr;
  unsigned* sq_mask_ = nullptr;
  unsigned* sq_array_ = nullptr;
  unsigned* cq_head_ = nullptr;
  unsigned* cq_tail_ = nullptr;
  unsigned* cq_mask_ = nullptr;
  io_uring_cqe* cqes_ = nullptr;
  unsigned sq_tail_local_ = 0;
  unsigned to_submit_ = 0;

  bool multishot_accept_ok_ = true;
  bool accept_ever_ok_ = false;
  bool accept_armed_ = false;
  bool wake_armed_ = false;
  bool shutting_down_ = false;
  std::uint64_t wake_buf_ = 0;

  std::unordered_map<std::uint64_t, Conn> conns_;
  std::uint64_t next_conn_id_ = 8;  ///< ids below 8 are reserved marks
};

util::Status IoUringBackend::init(int listen_fd, int wake_fd,
                                  IoSink& sink) {
  sink_ = &sink;
  listen_fd_ = listen_fd;
  wake_fd_ = wake_fd;

  io_uring_params params{};
  params.flags = IORING_SETUP_CQSIZE;
  params.cq_entries = kCqEntries;
  const int fd = sys_io_uring_setup(kSqEntries, &params);
  if (fd < 0) {
    return util::Status::io_error(std::string("io_uring_setup failed: ") +
                                  std::strerror(errno));
  }
  ring_fd_ = UniqueFd(fd);
  if ((params.features & IORING_FEAT_EXT_ARG) == 0) {
    return util::Status::failed_precondition(
        "io_uring lacks IORING_FEAT_EXT_ARG timed waits on this kernel");
  }
  sq_entries_ = params.sq_entries;
  single_mmap_ = (params.features & IORING_FEAT_SINGLE_MMAP) != 0;

  sq_ring_bytes_ =
      params.sq_off.array + params.sq_entries * sizeof(unsigned);
  cq_ring_bytes_ =
      params.cq_off.cqes + params.cq_entries * sizeof(io_uring_cqe);
  if (single_mmap_ && cq_ring_bytes_ > sq_ring_bytes_) {
    sq_ring_bytes_ = cq_ring_bytes_;
  }
  sq_ring_ = ::mmap(nullptr, sq_ring_bytes_, PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_POPULATE, ring_fd_.get(),
                    IORING_OFF_SQ_RING);
  if (sq_ring_ == MAP_FAILED) {
    sq_ring_ = nullptr;
    return util::Status::io_error("io_uring SQ ring mmap failed");
  }
  if (single_mmap_) {
    cq_ring_ = sq_ring_;
  } else {
    cq_ring_ = ::mmap(nullptr, cq_ring_bytes_, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, ring_fd_.get(),
                      IORING_OFF_CQ_RING);
    if (cq_ring_ == MAP_FAILED) {
      cq_ring_ = nullptr;
      return util::Status::io_error("io_uring CQ ring mmap failed");
    }
  }
  sqes_bytes_ = params.sq_entries * sizeof(io_uring_sqe);
  sqes_ = static_cast<io_uring_sqe*>(
      ::mmap(nullptr, sqes_bytes_, PROT_READ | PROT_WRITE,
             MAP_SHARED | MAP_POPULATE, ring_fd_.get(), IORING_OFF_SQES));
  if (sqes_ == MAP_FAILED) {
    sqes_ = nullptr;
    return util::Status::io_error("io_uring SQE array mmap failed");
  }

  auto* sq = static_cast<std::uint8_t*>(sq_ring_);
  sq_head_ = reinterpret_cast<unsigned*>(sq + params.sq_off.head);
  sq_tail_ = reinterpret_cast<unsigned*>(sq + params.sq_off.tail);
  sq_mask_ = reinterpret_cast<unsigned*>(sq + params.sq_off.ring_mask);
  sq_array_ = reinterpret_cast<unsigned*>(sq + params.sq_off.array);
  auto* cq = static_cast<std::uint8_t*>(cq_ring_);
  cq_head_ = reinterpret_cast<unsigned*>(cq + params.cq_off.head);
  cq_tail_ = reinterpret_cast<unsigned*>(cq + params.cq_off.tail);
  cq_mask_ = reinterpret_cast<unsigned*>(cq + params.cq_off.ring_mask);
  cqes_ = reinterpret_cast<io_uring_cqe*>(cq + params.cq_off.cqes);
  sq_tail_local_ = *sq_tail_;

  arm_accept();
  arm_wake();
  return util::Status();
}

io_uring_sqe* IoUringBackend::get_sqe() {
  const unsigned head = __atomic_load_n(sq_head_, __ATOMIC_ACQUIRE);
  if (sq_tail_local_ - head >= sq_entries_) {
    // SQ full: push what is staged so the kernel frees slots. The SQ is
    // 256 deep and submissions are bounded per connection, so this is a
    // backstop, not a steady state.
    submit_staged();
  }
  io_uring_sqe* sqe = &sqes_[sq_tail_local_ & *sq_mask_];
  std::memset(sqe, 0, sizeof(*sqe));
  return sqe;
}

void IoUringBackend::push_sqe() {
  sq_array_[sq_tail_local_ & *sq_mask_] = sq_tail_local_ & *sq_mask_;
  ++sq_tail_local_;
  __atomic_store_n(sq_tail_, sq_tail_local_, __ATOMIC_RELEASE);
  ++to_submit_;
}

void IoUringBackend::submit_staged() {
  while (to_submit_ > 0) {
    const int rc =
        sys_io_uring_enter(ring_fd_.get(), to_submit_, 0, 0, nullptr, 0);
    if (rc >= 0) {
      to_submit_ -= static_cast<unsigned>(rc);
      if (rc == 0) break;  // nothing consumed; avoid a spin
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EBUSY) {
      // CQ is saturated; drain and retry once the consumer caught up.
      drain_cq();
      continue;
    }
    break;  // hard submit error; poll() surfaces engine failures
  }
}

unsigned IoUringBackend::cq_ready() const {
  return __atomic_load_n(cq_tail_, __ATOMIC_ACQUIRE) - *cq_head_;
}

util::Status IoUringBackend::wait_cqes(int timeout_ms) {
  __kernel_timespec ts{};
  ts.tv_sec = timeout_ms / 1000;
  ts.tv_nsec = static_cast<long long>(timeout_ms % 1000) * 1000000LL;
  io_uring_getevents_arg arg{};
  arg.ts = reinterpret_cast<std::uint64_t>(&ts);
  const int rc = sys_io_uring_enter(
      ring_fd_.get(), to_submit_, 1,
      IORING_ENTER_GETEVENTS | IORING_ENTER_EXT_ARG, &arg, sizeof(arg));
  if (rc >= 0) {
    to_submit_ -= static_cast<unsigned>(rc);
    return util::Status();
  }
  if (errno == EINTR || errno == ETIME || errno == EBUSY) {
    return util::Status();  // tick expiry / signal: poll() just returns
  }
  return util::Status::io_error(std::string("io_uring_enter failed: ") +
                                std::strerror(errno));
}

void IoUringBackend::drain_cq() {
  unsigned head = *cq_head_;
  unsigned tail = __atomic_load_n(cq_tail_, __ATOMIC_ACQUIRE);
  while (head != tail) {
    while (head != tail) {
      const io_uring_cqe& cqe = cqes_[head & *cq_mask_];
      const std::uint64_t user_data = cqe.user_data;
      const std::int32_t res = cqe.res;
      const std::uint32_t flags = cqe.flags;
      ++head;
      __atomic_store_n(cq_head_, head, __ATOMIC_RELEASE);
      handle_cqe(user_data, res, flags);
    }
    tail = __atomic_load_n(cq_tail_, __ATOMIC_ACQUIRE);
  }
}

void IoUringBackend::handle_cqe(std::uint64_t user_data, std::int32_t res,
                                std::uint32_t flags) {
  const std::uint64_t tag = user_data >> kTagShift;
  const std::uint64_t id = user_data & kIdMask;
  switch (tag) {
    case kTagAccept:
      on_accept_cqe(res, flags);
      return;
    case kTagWake:
      // The 8-byte read consumed the eventfd counter; that IS the drain.
      wake_armed_ = false;
      if (!shutting_down_) arm_wake();
      return;
    case kTagRecv:
      on_recv_cqe(id, res);
      return;
    case kTagSend:
      on_send_cqe(id, res);
      return;
    default:
      return;  // stale tag from a prior generation; nothing to do
  }
}

void IoUringBackend::arm_accept() {
  io_uring_sqe* sqe = get_sqe();
  sqe->opcode = IORING_OP_ACCEPT;
  sqe->fd = listen_fd_;
  sqe->accept_flags = SOCK_NONBLOCK | SOCK_CLOEXEC;
  if (multishot_accept_ok_) sqe->ioprio = IORING_ACCEPT_MULTISHOT;
  sqe->user_data = tagged(kTagAccept, 0);
  push_sqe();
  accept_armed_ = true;
}

void IoUringBackend::arm_wake() {
  io_uring_sqe* sqe = get_sqe();
  sqe->opcode = IORING_OP_READ;
  sqe->fd = wake_fd_;
  sqe->addr = reinterpret_cast<std::uint64_t>(&wake_buf_);
  sqe->len = sizeof(wake_buf_);
  sqe->user_data = tagged(kTagWake, 1);
  push_sqe();
  wake_armed_ = true;
}

void IoUringBackend::arm_recv(std::uint64_t id, Conn& conn) {
  io_uring_sqe* sqe = get_sqe();
  sqe->opcode = IORING_OP_RECV;
  sqe->fd = conn.fd.get();
  sqe->addr = reinterpret_cast<std::uint64_t>(conn.rbuf.data());
  sqe->len = static_cast<std::uint32_t>(conn.rbuf.size());
  sqe->user_data = tagged(kTagRecv, id);
  push_sqe();
  conn.recv_inflight = true;
}

void IoUringBackend::arm_send(std::uint64_t id, Conn& conn) {
  io_uring_sqe* sqe = get_sqe();
  sqe->opcode = IORING_OP_SEND;
  sqe->fd = conn.fd.get();
  sqe->addr =
      reinterpret_cast<std::uint64_t>(conn.sending.data() + conn.sent_head);
  sqe->len =
      static_cast<std::uint32_t>(conn.sending.size() - conn.sent_head);
  sqe->msg_flags = MSG_NOSIGNAL;
  sqe->user_data = tagged(kTagSend, id);
  push_sqe();
  conn.send_inflight = true;
}

void IoUringBackend::on_accept_cqe(std::int32_t res,
                                   std::uint32_t flags) {
  accept_armed_ = (flags & IORING_CQE_F_MORE) != 0;
  if (shutting_down_) {
    if (res >= 0) ::close(res);  // late arrival; the server is going away
    return;
  }
  if (res >= 0) {
    accept_ever_ok_ = true;
    const int one = 1;
    ::setsockopt(res, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const std::uint64_t id = next_conn_id_++;
    Conn& conn = conns_[id];
    conn.fd = UniqueFd(res);
    conn.rbuf.resize(kRecvBufBytes);
    arm_recv(id, conn);
    if (!shutting_down_) sink_->on_accept(id);
  } else if (res == -EINVAL && !accept_ever_ok_ && multishot_accept_ok_) {
    // Pre-5.19 kernel without multishot accept: degrade to per-CQE
    // re-arm. Selection already guaranteed the ring itself works.
    multishot_accept_ok_ = false;
  }
  if (!accept_armed_ && !shutting_down_) arm_accept();
}

void IoUringBackend::on_recv_cqe(std::uint64_t id, std::int32_t res) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  conn.recv_inflight = false;
  if (conn.dead || shutting_down_) {
    maybe_finalize(id);
    return;
  }
  if (res > 0) {
    sink_->on_data(id, conn.rbuf.data(), static_cast<std::size_t>(res));
    // The sink may have poisoned the connection from inside on_data;
    // re-look it up before touching state (close_connection may even
    // have erased it).
    const auto again = conns_.find(id);
    if (again == conns_.end()) return;
    Conn& now = again->second;
    if (now.dead) {
      maybe_finalize(id);
      return;
    }
    if (!now.read_paused) arm_recv(id, now);
    return;
  }
  if (res == 0) {
    // The peer shut down its sending side. Stop reading but keep the
    // connection: the sink still owes it responses and closes it once
    // they are out (close_connection may erase `conn` in the callback).
    conn.read_eof = true;
    sink_->on_read_eof(id);
    return;
  }
  // Error: the peer is gone.
  conn.dead = true;
  sink_->on_closed(id);
  begin_teardown(id, conn);
}

void IoUringBackend::on_send_cqe(std::uint64_t id, std::int32_t res) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  conn.send_inflight = false;
  if (conn.dead || shutting_down_) {
    maybe_finalize(id);
    return;
  }
  if (res <= 0) {
    conn.dead = true;
    sink_->on_closed(id);
    begin_teardown(id, conn);
    return;
  }
  conn.sent_head += static_cast<std::size_t>(res);
  if (conn.sent_head >= conn.sending.size()) {
    conn.sending.clear();
    conn.sent_head = 0;
    if (!conn.pending.empty()) {
      conn.sending.swap(conn.pending);
    }
  }
  if (conn.sent_head < conn.sending.size()) arm_send(id, conn);
  sink_->on_writable_resume(id);
}

void IoUringBackend::queue_send(std::uint64_t conn_id,
                                const std::uint8_t* data, std::size_t n) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end() || it->second.dead) return;  // peer already gone
  it->second.pending.insert(it->second.pending.end(), data, data + n);
}

bool IoUringBackend::direct_send(Conn& conn) {
  while (conn.sent_head < conn.sending.size()) {
    const ssize_t wrote = ::send(
        conn.fd.get(), conn.sending.data() + conn.sent_head,
        conn.sending.size() - conn.sent_head, MSG_DONTWAIT | MSG_NOSIGNAL);
    if (wrote > 0) {
      conn.sent_head += static_cast<std::size_t>(wrote);
      continue;
    }
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    conn.dead = true;  // peer gone; the caller reports the close
    return false;
  }
  if (conn.sent_head >= conn.sending.size()) {
    conn.sending.clear();
    conn.sent_head = 0;
  }
  return true;
}

void IoUringBackend::flush(std::uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end() || it->second.dead) return;
  Conn& conn = it->second;
  if (conn.send_inflight) return;  // the completion chain continues it
  if (conn.sending.empty()) {
    if (conn.pending.empty()) return;
    conn.sending.swap(conn.pending);
    conn.sent_head = 0;
  }
  // Uncongested fast path: one direct non-blocking send usually drains
  // the whole backlog without touching the ring.
  if (!direct_send(conn)) {
    sink_->on_closed(conn_id);
    begin_teardown(conn_id, conn);
    return;
  }
  if (conn.sending.empty() && !conn.pending.empty()) {
    conn.sending.swap(conn.pending);
    if (!direct_send(conn)) {
      sink_->on_closed(conn_id);
      begin_teardown(conn_id, conn);
      return;
    }
  }
  if (!conn.sending.empty()) arm_send(conn_id, conn);
}

std::size_t IoUringBackend::outbound_bytes(std::uint64_t conn_id) const {
  const auto it = conns_.find(conn_id);
  return it == conns_.end() ? 0 : it->second.out_backlog();
}

void IoUringBackend::pause_reads(std::uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end() || it->second.dead) return;
  // The in-flight recv (if any) still delivers once -- those bytes were
  // on the wire; the contract allows one post-pause delivery.
  it->second.read_paused = true;
}

void IoUringBackend::resume_reads(std::uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end() || it->second.dead) return;
  Conn& conn = it->second;
  if (!conn.read_paused) return;
  conn.read_paused = false;
  if (!conn.recv_inflight && !conn.read_eof) arm_recv(conn_id, conn);
}

void IoUringBackend::close_connection(std::uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end() || it->second.dead) return;
  it->second.dead = true;
  begin_teardown(conn_id, it->second);
}

void IoUringBackend::begin_teardown(std::uint64_t id, Conn& conn) {
  // shutdown(2) forces any in-flight recv/send to complete promptly;
  // the fd and state drop only once the last completion lands, so the
  // kernel never writes into freed buffers.
  ::shutdown(conn.fd.get(), SHUT_RDWR);
  maybe_finalize(id);
}

void IoUringBackend::maybe_finalize(std::uint64_t id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  const Conn& conn = it->second;
  if (conn.dead && !conn.recv_inflight && !conn.send_inflight) {
    conns_.erase(it);  // UniqueFd closes the socket
  }
}

std::size_t IoUringBackend::open_connection_count() const {
  std::size_t open = 0;
  for (const auto& [id, conn] : conns_) {
    if (!conn.dead) ++open;
  }
  return open;
}

util::Status IoUringBackend::poll(int timeout_ms) {
  if (cq_ready() == 0) {
    util::Status wait = wait_cqes(timeout_ms);
    if (!wait.ok()) return wait;
  } else {
    submit_staged();
  }
  drain_cq();
  // Push re-arms and sink-queued sends staged during dispatch so they
  // make progress before the next wait.
  submit_staged();
  return util::Status();
}

void IoUringBackend::drain_inflight_for_shutdown() {
  // Bounded: shutdown(2) on every socket forces recv/send completions,
  // so the in-flight count reaches zero within a few waits.
  for (int round = 0; round < 64; ++round) {
    bool inflight = false;
    for (const auto& [id, conn] : conns_) {
      if (conn.recv_inflight || conn.send_inflight) {
        inflight = true;
        break;
      }
    }
    if (!inflight) return;
    submit_staged();
    __kernel_timespec ts{};
    ts.tv_nsec = 20 * 1000000LL;  // 20ms per wait round
    io_uring_getevents_arg arg{};
    arg.ts = reinterpret_cast<std::uint64_t>(&ts);
    (void)sys_io_uring_enter(
        ring_fd_.get(), 0, 1,
        IORING_ENTER_GETEVENTS | IORING_ENTER_EXT_ARG, &arg, sizeof(arg));
    drain_cq();
  }
}

void IoUringBackend::shutdown_flush() {
  shutting_down_ = true;
  for (auto& [id, conn] : conns_) {
    if (conn.dead || conn.send_inflight) continue;
    if (conn.sending.empty()) {
      conn.sending.swap(conn.pending);
      conn.sent_head = 0;
    }
    (void)direct_send(conn);  // best effort; EAGAIN just stops
    conn.dead = true;
    ::shutdown(conn.fd.get(), SHUT_RDWR);
  }
  for (auto& [id, conn] : conns_) {
    if (!conn.dead) {
      conn.dead = true;
      ::shutdown(conn.fd.get(), SHUT_RDWR);
    }
  }
  drain_inflight_for_shutdown();
  conns_.clear();
  teardown_ring();
}

void IoUringBackend::teardown_ring() {
  if (sqes_ != nullptr) {
    ::munmap(sqes_, sqes_bytes_);
    sqes_ = nullptr;
  }
  if (cq_ring_ != nullptr && cq_ring_ != sq_ring_) {
    ::munmap(cq_ring_, cq_ring_bytes_);
  }
  cq_ring_ = nullptr;
  if (sq_ring_ != nullptr) {
    ::munmap(sq_ring_, sq_ring_bytes_);
    sq_ring_ = nullptr;
  }
  ring_fd_.reset();
}

bool io_uring_compiled_in() { return true; }

bool io_uring_available() {
  static const bool available = [] {
    io_uring_params params{};
    const int fd = sys_io_uring_setup(2, &params);
    if (fd < 0) return false;  // sandboxed/disabled kernels read as absent
    const bool ok = (params.features & IORING_FEAT_EXT_ARG) != 0 &&
                    (params.features & IORING_FEAT_NODROP) != 0;
    ::close(fd);
    return ok;
  }();
  return available;
}

util::Result<std::unique_ptr<IoBackend>> make_io_uring_backend() {
  if (!io_uring_available()) {
    return util::Status::failed_precondition(
        "io_uring backend compiled in but the running kernel rejected "
        "the ring (io_uring_setup unavailable or missing EXT_ARG)");
  }
  return std::unique_ptr<IoBackend>(new IoUringBackend());
}

}  // namespace privlocad::net

#else  // !PRIVLOCAD_HAVE_IO_URING

namespace privlocad::net {

bool io_uring_compiled_in() { return false; }

bool io_uring_available() { return false; }

util::Result<std::unique_ptr<IoBackend>> make_io_uring_backend() {
  return util::Status::failed_precondition(
      "this binary was built without the io_uring backend "
      "(PRIVLOCAD_IO_URING=OFF or the configure probe failed); only "
      "epoll is available");
}

}  // namespace privlocad::net

#endif  // PRIVLOCAD_HAVE_IO_URING
