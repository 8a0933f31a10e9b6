// The backend-neutral IO contract edge_serverd's protocol core is
// written against.
//
// This layer splits the serving loop in two: ONE protocol state machine
// (framing, admission, worker hashing, byte-budget backpressure,
// metrics -- all in net/server.cpp) drives an IoBackend that owns the
// readiness/submission mechanics. Two implementations ship:
//
//   EpollBackend   -- the PR 8 loop, behavior- and metrics-identical:
//                     level-triggered epoll, readiness-driven recv/send,
//                     EPOLLIN disarm for backpressure.
//   IoUringBackend -- raw-syscall io_uring (no liburing dependency):
//                     multishot accept, one buffered recv + one send
//                     submission in flight per connection, eventfd and
//                     tick wakeups through the same ring. Compiled in
//                     only when the PRIVLOCAD_IO_URING configure probe
//                     passes; selected at runtime only when the kernel
//                     actually accepts the ring.
//
// Selection: `auto` resolves to the best satisfiable backend, an
// explicit request that this build or kernel cannot satisfy fails LOUDLY
// with a typed Status (never a silent downgrade -- a bench must not
// report io_uring numbers measured on epoll), and the active choice is
// published as a gauge.
//
// Threading contract: every IoBackend method and every IoSink callback
// runs on the ONE IO thread. Backends own fds and outbound buffers; the
// protocol core owns inbound framing buffers and all policy decisions
// (when to shed, when to pause reads, when a connection is poisoned).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "util/status.hpp"

namespace privlocad::net {

/// Which IO engine serves the sockets. kAuto defers to the
/// PRIVLOCAD_NET_BACKEND environment variable and then to the best
/// engine this build + kernel supports.
enum class IoBackendKind : std::uint8_t {
  kAuto = 0,
  kEpoll = 1,
  kIoUring = 2,
};

/// "auto" | "epoll" | "io_uring" -- stable names for flags, env values,
/// JSON records, and log lines.
const char* io_backend_kind_name(IoBackendKind kind);

/// Parses a backend name ("auto" | "epoll" | "io_uring"); typed
/// kParseError on anything else.
util::Result<IoBackendKind> parse_io_backend_kind(const char* name);

/// True when this binary carries the io_uring backend TU (the
/// PRIVLOCAD_IO_URING configure probe passed).
bool io_uring_compiled_in();

/// True when io_uring is compiled in AND the running kernel accepts an
/// io_uring ring with the features the backend needs (EXT_ARG timed
/// waits). Probed once per process; a sandbox that blocks the syscall
/// reads as unavailable, not as an error.
bool io_uring_available();

/// Resolves `requested` (typically ServerConfig::backend) against the
/// environment and this machine:
///   - kEpoll / kIoUring: explicit request; io_uring that this build or
///     kernel cannot satisfy is a LOUD typed error, never a downgrade.
///   - kAuto: PRIVLOCAD_NET_BACKEND decides if set (same grammar,
///     malformed or unsatisfiable values error loudly); otherwise
///     io_uring when available, else epoll.
/// Never returns kAuto.
util::Result<IoBackendKind> resolve_io_backend(IoBackendKind requested);

/// Events a backend delivers into the protocol core. All callbacks fire
/// on the IO thread, from inside IoBackend::poll().
class IoSink {
 public:
  virtual ~IoSink() = default;

  /// A new connection `conn_id` was accepted (ids are backend-assigned,
  /// unique per backend lifetime, never reused).
  virtual void on_accept(std::uint64_t conn_id) = 0;

  /// `n` received bytes for `conn_id`. The pointer is valid only for the
  /// duration of the call; the sink copies what it wants to keep. The
  /// sink may call close_connection(conn_id) from inside this callback.
  virtual void on_data(std::uint64_t conn_id, const std::uint8_t* data,
                       std::size_t n) = 0;

  /// The backend flushed outbound bytes for `conn_id` on its own
  /// (writability / send completion): the sink re-evaluates its
  /// byte-budget backpressure decision via outbound_bytes().
  virtual void on_writable_resume(std::uint64_t conn_id) = 0;

  /// The peer shut down its sending side (read EOF). Every byte it sent
  /// has been delivered through on_data; the backend reads `conn_id` no
  /// more but keeps it open for queue_send/flush. The sink closes it with
  /// close_connection once it has answered everything it owes.
  virtual void on_read_eof(std::uint64_t conn_id) = 0;

  /// The connection failed (hard error, reset, or a send to a peer that
  /// is gone). The backend has already discarded its state for
  /// `conn_id`; this is the sink's cue to drop its own. Never fired for
  /// sink-initiated close_connection() calls.
  virtual void on_closed(std::uint64_t conn_id) = 0;
};

/// One serving IO engine. Lifecycle: init() once, poll() from the IO
/// loop until stop, shutdown_flush() last. See the header comment for
/// the threading contract.
class IoBackend {
 public:
  virtual ~IoBackend() = default;

  virtual IoBackendKind kind() const = 0;

  /// Takes (non-owning) the listening socket and the worker-completion
  /// eventfd, and the sink all events are delivered to. The listen fd
  /// must already be bound + listening; the backend sets whatever
  /// per-connection socket options it needs (TCP_NODELAY at accept).
  virtual util::Status init(int listen_fd, int wake_fd, IoSink& sink) = 0;

  /// One wait-and-dispatch batch: submits whatever is staged, waits up
  /// to `timeout_ms` for readiness/completions (the tick), and delivers
  /// every ready event through the sink. A wake_fd write from any thread
  /// interrupts the wait; the backend drains the eventfd counter itself
  /// (poll() returning IS the wake notification). Returns non-ok only
  /// when the engine itself broke (epoll_wait / io_uring_enter hard
  /// failure) -- per-connection errors surface as on_closed instead.
  virtual util::Status poll(int timeout_ms) = 0;

  /// Appends `n` bytes to `conn_id`'s outbound buffer. No flush
  /// guarantee until flush() -- callers batch appends per connection and
  /// flush once, so pipelined responses coalesce into large sends.
  /// Unknown ids are ignored (the peer may already be gone).
  virtual void queue_send(std::uint64_t conn_id, const std::uint8_t* data,
                          std::size_t n) = 0;

  /// Pushes `conn_id`'s outbound backlog toward the socket as far as it
  /// will go without blocking (epoll: send() until EAGAIN + EPOLLOUT
  /// arm; io_uring: stage a send submission).
  virtual void flush(std::uint64_t conn_id) = 0;

  /// Outbound bytes buffered for `conn_id` (the byte-budget input).
  virtual std::size_t outbound_bytes(std::uint64_t conn_id) const = 0;

  /// Stops/resumes delivering on_data for `conn_id`. Pausing does not
  /// discard bytes already received: one in-flight buffer may still be
  /// delivered after pause_reads (the bytes were on the wire; dropping
  /// them would poison the stream).
  virtual void pause_reads(std::uint64_t conn_id) = 0;
  virtual void resume_reads(std::uint64_t conn_id) = 0;

  /// Sink-initiated immediate close (poisoned stream, protocol error).
  /// Undelivered inbound bytes and unflushed outbound bytes are
  /// discarded; on_closed is NOT fired.
  virtual void close_connection(std::uint64_t conn_id) = 0;

  /// Connections currently open (accepted, not yet closed).
  virtual std::size_t open_connection_count() const = 0;

  /// Shutdown path: best-effort non-blocking flush of every outbound
  /// buffer, then closes every connection and the backend's own
  /// resources. poll() must not be called afterwards.
  virtual void shutdown_flush() = 0;
};

/// Constructs a backend of `kind` (which must be kEpoll or kIoUring --
/// resolve first). Requesting kIoUring when io_uring_available() is
/// false is a typed error.
util::Result<std::unique_ptr<IoBackend>> make_io_backend(
    IoBackendKind kind);

}  // namespace privlocad::net
