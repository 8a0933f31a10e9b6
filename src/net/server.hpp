// edge_serverd's serving core: ONE protocol state machine (framing,
// admission, worker hashing, byte-budget backpressure, metrics) written
// against the backend-neutral net::IoBackend contract, plus a worker
// pool wrapping ConcurrentEdge behind the wire format (net/wire.hpp).
// The IO engine underneath -- epoll readiness or io_uring completions --
// is a ServerConfig choice; see net/io_backend.hpp for the contract and
// the selection rules (PRIVLOCAD_NET_BACKEND, loud failure on an
// unsatisfiable explicit request).
//
// Threading model:
//   - ONE IO thread owns the backend and every connection: accepts,
//     reads, frames, admits, and writes all happen in IoSink callbacks
//     or between poll() batches on that thread, so connection state
//     needs no locking.
//   - N worker threads each own one BoundedRequestQueue and call
//     ConcurrentEdge::serve (itself shard-locked). Users hash to workers
//     with the SAME fibonacci multiply ConcurrentEdge uses for shards,
//     so one user's requests stay ordered end to end.
//   - The handoff is batched both ways. IO -> worker: on_data frames the
//     whole received chunk, stamps it with one clock read, and admits
//     each worker's share with one lock and one notify_one
//     (BoundedRequestQueue::try_push_batch; same per-request decisions
//     as sequential try_push). The worker pops up to kPopBatch requests
//     per lock; popped-but-unstarted requests stay counted as queued.
//   - Except a lone request to a parked worker: when a chunk's share for
//     worker w is exactly one request and w is parked (blocked in
//     pop_batch, nothing queued or in hand, queue open -- decided under
//     the queue lock), the IO thread serves it itself through the same
//     serve path the workers use (serve_pending) and queues the response
//     straight onto the connection: no worker wakeup, no completion
//     eventfd (net.served_inline). The IO thread is the only pusher, so
//     w stays parked meanwhile. Responses w completed earlier may still
//     sit in completed_; they are moved onto their connections first,
//     so a user's responses still leave in request order. Shares of two
//     or more, and any request for a busy worker, take the handoff.
//     Trade-off: a lone request whose serve is slow -- a window close
//     that rebuilds the user's profile (ms), a first-sight n-fold table
//     -- stalls the IO thread, and so every connection, for that long.
//     Steady traffic does neither; bursts and saturation go to the
//     workers.
//   - Worker -> IO: a worker appends its whole batch of responses to a
//     mutex-swapped vector (completed_) under one lock, then writes the
//     eventfd only if wake_pending_ was clear, so a burst of batches
//     costs one wakeup. move_completed clears wake_pending_ BEFORE it
//     swaps completed_: a response appended after the swap finds the
//     flag clear and wakes the IO thread again, so none is stranded
//     until the poll tick. The IO thread serializes responses onto the
//     owning connection (or drops them if it has gone away) and flushes
//     them after the poll batch.
//
// Overload behavior:
//   - A request is shed AT ADMISSION -- immediate degraded_dropped
//     response, released=0, zero coordinates, counted in net.shed AND
//     edge.serve.degraded_dropped (the shared registry), never queued.
//     An arrival sheds iff its worker's queue is full (see
//     net/admission.hpp); the decision is made at push, so
//     served + shed == sent holds exactly.
//   - A connection whose outbound buffer exceeds max_outbound_bytes
//     stops being read (backend pause_reads) until the peer drains it
//     below half the cap -- TCP backpressure propagates to the client
//     instead of the server buffering without bound.
//   - A peer that half-closes (shutdown(SHUT_WR) after its last
//     request) still gets every response: read EOF stops reading, and
//     the connection closes once no admitted request on it is
//     unanswered and no outbound byte is left.
//   - net.queue_delay_us / net.service_time_us split every served
//     request's latency into time-waiting vs time-serving, so a bench
//     can tell queueing collapse from a slow serving path.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/concurrent_edge.hpp"
#include "net/admission.hpp"
#include "net/io_backend.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

namespace privlocad::net {

/// Registry names for the server-side metrics, alongside edge_metrics in
/// the SAME registry (ConcurrentEdge's), so one JSON dump shows the whole
/// box: wire -> queue -> serve.
namespace net_metrics {
inline constexpr const char* kConnectionsOpened = "net.connections.opened";
inline constexpr const char* kConnectionsClosed = "net.connections.closed";
inline constexpr const char* kRequests = "net.requests";
inline constexpr const char* kResponses = "net.responses";
inline constexpr const char* kShed = "net.shed";
inline constexpr const char* kParseErrors = "net.parse_errors";
inline constexpr const char* kBackpressurePauses = "net.backpressure_pauses";
/// Time from admission to worker pickup (microseconds).
inline constexpr const char* kQueueDelayUs = "net.queue_delay_us";
/// Time inside ConcurrentEdge::serve (microseconds).
inline constexpr const char* kServiceTimeUs = "net.service_time_us";
/// Total backlog across worker queues, summing each queue's depth as
/// its last admission saw it under the queue lock (sampled on admit).
inline constexpr const char* kQueueDepth = "net.queue_depth";
/// Requests the IO thread served itself: a recv's lone request for a
/// parked worker (also counted in net.requests / net.responses).
inline constexpr const char* kServedInline = "net.served_inline";
/// The resolved IoBackendKind, as a gauge (1 = epoll, 2 = io_uring), so
/// a metrics dump says which engine actually served.
inline constexpr const char* kBackend = "net.backend";
}  // namespace net_metrics

/// Validated aggregate, EdgeConfig-style: mutate via the fluent with_*
/// copies, check with validated(), hand to EdgeServer::create (which
/// validates again -- an EdgeServer never exists around a bad config).
struct ServerConfig {
  /// Listen port; 0 = kernel-assigned (read it back via port()).
  /// Deliberately wider than uint16 so an out-of-range request is a
  /// typed validation error instead of a silent truncation.
  std::uint32_t port = 0;
  /// Worker threads, one bounded queue each.
  std::size_t workers = 2;
  /// Per-worker queue bound: the hard admission backstop.
  std::size_t queue_capacity = 1024;
  /// Outbound byte budget per connection before reads pause.
  std::size_t max_outbound_bytes = 1 << 20;
  /// Artificial per-request service delay (test hook: makes a tiny
  /// serve() long enough to force queueing/shedding deterministically).
  std::uint32_t service_delay_us = 0;
  /// Which IO engine serves the sockets. kAuto defers to
  /// PRIVLOCAD_NET_BACKEND and then capability; an explicit request this
  /// build/kernel cannot satisfy fails EdgeServer::create loudly.
  IoBackendKind backend = IoBackendKind::kAuto;

  ServerConfig with_port(std::uint32_t value) const {
    ServerConfig copy = *this;
    copy.port = value;
    return copy;
  }
  ServerConfig with_workers(std::size_t value) const {
    ServerConfig copy = *this;
    copy.workers = value;
    return copy;
  }
  ServerConfig with_queue_capacity(std::size_t value) const {
    ServerConfig copy = *this;
    copy.queue_capacity = value;
    return copy;
  }
  ServerConfig with_max_outbound_bytes(std::size_t value) const {
    ServerConfig copy = *this;
    copy.max_outbound_bytes = value;
    return copy;
  }
  ServerConfig with_service_delay_us(std::uint32_t value) const {
    ServerConfig copy = *this;
    copy.service_delay_us = value;
    return copy;
  }
  ServerConfig with_backend(IoBackendKind value) const {
    ServerConfig copy = *this;
    copy.backend = value;
    return copy;
  }

  /// Typed kInvalidArgument naming the first out-of-domain field.
  util::Status validated() const;
};

/// The server. Construct through create() -- it validates the config,
/// resolves + constructs the IO backend, binds the socket, and returns a
/// typed Status for every failure (bad port, bind failure, unsatisfiable
/// backend request) instead of throwing. start() spawns the threads;
/// stop() (or the destructor) drains and joins them. Between the two,
/// clients connect to 127.0.0.1:port() and speak the wire format.
class EdgeServer final : private IoSink {
 public:
  static util::Result<std::unique_ptr<EdgeServer>> create(
      core::EdgeConfig edge_config, ServerConfig server_config);

  ~EdgeServer() override;
  EdgeServer(const EdgeServer&) = delete;
  EdgeServer& operator=(const EdgeServer&) = delete;

  /// Spawns the worker + IO threads. kFailedPrecondition if already
  /// started, or if stop() already ran: stop() tears down the backend and
  /// the listen socket, so an EdgeServer is single-use.
  util::Status start();

  /// Idempotent. Closes the admission queues (workers drain their
  /// backlog -- every admitted request still gets a response), then
  /// stops the IO thread after it has flushed what it can.
  void stop();

  /// The bound port; valid as soon as create() returns.
  std::uint16_t port() const { return port_; }

  /// The engine actually serving (resolved: kEpoll or kIoUring).
  IoBackendKind backend_kind() const { return backend_kind_; }

  core::ConcurrentEdge& edge() { return edge_; }
  /// The shared registry (edge_metrics + net_metrics).
  obs::MetricsRegistry& metrics() { return edge_.metrics(); }

 private:
  /// Protocol-side per-connection state: the inbound framing buffer,
  /// the core's own view of backpressure, and what the connection is
  /// still owed. The backend owns the fd and the outbound buffer. `in`
  /// is head-indexed so framing never memmoves the whole buffer per
  /// event.
  struct ConnState {
    std::vector<std::uint8_t> in;
    std::size_t in_head = 0;
    bool read_paused = false;
    /// The peer shut down its sending side; close once drained.
    bool read_eof = false;
    /// Admitted requests whose response has not been queued yet.
    std::size_t unanswered = 0;

    void compact_in();
  };
  struct CompletedResponse {
    std::uint64_t conn_id = 0;
    ServeResponseFrame frame{};
  };
  /// One worker's share of the frames a single recv carried, and the
  /// admission decision for each. Sized by the chunk (a backend read is
  /// at most 64 KiB), so the capacity never grows with load.
  struct AdmitBatch {
    std::vector<PendingRequest> requests;
    std::vector<bool> admitted;
    std::size_t cursor = 0;
    /// The share is one request for a parked worker: the IO thread
    /// serves it instead of pushing it.
    bool serve_inline = false;
  };

  EdgeServer(core::EdgeConfig edge_config, ServerConfig server_config,
             IoBackendKind backend_kind,
             std::unique_ptr<IoBackend> backend);

  // IoSink (all on the IO thread, from inside backend_->poll()).
  void on_accept(std::uint64_t conn_id) override;
  void on_data(std::uint64_t conn_id, const std::uint8_t* data,
               std::size_t n) override;
  void on_writable_resume(std::uint64_t conn_id) override;
  void on_read_eof(std::uint64_t conn_id) override;
  void on_closed(std::uint64_t conn_id) override;

  void io_loop();
  void worker_loop(std::size_t worker_index);
  std::size_t worker_for(std::uint64_t user_id) const;
  /// Serializes `frame` and queues it on `conn_id` (no flush).
  void queue_response(std::uint64_t conn_id,
                      const ServeResponseFrame& frame);
  /// Sink-initiated close: poisoned stream. Counts the close and drops
  /// both sides' state.
  void close_and_forget(std::uint64_t conn_id);
  /// Pause/resume decision against the byte budget after a flush.
  void reevaluate_backpressure(std::uint64_t conn_id);
  /// Closes a half-closed connection once it is owed nothing: no
  /// unanswered admitted request and no outbound byte left.
  void close_if_drained(std::uint64_t conn_id);
  /// Admits the frames staged in admit_batches_ (one lock per worker),
  /// then, in arrival order, serves the inline ones and answers the shed
  /// ones.
  void admit_staged(ConnState& conn, std::uint64_t conn_id);
  /// The one serve path (workers and inline): records queue delay from
  /// admission to `now` and service time, honours service_delay_us, and
  /// returns the response frame. On return `now` is the service's end,
  /// so a batch reads the clock once per request.
  ServeResponseFrame serve_pending(const PendingRequest& pending,
                                   std::chrono::steady_clock::time_point& now);
  /// Moves completed_ onto the owning connections (no flush, never
  /// erases a ConnState): safe from inside on_data.
  void move_completed();
  /// move_completed, then flushes every connection with outbound bytes
  /// if anything was moved since the last flush scan.
  void drain_completed();

  ServerConfig config_;
  core::ConcurrentEdge edge_;
  IoBackendKind backend_kind_ = IoBackendKind::kEpoll;
  std::unique_ptr<IoBackend> backend_;

  UniqueFd listen_fd_;
  UniqueFd wake_fd_;
  std::uint16_t port_ = 0;

  std::unordered_map<std::uint64_t, ConnState> conn_states_;
  std::vector<std::uint8_t> encode_scratch_;
  std::vector<CompletedResponse> drain_scratch_;
  std::vector<std::uint64_t> flush_scratch_;
  /// on_data scratch: per-worker batches plus the worker of each staged
  /// frame in arrival order (to send shed responses in that order).
  std::vector<AdmitBatch> admit_batches_;
  std::vector<std::size_t> staged_workers_;
  /// Each worker queue's depth as its last admission saw it (the
  /// net.queue_depth sample).
  std::vector<std::size_t> admit_depths_;
  /// move_completed queued responses that no flush scan has pushed yet.
  bool completions_unflushed_ = false;

  std::vector<std::unique_ptr<BoundedRequestQueue>> queues_;
  std::vector<std::thread> workers_;
  std::thread io_thread_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  bool stopped_ = false;

  std::mutex completed_mutex_;
  std::vector<CompletedResponse> completed_;
  /// Set by the worker whose eventfd write is still unconsumed; see the
  /// threading-model note for the ordering that makes this lossless.
  std::atomic<bool> wake_pending_{false};

  // Hot-path metric handles, resolved once in create().
  obs::Counter* connections_opened_ = nullptr;
  obs::Counter* connections_closed_ = nullptr;
  obs::Counter* requests_ = nullptr;
  obs::Counter* responses_ = nullptr;
  obs::Counter* shed_ = nullptr;
  obs::Counter* parse_errors_ = nullptr;
  obs::Counter* backpressure_pauses_ = nullptr;
  obs::Counter* degraded_dropped_ = nullptr;
  obs::Counter* served_inline_ = nullptr;
  obs::LatencyHistogram* queue_delay_us_ = nullptr;
  obs::LatencyHistogram* service_time_us_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;
};

}  // namespace privlocad::net
