#include "net/server.hpp"

#include <errno.h>
#include <string.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <numeric>
#include <string>
#include <utility>

#include "core/telemetry.hpp"
#include "util/validation.hpp"

namespace privlocad::net {

namespace {

constexpr int kPollWaitMs = 50;

double us_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// The immediate degraded_dropped response a shed request gets: nothing
/// leaves the edge, x/y stay zero.
ServeResponseFrame shed_response(const ServeRequestFrame& request) {
  ServeResponseFrame frame;
  frame.request_id = request.request_id;
  frame.outcome =
      static_cast<std::uint8_t>(core::ServeOutcome::kDegradedDropped);
  frame.status_code =
      static_cast<std::uint8_t>(util::ErrorCode::kResourceExhausted);
  frame.released = 0;
  return frame;
}

}  // namespace

util::Status ServerConfig::validated() const {
  if (port > 65535) {
    return util::Status::invalid_argument(
        "ServerConfig.port must fit a TCP port (0..65535), got " +
        std::to_string(port));
  }
  if (workers < 1) {
    return util::Status::invalid_argument(
        "ServerConfig.workers: server needs at least one worker");
  }
  if (queue_capacity < 1) {
    return util::Status::invalid_argument(
        "ServerConfig.queue_capacity must be >= 1");
  }
  if (max_outbound_bytes < kMaxFrameBytes) {
    return util::Status::invalid_argument(
        "ServerConfig.max_outbound_bytes must hold at least one frame (" +
        std::to_string(kMaxFrameBytes) + " bytes)");
  }
  return util::Status();
}

void EdgeServer::ConnState::compact_in() {
  if (in_head > 0 && in_head * 2 >= in.size()) {
    in.erase(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(in_head));
    in_head = 0;
  }
}

EdgeServer::EdgeServer(core::EdgeConfig edge_config,
                       ServerConfig server_config,
                       IoBackendKind backend_kind,
                       std::unique_ptr<IoBackend> backend)
    : config_(server_config),
      edge_(std::move(edge_config)),
      backend_kind_(backend_kind),
      backend_(std::move(backend)) {}

util::Result<std::unique_ptr<EdgeServer>> EdgeServer::create(
    core::EdgeConfig edge_config, ServerConfig server_config) {
  if (util::Status s = server_config.validated(); !s.ok()) return s;

  util::Result<IoBackendKind> resolved =
      resolve_io_backend(server_config.backend);
  if (!resolved.ok()) return resolved.status();
  util::Result<std::unique_ptr<IoBackend>> backend =
      make_io_backend(resolved.value());
  if (!backend.ok()) return backend.status();

  std::unique_ptr<EdgeServer> server(
      new EdgeServer(std::move(edge_config), server_config,
                     resolved.value(), std::move(backend.value())));

  obs::MetricsRegistry& registry = server->edge_.metrics();
  server->connections_opened_ =
      &registry.counter(net_metrics::kConnectionsOpened);
  server->connections_closed_ =
      &registry.counter(net_metrics::kConnectionsClosed);
  server->requests_ = &registry.counter(net_metrics::kRequests);
  server->responses_ = &registry.counter(net_metrics::kResponses);
  server->shed_ = &registry.counter(net_metrics::kShed);
  server->parse_errors_ = &registry.counter(net_metrics::kParseErrors);
  server->backpressure_pauses_ =
      &registry.counter(net_metrics::kBackpressurePauses);
  server->degraded_dropped_ =
      &registry.counter(core::edge_metrics::kDegradedDropped);
  server->served_inline_ = &registry.counter(net_metrics::kServedInline);
  server->queue_delay_us_ =
      &registry.histogram(net_metrics::kQueueDelayUs);
  server->service_time_us_ =
      &registry.histogram(net_metrics::kServiceTimeUs);
  server->queue_depth_ = &registry.gauge(net_metrics::kQueueDepth);
  registry.gauge(net_metrics::kBackend)
      .set(static_cast<double>(resolved.value()));

  util::Result<UniqueFd> listen = listen_loopback(
      static_cast<std::uint16_t>(server->config_.port), server->port_);
  if (!listen.ok()) return listen.status();
  server->listen_fd_ = std::move(listen.value());
  if (util::Status s = set_nonblocking(server->listen_fd_.get()); !s.ok()) {
    return s;
  }
  server->wake_fd_ = UniqueFd(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  if (!server->wake_fd_.valid()) {
    return util::Status::io_error(std::string("eventfd failed: ") +
                                  std::strerror(errno));
  }
  if (util::Status s = server->backend_->init(server->listen_fd_.get(),
                                              server->wake_fd_.get(),
                                              *server);
      !s.ok()) {
    return s;
  }
  return server;
}

EdgeServer::~EdgeServer() { stop(); }

std::size_t EdgeServer::worker_for(std::uint64_t user_id) const {
  // Same multiply ConcurrentEdge::shard_for uses: a user's requests land
  // on one worker, so their serve order matches their arrival order.
  return static_cast<std::size_t>(
      (user_id * 0x9E3779B97F4A7C15ULL) % config_.workers);
}

util::Status EdgeServer::start() {
  if (started_) {
    return util::Status::failed_precondition(
        "EdgeServer::start called twice");
  }
  if (stopped_) {
    return util::Status::failed_precondition(
        "EdgeServer is single-use: start() after stop()");
  }
  for (std::size_t i = 0; i < config_.workers; ++i) {
    queues_.push_back(
        std::make_unique<BoundedRequestQueue>(config_.queue_capacity));
  }
  admit_batches_.resize(config_.workers);
  admit_depths_.assign(config_.workers, 0);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
  io_thread_ = std::thread([this] { io_loop(); });
  started_ = true;
  return util::Status();
}

void EdgeServer::stop() {
  if (!started_) return;
  // Workers first: closing the queues lets them drain every admitted
  // request (each still gets a response), then exit.
  for (auto& queue : queues_) queue->close();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  // Then the IO thread: it sees stopping_, drains the completed
  // responses one last time, flushes best-effort, and exits.
  stopping_.store(true, std::memory_order_release);
  std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_.get(), &one, sizeof(one));
  io_thread_.join();
  queues_.clear();
  listen_fd_.reset();
  wake_fd_.reset();
  started_ = false;
  stopped_ = true;
}

void EdgeServer::worker_loop(std::size_t worker_index) {
  BoundedRequestQueue& queue = *queues_[worker_index];
  std::vector<PendingRequest> batch;
  std::vector<CompletedResponse> done;
  done.reserve(BoundedRequestQueue::kPopBatch);
  while (queue.pop_batch(batch)) {
    // One clock read per request: each request's service ends where the
    // next one's starts.
    auto now = std::chrono::steady_clock::now();
    for (const PendingRequest& pending : batch) {
      queue.mark_started();
      done.push_back({pending.conn_id, serve_pending(pending, now)});
    }
    {
      const std::lock_guard<std::mutex> lock(completed_mutex_);
      completed_.insert(completed_.end(), done.begin(), done.end());
    }
    done.clear();
    // Only the worker that raises the flag writes: the IO thread has not
    // yet drained since the last write, and that drain will see `done`.
    if (!wake_pending_.exchange(true)) {
      std::uint64_t one = 1;
      [[maybe_unused]] ssize_t n =
          ::write(wake_fd_.get(), &one, sizeof(one));
    }
  }
}

ServeResponseFrame EdgeServer::serve_pending(
    const PendingRequest& pending,
    std::chrono::steady_clock::time_point& now) {
  const auto picked_up = now;
  queue_delay_us_->record(us_between(pending.admitted, picked_up));

  if (config_.service_delay_us > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(config_.service_delay_us));
  }
  const core::ServeResult result =
      edge_.serve(pending.request.user_id,
                  {pending.request.x, pending.request.y},
                  pending.request.time);
  now = std::chrono::steady_clock::now();
  service_time_us_->record(us_between(picked_up, now));

  ServeResponseFrame frame;
  frame.request_id = pending.request.request_id;
  frame.outcome = static_cast<std::uint8_t>(result.outcome);
  frame.kind = static_cast<std::uint8_t>(result.reported.kind);
  frame.status_code = static_cast<std::uint8_t>(result.status.code());
  frame.released = result.released() ? 1 : 0;
  if (result.released()) {
    frame.x = result.reported.location.x;
    frame.y = result.reported.location.y;
  }
  return frame;
}

void EdgeServer::queue_response(std::uint64_t conn_id,
                                const ServeResponseFrame& frame) {
  encode_scratch_.clear();
  append_response(encode_scratch_, frame);
  backend_->queue_send(conn_id, encode_scratch_.data(),
                       encode_scratch_.size());
  responses_->add();
}

void EdgeServer::close_and_forget(std::uint64_t conn_id) {
  backend_->close_connection(conn_id);
  connections_closed_->add();
  conn_states_.erase(conn_id);
}

void EdgeServer::reevaluate_backpressure(std::uint64_t conn_id) {
  const auto it = conn_states_.find(conn_id);
  if (it == conn_states_.end()) return;
  ConnState& conn = it->second;
  const std::size_t backlog = backend_->outbound_bytes(conn_id);
  if (!conn.read_paused && backlog >= config_.max_outbound_bytes) {
    conn.read_paused = true;
    backpressure_pauses_->add();
    backend_->pause_reads(conn_id);
  } else if (conn.read_paused &&
             backlog < config_.max_outbound_bytes / 2) {
    conn.read_paused = false;
    backend_->resume_reads(conn_id);
  }
}

void EdgeServer::close_if_drained(std::uint64_t conn_id) {
  const auto it = conn_states_.find(conn_id);
  if (it == conn_states_.end() || !it->second.read_eof ||
      it->second.unanswered > 0 || backend_->outbound_bytes(conn_id) > 0) {
    return;
  }
  close_and_forget(conn_id);
}

void EdgeServer::on_accept(std::uint64_t conn_id) {
  conn_states_[conn_id];  // default ConnState
  connections_opened_->add();
}

void EdgeServer::on_closed(std::uint64_t conn_id) {
  // Backend-detected close (peer EOF/error); the backend already dropped
  // its side.
  if (conn_states_.erase(conn_id) > 0) connections_closed_->add();
}

void EdgeServer::on_writable_resume(std::uint64_t conn_id) {
  reevaluate_backpressure(conn_id);
  close_if_drained(conn_id);
}

void EdgeServer::on_read_eof(std::uint64_t conn_id) {
  const auto it = conn_states_.find(conn_id);
  if (it == conn_states_.end()) return;
  it->second.read_eof = true;
  close_if_drained(conn_id);
}

void EdgeServer::on_data(std::uint64_t conn_id, const std::uint8_t* data,
                         std::size_t n) {
  const auto it = conn_states_.find(conn_id);
  if (it == conn_states_.end()) return;  // already forgotten
  ConnState& conn = it->second;
  conn.in.insert(conn.in.end(), data, data + n);

  // Frame everything buffered, staging each request on its worker's
  // batch; one clock read stamps the whole chunk.
  const auto admitted_at = std::chrono::steady_clock::now();
  for (AdmitBatch& batch : admit_batches_) batch.requests.clear();
  staged_workers_.clear();
  bool poisoned = false;
  while (true) {
    Frame frame;
    std::size_t consumed = 0;
    const util::Status parsed =
        try_decode(conn.in.data() + conn.in_head,
                   conn.in.size() - conn.in_head, frame, consumed);
    if (!parsed.ok() ||
        (consumed > 0 && frame.type != FrameType::kServeRequest)) {
      poisoned = true;  // no resync point past this frame
      break;
    }
    if (consumed == 0) break;  // partial frame; wait for more bytes
    conn.in_head += consumed;
    const std::size_t worker = worker_for(frame.request.user_id);
    PendingRequest pending;
    pending.conn_id = conn_id;
    pending.request = frame.request;
    pending.admitted = admitted_at;
    admit_batches_[worker].requests.push_back(pending);
    staged_workers_.push_back(worker);
  }
  // Frames decoded before a poisoned one are admitted (and answered)
  // exactly as if the stream had ended there.
  admit_staged(conn, conn_id);
  if (poisoned) {
    parse_errors_->add();
    close_and_forget(conn_id);
    return;
  }
  conn.compact_in();

  backend_->flush(conn_id);
  // flush() may have discovered a dead peer and fired on_closed, which
  // erased the state; re-evaluate against the map, not the stale ref.
  reevaluate_backpressure(conn_id);
}

void EdgeServer::admit_staged(ConnState& conn, std::uint64_t conn_id) {
  if (staged_workers_.empty()) return;
  requests_->add(staged_workers_.size());
  for (std::size_t w = 0; w < admit_batches_.size(); ++w) {
    AdmitBatch& batch = admit_batches_[w];
    batch.cursor = 0;
    batch.serve_inline = false;
    if (batch.requests.empty()) continue;
    // Waking a parked worker for one request, then being woken by its
    // completion, costs more than the serve: the IO thread serves it
    // below instead. The worker stays parked: only this thread pushes.
    if (batch.requests.size() == 1 && queues_[w]->worker_parked()) {
      batch.serve_inline = true;
      admit_depths_[w] = 0;
      continue;
    }
    conn.unanswered += queues_[w]->try_push_batch(
        batch.requests, batch.admitted, &admit_depths_[w]);
  }
  queue_depth_->set(static_cast<double>(std::accumulate(
      admit_depths_.begin(), admit_depths_.end(), std::size_t{0})));
  for (const std::size_t w : staged_workers_) {
    AdmitBatch& batch = admit_batches_[w];
    const std::size_t i = batch.cursor++;
    if (batch.serve_inline) {
      // The parked worker's last completions may still sit in
      // completed_: they go out first, so the user's responses leave in
      // request order.
      if (wake_pending_.load()) move_completed();
      auto now = std::chrono::steady_clock::now();
      queue_response(conn_id, serve_pending(batch.requests[i], now));
      served_inline_->add();
      continue;
    }
    if (batch.admitted[i]) continue;
    // Admission shed: immediate degraded_dropped, counted in both the
    // net layer and the box-level serve taxonomy.
    shed_->add();
    degraded_dropped_->add();
    queue_response(conn_id, shed_response(batch.requests[i].request));
  }
}

void EdgeServer::move_completed() {
  // Clear the flag BEFORE the swap: a worker appending after the swap
  // then sees it clear and writes the eventfd, so its responses are
  // drained on the next wake instead of waiting for the poll tick.
  wake_pending_.store(false);
  {
    const std::lock_guard<std::mutex> lock(completed_mutex_);
    drain_scratch_.swap(completed_);
  }
  for (const CompletedResponse& done : drain_scratch_) {
    const auto it = conn_states_.find(done.conn_id);
    if (it == conn_states_.end()) continue;  // peer left; drop it
    --it->second.unanswered;
    queue_response(done.conn_id, done.frame);
    completions_unflushed_ = true;
  }
  drain_scratch_.clear();
}

void EdgeServer::drain_completed() {
  move_completed();
  // The flag, not this call's swap, decides: an inline serve inside
  // on_data may already have moved completions that still need a flush.
  if (!completions_unflushed_) return;
  completions_unflushed_ = false;
  // Flush after the batch (not per response) so pipelined completions
  // coalesce into large sends. Ids are collected first: a flush that
  // discovers a dead peer erases from conn_states_ via on_closed.
  flush_scratch_.clear();
  for (const auto& [id, conn] : conn_states_) {
    if (backend_->outbound_bytes(id) > 0) flush_scratch_.push_back(id);
  }
  for (const std::uint64_t id : flush_scratch_) {
    if (conn_states_.find(id) == conn_states_.end()) continue;
    backend_->flush(id);
    reevaluate_backpressure(id);
    close_if_drained(id);
  }
}

void EdgeServer::io_loop() {
  while (true) {
    const util::Status polled = backend_->poll(kPollWaitMs);
    if (!polled.ok()) return;  // the engine itself broke: give up
    drain_completed();
    if (stopping_.load(std::memory_order_acquire)) {
      // Workers are already joined, so completed_ is final: one more
      // drain + best-effort flush, then close everything.
      drain_completed();
      connections_closed_->add(backend_->open_connection_count());
      backend_->shutdown_flush();
      conn_states_.clear();
      return;
    }
  }
}

}  // namespace privlocad::net
