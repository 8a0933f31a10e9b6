// Admission control for edge_serverd: bounded per-worker request queues.
//
// An open-loop arrival process does not slow down when the box saturates
// (that is the point of the harness), so the server must bound its own
// queueing or die by memory. The rule is deterministic and decided AT
// PUSH TIME: a request is shed iff its worker's queue (in-hand requests
// included) is at capacity. A shed request gets an immediate
// degraded_dropped response (fail private: nothing is released), tallied
// into the same edge.serve.degraded_dropped counter the fault paths use
// -- one box-level taxonomy for "dropped rather than leak". Because the
// decision happens entirely at push, served + shed == sent accounting is
// exact.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <vector>

#include "net/wire.hpp"

namespace privlocad::net {

/// One admitted request waiting for a worker. `admitted` timestamps the
/// push so the worker can split queue delay from service time.
struct PendingRequest {
  std::uint64_t conn_id = 0;
  ServeRequestFrame request{};
  std::chrono::steady_clock::time_point admitted{};
};

/// MPSC-ish bounded queue: one IO thread admits, one worker pops; the
/// bound is what matters, not the concurrency shape. Both sides move
/// work in batches so the handoff costs one lock per batch, not one per
/// request:
///   - try_push_batch admits every request one recv carried for this
///     worker under ONE lock and ONE notify_one, giving each request the
///     exact decision it would get if it were pushed alone.
///   - pop_batch moves up to kPopBatch requests out under one lock. A
///     popped request the worker has not started yet is still QUEUED:
///     it stays "in hand" and counts toward capacity and depth until
///     the worker calls mark_started() for it. So queue_capacity still
///     bounds the requests waiting per worker, wherever they wait.
/// Admission never blocks -- a false decision is the shed, made at push
/// time.
class BoundedRequestQueue {
 public:
  /// The most requests one pop_batch hands a worker: bounds the worker's
  /// batch vector and how long a popped request can sit in hand.
  static constexpr std::size_t kPopBatch = 64;

  explicit BoundedRequestQueue(std::size_t capacity);

  /// Admits `requests` in order under one lock; admitted ones are moved
  /// into the queue. `admitted` is resized to requests.size(), and
  /// admitted[i] is false iff the queue (in-hand requests included) was
  /// at capacity when requests[i]'s turn came, or the queue is closed.
  /// Wakes the worker at most once. Returns how many were admitted. A
  /// non-null `depth` receives the requests waiting for service (queued
  /// plus popped-but-not-started) as that same lock saw them after the
  /// batch.
  std::size_t try_push_batch(std::span<PendingRequest> requests,
                             std::vector<bool>& admitted,
                             std::size_t* depth = nullptr);

  /// Blocks until an item or close, then replaces `out` with up to
  /// kPopBatch items, oldest first. The worker must call mark_started()
  /// once per item as it begins serving it. False (with `out` empty)
  /// means closed AND drained.
  bool pop_batch(std::vector<PendingRequest>& out);

  /// One popped request leaves the queue's books: it is now in service,
  /// not waiting. Called from the worker thread; lock-free.
  void mark_started();

  /// Wakes poppers; pop_batch drains the backlog then returns false.
  void close();

  /// True iff the worker is blocked in pop_batch with nothing queued and
  /// nothing in hand, and the queue is open. Decided under the queue
  /// lock; with a single pusher, a parked worker stays parked until that
  /// pusher pushes (or close() runs).
  bool worker_parked() const;

  /// Popped-but-not-started requests alone (0 whenever the worker is
  /// idle or between batches).
  std::size_t in_hand() const { return in_hand_.load(); }
  std::size_t capacity() const { return capacity_; }

 private:
  /// The one admission rule; caller holds mutex_.
  bool admit_locked(PendingRequest& request);
  std::size_t depth_locked() const { return items_.size() + in_hand_.load(); }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<PendingRequest> items_;
  bool closed_ = false;
  /// pop_batch is waiting on ready_; set and cleared under mutex_.
  bool parked_ = false;
  /// Popped by pop_batch, not yet mark_started(). Raised under mutex_,
  /// lowered lock-free by the worker as each request starts.
  std::atomic<std::size_t> in_hand_{0};
};

}  // namespace privlocad::net
