// Admission control for edge_serverd: bounded per-worker request queues
// with a pluggable shed policy.
//
// An open-loop arrival process does not slow down when the box saturates
// (that is the point of the harness), so the server must bound its own
// queueing or die by memory. Both policies decide AT PUSH TIME and shed
// requests get an immediate degraded_dropped response (fail private:
// nothing is released), tallied into the same edge.serve.degraded_dropped
// counter the fault paths use -- one box-level taxonomy for "dropped
// rather than leak".
//
//   kQueueCapacity -- PR 8's policy, fully deterministic: shed iff the
//     worker's queue is at capacity at admission time.
//   kLatencyBudget -- shed on PROJECTED QUEUE DELAY instead of raw queue
//     length: the workers feed back observed net.queue_delay_us samples
//     (normalized per queued item ahead at admission, EWMA-smoothed), and
//     an arrival is shed when depth x EWMA exceeds the configured budget.
//     A short latency budget sheds earlier than the capacity bound when
//     the serving path is slow, and never later: capacity stays the hard
//     backstop. The decision still happens entirely at push, so
//     served + shed == sent accounting is exact.
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
#include "util/status.hpp"

namespace privlocad::net {

/// Which shed rule a BoundedRequestQueue applies at push.
enum class AdmissionPolicy : std::uint8_t {
  kQueueCapacity = 0,  ///< shed iff the queue is full (PR 8 semantics)
  kLatencyBudget = 1,  ///< shed when projected queue delay exceeds budget
};

/// "queue_capacity" | "latency_budget" -- stable names for flags, JSON
/// records, and log lines.
const char* admission_policy_name(AdmissionPolicy policy);

/// Parses a policy name; typed kParseError on anything else.
util::Result<AdmissionPolicy> parse_admission_policy(const char* name);

/// One admitted request waiting for a worker. `admitted` timestamps the
/// push so the worker can split queue delay from service time;
/// `depth_at_admit` is how many requests sat ahead (queued or popped but
/// not started), so the observed delay can be normalized into a per-item
/// cost for the EWMA.
struct PendingRequest {
  std::uint64_t conn_id = 0;
  ServeRequestFrame request{};
  std::chrono::steady_clock::time_point admitted{};
  std::size_t depth_at_admit = 0;
};

/// MPSC-ish bounded queue: one IO thread admits, one worker pops; the
/// bound is what matters, not the concurrency shape. Both sides move
/// work in batches so the handoff costs one lock per batch, not one per
/// request:
///   - try_push_batch admits every request one recv carried for this
///     worker under ONE lock and ONE notify_one, giving each request the
///     exact decision (and depth_at_admit) a sequential try_push would.
///     try_push admits one request through the same locked rule.
///   - pop_batch moves up to kPopBatch requests out under one lock. A
///     popped request the worker has not started yet is still QUEUED:
///     it stays "in hand" and counts toward capacity, size(),
///     projected_delay_us() and depth_at_admit until the worker calls
///     mark_started() for it. So queue_capacity still bounds the
///     requests waiting per worker, wherever they wait.
/// Admission never blocks -- a false decision is the shed, made at push
/// time.
class BoundedRequestQueue {
 public:
  /// The most requests one pop_batch hands a worker: bounds the worker's
  /// batch vector and how long a popped request can sit in hand.
  static constexpr std::size_t kPopBatch = 64;

  explicit BoundedRequestQueue(
      std::size_t capacity,
      AdmissionPolicy policy = AdmissionPolicy::kQueueCapacity,
      std::uint32_t latency_budget_us = 0);

  /// False iff the queue (in-hand requests included) is at capacity, the
  /// policy projects the new arrival past its latency budget, or the
  /// queue is closed.
  bool try_push(PendingRequest request);

  /// Admits `requests` in order under one lock, as if each went through
  /// try_push in turn; admitted ones are moved into the queue.
  /// `admitted` is resized to requests.size() and admitted[i] is
  /// try_push's answer for requests[i]. Wakes the worker at most once.
  /// Returns how many were admitted.
  std::size_t try_push_batch(std::span<PendingRequest> requests,
                             std::vector<bool>& admitted);

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

  /// Worker feedback: the queue delay a popped request actually saw and
  /// the depth it was admitted behind. Folds delay/max(1,depth) -- the
  /// per-queued-item wait -- into the EWMA the latency-budget policy
  /// projects from. Called from the worker thread; lock-free.
  void observe_queue_delay_us(double delay_us, std::size_t depth_at_admit);

  /// The delay a request admitted right now is projected to wait:
  /// current depth x EWMA(per-item queue delay). What try_push compares
  /// against the budget under kLatencyBudget.
  double projected_delay_us() const;

  /// The smoothed per-queued-item delay estimate (microseconds).
  double ewma_item_delay_us() const {
    return ewma_item_delay_us_.load(std::memory_order_relaxed);
  }

  /// Requests waiting for service: queued plus popped-but-not-started.
  std::size_t size() const;
  /// Popped-but-not-started requests alone (0 whenever the worker is
  /// idle or between batches).
  std::size_t in_hand() const { return in_hand_.load(); }
  std::size_t capacity() const { return capacity_; }
  AdmissionPolicy policy() const { return policy_; }
  std::uint32_t latency_budget_us() const { return latency_budget_us_; }

 private:
  /// The one admission rule; caller holds mutex_.
  bool admit_locked(PendingRequest& request);
  std::size_t depth_locked() const { return items_.size() + in_hand_.load(); }

  const std::size_t capacity_;
  const AdmissionPolicy policy_;
  const std::uint32_t latency_budget_us_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<PendingRequest> items_;
  bool closed_ = false;
  /// Popped by pop_batch, not yet mark_started(). Raised under mutex_,
  /// lowered lock-free by the worker as each request starts.
  std::atomic<std::size_t> in_hand_{0};
  /// EWMA over delay/max(1,depth) samples, alpha = 1/8. Atomic so the
  /// worker writes and the IO thread reads without taking the queue
  /// mutex on the serve path.
  std::atomic<double> ewma_item_delay_us_{0.0};
};

}  // namespace privlocad::net
