#include "net/admission.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <string>

#include "util/validation.hpp"

namespace privlocad::net {

const char* admission_policy_name(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kQueueCapacity:
      return "queue_capacity";
    case AdmissionPolicy::kLatencyBudget:
      return "latency_budget";
  }
  return "unknown";
}

util::Result<AdmissionPolicy> parse_admission_policy(const char* name) {
  if (name != nullptr && std::strcmp(name, "queue_capacity") == 0) {
    return AdmissionPolicy::kQueueCapacity;
  }
  if (name != nullptr && std::strcmp(name, "latency_budget") == 0) {
    return AdmissionPolicy::kLatencyBudget;
  }
  return util::Status::parse_error(
      std::string(
          "admission policy must be queue_capacity | latency_budget, "
          "got '") +
      (name == nullptr ? "" : name) + "'");
}

BoundedRequestQueue::BoundedRequestQueue(std::size_t capacity,
                                         AdmissionPolicy policy,
                                         std::uint32_t latency_budget_us)
    : capacity_(capacity),
      policy_(policy),
      latency_budget_us_(latency_budget_us) {
  util::require(capacity >= 1, "request queue capacity must be >= 1");
  util::require(policy != AdmissionPolicy::kLatencyBudget ||
                    latency_budget_us >= 1,
                "latency_budget admission needs a budget >= 1us");
}

bool BoundedRequestQueue::admit_locked(PendingRequest& request) {
  if (closed_) return false;
  const std::size_t depth = depth_locked();
  if (depth >= capacity_) return false;
  if (policy_ == AdmissionPolicy::kLatencyBudget) {
    const double projected =
        static_cast<double>(depth) *
        ewma_item_delay_us_.load(std::memory_order_relaxed);
    if (projected > static_cast<double>(latency_budget_us_)) return false;
  }
  request.depth_at_admit = depth;
  items_.push_back(std::move(request));
  return true;
}

bool BoundedRequestQueue::try_push(PendingRequest request) {
  bool admitted = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    admitted = admit_locked(request);
  }
  if (admitted) ready_.notify_one();
  return admitted;
}

std::size_t BoundedRequestQueue::try_push_batch(
    std::span<PendingRequest> requests, std::vector<bool>& admitted) {
  admitted.resize(requests.size());
  std::size_t count = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      admitted[i] = admit_locked(requests[i]);
      if (admitted[i]) ++count;
    }
  }
  if (count > 0) ready_.notify_one();
  return count;
}

bool BoundedRequestQueue::pop_batch(std::vector<PendingRequest>& out) {
  out.clear();
  std::unique_lock<std::mutex> lock(mutex_);
  ready_.wait(lock, [this] { return closed_ || !items_.empty(); });
  if (items_.empty()) return false;  // closed and drained
  const std::size_t n = std::min(items_.size(), kPopBatch);
  const auto last = items_.begin() + static_cast<std::ptrdiff_t>(n);
  out.assign(std::make_move_iterator(items_.begin()),
             std::make_move_iterator(last));
  items_.erase(items_.begin(), last);
  in_hand_ += n;
  return true;
}

void BoundedRequestQueue::mark_started() { --in_hand_; }

void BoundedRequestQueue::close() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  ready_.notify_all();
}

void BoundedRequestQueue::observe_queue_delay_us(
    double delay_us, std::size_t depth_at_admit) {
  if (delay_us < 0.0) delay_us = 0.0;
  const double sample =
      delay_us / static_cast<double>(depth_at_admit > 0 ? depth_at_admit
                                                        : std::size_t{1});
  double current = ewma_item_delay_us_.load(std::memory_order_relaxed);
  double next = current + (sample - current) / 8.0;
  while (!ewma_item_delay_us_.compare_exchange_weak(
      current, next, std::memory_order_relaxed,
      std::memory_order_relaxed)) {
    next = current + (sample - current) / 8.0;
  }
}

double BoundedRequestQueue::projected_delay_us() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<double>(depth_locked()) *
         ewma_item_delay_us_.load(std::memory_order_relaxed);
}

std::size_t BoundedRequestQueue::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return depth_locked();
}

}  // namespace privlocad::net
