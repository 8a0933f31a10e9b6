#include "net/admission.hpp"

#include <algorithm>
#include <iterator>

#include "util/validation.hpp"

namespace privlocad::net {

BoundedRequestQueue::BoundedRequestQueue(std::size_t capacity)
    : capacity_(capacity) {
  util::require(capacity >= 1, "request queue capacity must be >= 1");
}

bool BoundedRequestQueue::admit_locked(PendingRequest& request) {
  if (closed_ || depth_locked() >= capacity_) return false;
  items_.push_back(std::move(request));
  return true;
}

std::size_t BoundedRequestQueue::try_push_batch(
    std::span<PendingRequest> requests, std::vector<bool>& admitted,
    std::size_t* depth) {
  admitted.resize(requests.size());
  std::size_t count = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      admitted[i] = admit_locked(requests[i]);
      if (admitted[i]) ++count;
    }
    if (depth != nullptr) *depth = depth_locked();
  }
  if (count > 0) ready_.notify_one();
  return count;
}

bool BoundedRequestQueue::pop_batch(std::vector<PendingRequest>& out) {
  out.clear();
  std::unique_lock<std::mutex> lock(mutex_);
  parked_ = true;
  ready_.wait(lock, [this] { return closed_ || !items_.empty(); });
  parked_ = false;
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

bool BoundedRequestQueue::worker_parked() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return parked_ && !closed_ && items_.empty() && in_hand_.load() == 0;
}

}  // namespace privlocad::net
