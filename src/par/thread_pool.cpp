#include "par/thread_pool.hpp"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "obs/metrics.hpp"
#include "util/status.hpp"
#include "util/validation.hpp"

namespace privlocad::par {
namespace {

// Set for the lifetime of a worker thread and around caller-helped task
// runs: any for_each_index issued from inside a task runs serially inline,
// so nested parallelism can never deadlock on a full pool.
thread_local bool tl_in_pool_task = false;

}  // namespace

std::size_t hardware_threads() {
  // A malformed override throws: a run must never silently use a different
  // pool size than its environment claims.
  if (const char* env = std::getenv("PRIVLOCAD_THREADS");
      env != nullptr && *env != '\0') {
    const char* end = env + std::strlen(env);
    std::size_t parsed = 0;
    const auto [ptr, error] = std::from_chars(env, end, parsed);
    if (error != std::errc() || ptr != end || parsed < 1) {
      throw util::StatusError(util::Status::parse_error(
          std::string("PRIVLOCAD_THREADS must be a positive integer, got '") +
          env + "'"));
    }
    return parsed;
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<std::size_t>(hc);
}

std::size_t default_grain(std::size_t items, std::size_t threads) {
  const std::size_t chunks = threads * 4;
  const std::size_t grain = items / (chunks == 0 ? 1 : chunks);
  return grain == 0 ? 1 : grain;
}

ThreadPool::ThreadPool(std::size_t threads) : thread_count_(threads) {
  util::require(threads >= 1, "ThreadPool needs at least one thread");
  const std::size_t workers = threads - 1;
  queues_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    queues_.push_back(std::make_unique<Worker>());
  }
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back(
        [this, i](std::stop_token stop) { worker_loop(stop, i); });
  }
}

ThreadPool::~ThreadPool() {
  for (std::jthread& w : workers_) w.request_stop();
  {
    // Pairing the notify with the lock closes the race against a worker
    // that checked the predicate but has not yet gone to sleep.
    const std::lock_guard<std::mutex> lock(sleep_mutex_);
  }
  sleep_cv_.notify_all();
  // jthread joins on destruction.
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(hardware_threads());
  return pool;
}

PoolStats ThreadPool::stats() const {
  PoolStats stats;
  stats.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  stats.steals = steals_.load(std::memory_order_relaxed);
  stats.queue_depth = pending_.load(std::memory_order_relaxed);
  return stats;
}

void ThreadPool::export_metrics(obs::MetricsRegistry& registry,
                                const std::string& prefix) const {
  const PoolStats snapshot = stats();
  registry.gauge(prefix + "tasks_executed")
      .set(static_cast<double>(snapshot.tasks_executed));
  registry.gauge(prefix + "steals")
      .set(static_cast<double>(snapshot.steals));
  registry.gauge(prefix + "queue_depth")
      .set(static_cast<double>(snapshot.queue_depth));
}

void ThreadPool::submit(std::function<void()> task) {
  if (queues_.empty()) {
    task();
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::size_t slot = next_queue_.fetch_add(1) % queues_.size();
  {
    const std::lock_guard<std::mutex> lock(queues_[slot]->mutex);
    queues_[slot]->tasks.push_back(std::move(task));
  }
  {
    // pending_ moves under sleep_mutex_ so a worker that just saw 0 in the
    // wait predicate cannot miss this increment (classic lost-wakeup race).
    const std::lock_guard<std::mutex> lock(sleep_mutex_);
    pending_.fetch_add(1);
  }
  sleep_cv_.notify_one();
}

std::function<void()> ThreadPool::take_task(std::size_t self) {
  // Own deque first, newest task (LIFO keeps the working set hot) ...
  {
    Worker& own = *queues_[self];
    const std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.tasks.empty()) {
      auto task = std::move(own.tasks.back());
      own.tasks.pop_back();
      pending_.fetch_sub(1);
      return task;
    }
  }
  // ... then steal the oldest task from a sibling (FIFO end).
  for (std::size_t hop = 1; hop < queues_.size(); ++hop) {
    Worker& victim = *queues_[(self + hop) % queues_.size()];
    const std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.tasks.empty()) {
      auto task = std::move(victim.tasks.front());
      victim.tasks.pop_front();
      pending_.fetch_sub(1);
      steals_.fetch_add(1, std::memory_order_relaxed);
      return task;
    }
  }
  return {};
}

bool ThreadPool::try_run_one() {
  for (std::size_t slot = 0; slot < queues_.size(); ++slot) {
    std::function<void()> task;
    {
      Worker& victim = *queues_[slot];
      const std::lock_guard<std::mutex> lock(victim.mutex);
      if (victim.tasks.empty()) continue;
      task = std::move(victim.tasks.front());
      victim.tasks.pop_front();
    }
    pending_.fetch_sub(1);
    const bool was_in_task = tl_in_pool_task;
    tl_in_pool_task = true;
    task();
    tl_in_pool_task = was_in_task;
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void ThreadPool::worker_loop(std::stop_token stop, std::size_t self) {
  tl_in_pool_task = true;
  while (true) {
    if (auto task = take_task(self)) {
      task();
      tasks_executed_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    const bool have_work = sleep_cv_.wait(lock, stop, [this] {
      return pending_.load() > 0;
    });
    if (!have_work) return;  // stop requested, queues drained
  }
}

void ThreadPool::for_each_index(std::size_t begin, std::size_t end,
                                std::size_t grain,
                                const std::function<void(std::size_t)>& fn) {
  if (end <= begin) return;
  util::require(grain >= 1, "for_each_index grain must be >= 1");
  const std::size_t count = end - begin;
  if (thread_count_ == 1 || tl_in_pool_task || count <= grain) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  struct LoopState {
    std::atomic<std::size_t> remaining;
    std::mutex mutex;
    std::condition_variable done_cv;
    std::exception_ptr error;
  };
  auto state = std::make_shared<LoopState>();
  const std::size_t tasks = (count + grain - 1) / grain;
  state->remaining.store(tasks);

  for (std::size_t t = 0; t < tasks; ++t) {
    const std::size_t lo = begin + t * grain;
    const std::size_t hi = lo + grain < end ? lo + grain : end;
    // `fn` outlives the loop because the caller blocks below until every
    // task finished; `state` is shared so stragglers stay valid.
    submit([state, &fn, lo, hi] {
      try {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(state->mutex);
        if (!state->error) state->error = std::current_exception();
      }
      if (state->remaining.fetch_sub(1) == 1) {
        const std::lock_guard<std::mutex> lock(state->mutex);
        state->done_cv.notify_all();
      }
    });
  }

  // The caller is a full lane: drain queued chunks instead of idling.
  while (state->remaining.load() > 0) {
    if (try_run_one()) continue;
    std::unique_lock<std::mutex> lock(state->mutex);
    state->done_cv.wait(lock,
                        [&] { return state->remaining.load() == 0; });
  }
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace privlocad::par
