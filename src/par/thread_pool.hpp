// Fixed-size work-stealing thread pool.
//
// The paper's scalability evaluation (Tables II/III) assumes one edge
// platform serves tens of thousands of users, and the de-obfuscation attack
// (Fig. 6) scores 37k users independently -- both are embarrassingly
// parallel across users. This pool is the repo's single parallel substrate:
// per-worker deques (owners pop LIFO for cache locality, thieves steal FIFO
// so the oldest -- usually biggest -- chunks migrate), std::jthread workers,
// and a blocking for_each_index that lets the calling thread help drain the
// queues instead of idling.
//
// Determinism contract: every parallel helper in this repo writes results
// into per-index slots and derives per-item randomness by seed-splitting
// (rng::Engine::split(item_index)), so the OUTPUT of a parallel run is
// byte-identical to the serial run regardless of scheduling. threads == 1
// (or PRIVLOCAD_THREADS=1) additionally forces fully serial EXECUTION,
// which tests use as the reference ordering.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace privlocad::obs {
class MetricsRegistry;
}

namespace privlocad::par {

/// Worker count the global pool uses: the PRIVLOCAD_THREADS environment
/// variable when set, otherwise std::thread::hardware_concurrency()
/// (minimum 1). Throws util::StatusError (kParseError) unless a set,
/// non-empty PRIVLOCAD_THREADS is a positive integer.
std::size_t hardware_threads();

/// Cumulative execution counters for one pool (since construction).
struct PoolStats {
  std::uint64_t tasks_executed = 0;  ///< tasks run to completion
  std::uint64_t steals = 0;          ///< tasks taken from a sibling deque
  std::size_t queue_depth = 0;       ///< tasks queued right now
};

class ThreadPool {
 public:
  /// Spawns `threads - 1` workers (the calling thread is the remaining
  /// lane: it helps drain queues inside for_each_index). threads >= 1.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Parallel lanes including the caller; 1 means fully serial.
  std::size_t thread_count() const { return thread_count_; }

  /// Enqueues a fire-and-forget task (round-robin across worker deques).
  /// With thread_count() == 1 the task runs inline before returning.
  void submit(std::function<void()> task);

  /// Runs `fn(i)` for every i in [begin, end), `grain` indices per task,
  /// and blocks until all of them completed. The caller participates in
  /// the work. Nested calls from inside a pool task run serially inline
  /// (no deadlock, same results). Exceptions from `fn` are rethrown to
  /// the caller after the loop drains (first one wins).
  void for_each_index(std::size_t begin, std::size_t end, std::size_t grain,
                      const std::function<void(std::size_t)>& fn);

  /// Snapshot of the pool's execution counters (relaxed reads; exact once
  /// the pool is quiescent).
  PoolStats stats() const;

  /// Publishes stats() into `registry` as gauges named
  /// `<prefix>tasks_executed`, `<prefix>steals`, `<prefix>queue_depth`.
  void export_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix = "pool.") const;

  /// Process-wide pool sized by hardware_threads() at first use.
  static ThreadPool& global();

 private:
  struct Worker {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void worker_loop(std::stop_token stop, std::size_t self);
  /// Pops from own deque (back) or steals (front); empty when none found.
  std::function<void()> take_task(std::size_t self);
  /// Runs one queued task if any is available; used by helping callers.
  bool try_run_one();

  std::size_t thread_count_;
  std::vector<std::unique_ptr<Worker>> queues_;
  std::vector<std::jthread> workers_;
  std::mutex sleep_mutex_;
  std::condition_variable_any sleep_cv_;  // stop_token-aware worker sleep
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> next_queue_{0};
  std::atomic<std::uint64_t> tasks_executed_{0};
  std::atomic<std::uint64_t> steals_{0};
};

/// Chunk size that keeps every lane busy without drowning in task
/// bookkeeping: ~4 chunks per lane, at least 1.
std::size_t default_grain(std::size_t items, std::size_t threads);

}  // namespace privlocad::par
