// Spans for the benchmark's traced run.
//
// Spans are recorded only by the benchmark's own files, around the calls
// it makes into the library's public functions; nothing inside the
// library is instrumented. Each span holds a name, start, end, parent and
// request id. Request spans are sampled for one in kSampleStride request
// ids. Spans land in a buffer preallocated at construction (no allocation
// or locking on the recording path; a full buffer drops and counts), and
// are written out when the run ends as Chrome trace-event JSON plus a
// per-name self-time table.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace privlocad::edgebench {

inline constexpr std::uint64_t kNoRequest = ~std::uint64_t{0};

struct Span {
  const char* name = nullptr;  ///< a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index of the parent span, -1 for a root
  std::uint64_t request = kNoRequest;
  std::uint32_t lane = 0;  ///< display row for spans without a request
};

/// Total and self time of every span sharing one name. Self time is the
/// span's duration minus the part of it that its children cover.
struct SelfTime {
  std::string name;
  std::uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};

class SpanRecorder {
 public:
  static constexpr std::uint64_t kSampleStride = 64;
  static bool sampled(std::uint64_t request_id) {
    return request_id % kSampleStride == 0;
  }

  explicit SpanRecorder(std::size_t capacity);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Records a finished span; thread-safe. Returns its index, or -1 when
  /// the buffer is full.
  std::int64_t add(const char* name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t parent = -1,
                   std::uint64_t request = kNoRequest,
                   std::uint32_t lane = 0);

  /// Opens a span whose end is not known yet (so children can name it as
  /// their parent); close it with end(). Thread-safe.
  std::int64_t begin(const char* name, std::int64_t parent = -1);
  void end(std::int64_t index);

  std::size_t size() const;
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Per-name totals, heaviest self time first. Call once recording has
  /// stopped.
  std::vector<SelfTime> self_times() const;

  /// Chrome trace-event JSON ("X" events, microseconds from the
  /// recorder's construction). False on IO failure.
  bool write_chrome_trace(const std::string& path) const;

  /// Tab-separated self-time table, one line per span name.
  bool write_self_time_table(const std::string& path) const;

 private:
  std::unique_ptr<Span[]> spans_;
  std::size_t capacity_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::int64_t origin_ns_;
};

/// Opens a span on construction and closes it on destruction; a no-op
/// when the recorder is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name,
             std::int64_t parent = -1)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->begin(name, parent) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t index() const { return index_; }

 private:
  SpanRecorder* recorder_;
  std::int64_t index_;
};

}  // namespace privlocad::edgebench
