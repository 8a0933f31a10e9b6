#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "common.hpp"

namespace privlocad::edgebench {

SpanRecorder::SpanRecorder(std::size_t capacity)
    : spans_(std::make_unique<Span[]>(capacity)),
      capacity_(capacity),
      origin_ns_(now_ns()) {}

std::int64_t SpanRecorder::add(const char* name, std::int64_t start_ns,
                               std::int64_t end_ns, std::int64_t parent,
                               std::uint64_t request, std::uint32_t lane) {
  const std::size_t index = next_.fetch_add(1, std::memory_order_relaxed);
  if (index >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  spans_[index] = Span{name, start_ns, end_ns, parent, request, lane};
  return static_cast<std::int64_t>(index);
}

std::int64_t SpanRecorder::begin(const char* name, std::int64_t parent) {
  const std::int64_t now = now_ns();
  return add(name, now, now, parent);
}

void SpanRecorder::end(std::int64_t index) {
  if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
}

std::size_t SpanRecorder::size() const {
  return std::min(next_.load(std::memory_order_relaxed), capacity_);
}

std::vector<SelfTime> SpanRecorder::self_times() const {
  const std::size_t n = size();
  // Children intervals per parent, clipped to the parent and merged, so
  // overlapping children are not subtracted twice.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (s.parent < 0 || static_cast<std::size_t>(s.parent) >= n) continue;
    children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                              s.end_ns);
  }
  std::map<std::string, SelfTime> by_name;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t run_start = 0;
    std::int64_t run_end = 0;
    bool open = false;
    for (auto [lo, hi] : intervals) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= run_end) {
        run_end = std::max(run_end, hi);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = lo;
      run_end = hi;
      open = true;
    }
    if (open) covered += run_end - run_start;
    const std::int64_t duration = s.end_ns - s.start_ns;
    SelfTime& row = by_name[s.name];
    row.name = s.name;
    ++row.count;
    row.total_us += 1e-3 * static_cast<double>(duration);
    row.self_us += 1e-3 * static_cast<double>(duration - covered);
  }
  std::vector<SelfTime> rows;
  rows.reserve(by_name.size());
  for (auto& [name, row] : by_name) rows.push_back(row);
  std::sort(rows.begin(), rows.end(), [](const SelfTime& a, const SelfTime& b) {
    return a.self_us > b.self_us;
  });
  return rows;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    // Request spans get one row per request (they overlap in time);
    // everything else sits on its lane.
    const std::uint64_t tid =
        s.request != kNoRequest ? 1000 + s.request : s.lane;
    std::fprintf(
        f,
        "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
        "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%lld",
        i == 0 ? "" : ",\n", s.name, static_cast<unsigned long long>(tid),
        1e-3 * static_cast<double>(s.start_ns - origin_ns_),
        1e-3 * static_cast<double>(s.end_ns - s.start_ns), i,
        static_cast<long long>(s.parent));
    if (s.request != kNoRequest) {
      std::fprintf(f, ",\"request\":%llu",
                   static_cast<unsigned long long>(s.request));
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

bool SpanRecorder::write_self_time_table(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\tcount\ttotal_us\tself_us\tmean_self_us\n");
  for (const SelfTime& row : self_times()) {
    std::fprintf(f, "%s\t%llu\t%.3f\t%.3f\t%.4f\n", row.name.c_str(),
                 static_cast<unsigned long long>(row.count), row.total_us,
                 row.self_us,
                 row.self_us / static_cast<double>(std::max<std::uint64_t>(
                                   row.count, 1)));
  }
  return std::fclose(f) == 0;
}

}  // namespace privlocad::edgebench
