#include "driver.hpp"

#include <errno.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "common.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

namespace privlocad::edgebench {
namespace {

constexpr std::size_t kInBufferBytes = 256 * 1024;

enum : std::uint8_t { kPending = 0, kSent = 1, kAnswered = 2 };

struct Conn {
  net::UniqueFd fd;
  std::vector<std::uint8_t> out;
  std::size_t out_head = 0;
  std::vector<std::uint8_t> in = std::vector<std::uint8_t>(kInBufferBytes);
  std::size_t in_len = 0;
  bool dead = false;

  std::size_t backlog() const { return out.size() - out_head; }
};

/// One nonblocking send of everything queued on `conn`.
void flush(Conn& conn) {
  while (!conn.dead && conn.backlog() > 0) {
    const ssize_t wrote = ::send(conn.fd.get(), conn.out.data() + conn.out_head,
                                 conn.backlog(), MSG_NOSIGNAL);
    if (wrote > 0) {
      conn.out_head += static_cast<std::size_t>(wrote);
      continue;
    }
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    conn.dead = true;
  }
  if (conn.out_head == conn.out.size()) {
    conn.out.clear();
    conn.out_head = 0;
  } else if (conn.out_head >= 64 * 1024) {
    conn.out.erase(conn.out.begin(),
                   conn.out.begin() +
                       static_cast<std::ptrdiff_t>(conn.out_head));
    conn.out_head = 0;
  }
}

/// Opens config.connections nonblocking loopback connections; false when
/// any fails.
bool connect_all(const DriverConfig& config, std::vector<Conn>& conns) {
  conns = std::vector<Conn>(config.connections);
  for (Conn& conn : conns) {
    util::Result<net::UniqueFd> fd = net::connect_loopback(config.port);
    if (!fd.ok() || !net::set_nonblocking(fd.value().get()).ok()) {
      return false;
    }
    conn.fd = std::move(fd.value());
  }
  return true;
}

/// Reads everything `conn` has and calls on_response(frame, received_ns)
/// for each decoded response; a malformed frame kills the connection.
template <typename OnResponse>
void read_conn(Conn& conn, std::uint64_t& wire_errors,
               const OnResponse& on_response) {
  while (!conn.dead) {
    const ssize_t got = ::recv(conn.fd.get(), conn.in.data() + conn.in_len,
                               conn.in.size() - conn.in_len, 0);
    if (got < 0 && errno == EINTR) continue;
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (got <= 0) {
      conn.dead = true;
      return;
    }
    const std::int64_t received_ns = now_ns();
    conn.in_len += static_cast<std::size_t>(got);
    std::size_t head = 0;
    while (true) {
      net::Frame frame;
      std::size_t consumed = 0;
      if (!net::try_decode(conn.in.data() + head, conn.in_len - head, frame,
                           consumed)
               .ok() ||
          (consumed > 0 && frame.type != net::FrameType::kServeResponse)) {
        ++wire_errors;
        conn.dead = true;
        return;
      }
      if (consumed == 0) break;
      head += consumed;
      on_response(frame.response, received_ns);
    }
    std::memmove(conn.in.data(), conn.in.data() + head, conn.in_len - head);
    conn.in_len -= head;
    if (static_cast<std::size_t>(got) < kInBufferBytes / 2) return;
  }
}

/// Sets each live connection's poll events (POLLOUT only while it has
/// unsent bytes); false when every connection is dead.
bool arm_poll(const std::vector<Conn>& conns, std::vector<pollfd>& fds) {
  bool any_alive = false;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    fds[c].fd = conns[c].fd.get();
    fds[c].events =
        conns[c].dead
            ? 0
            : static_cast<short>(POLLIN |
                                 (conns[c].backlog() > 0 ? POLLOUT : 0));
    fds[c].revents = 0;
    any_alive = any_alive || !conns[c].dead;
  }
  return any_alive;
}

/// Fail-private on the wire: a released location never bit-equals the
/// raw one, and a non-released response carries zeroed coordinates.
bool leaks_raw(const net::ServeRequestFrame& sent,
               const net::ServeResponseFrame& r) {
  return r.released != 0
             ? std::bit_cast<std::uint64_t>(r.x) ==
                       std::bit_cast<std::uint64_t>(sent.x) &&
                   std::bit_cast<std::uint64_t>(r.y) ==
                       std::bit_cast<std::uint64_t>(sent.y)
             : r.x != 0.0 || r.y != 0.0;
}

bool is_shed(const net::ServeResponseFrame& r) {
  return static_cast<core::ServeOutcome>(r.outcome) ==
         core::ServeOutcome::kDegradedDropped;
}

}  // namespace

DriverResult run_driver(const DriverConfig& config,
                        const std::vector<net::TimedRequest>& plan) {
  DriverResult result;
  // Wake-ups land within ~1 us of the requested deadline instead of the
  // default 50 us slack, so lateness measures the driver, not the timer.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);

  std::vector<Conn> conns;
  if (!connect_all(config, conns)) {
    result.connect_failed = true;
    return result;
  }

  const std::size_t n = plan.size();
  std::vector<std::int64_t> due_ns(n);
  std::vector<std::int64_t> first_send_ns(n, 0);
  std::vector<std::uint8_t> state(n, kPending);
  // Encode-done times, kept only for sampled ids in the traced run.
  std::vector<std::int64_t> encoded_ns(config.spans != nullptr ? n : 0, 0);
  result.latency_by_id.assign(n, NAN);

  const auto warmup_ns = static_cast<std::int64_t>(config.warmup_s * 1e9);
  std::size_t first_timed = n;
  for (std::size_t i = 0; i < n; ++i) {
    due_ns[i] = static_cast<std::int64_t>(plan[i].at_s * 1e9);
    if (first_timed == n && due_ns[i] >= warmup_ns) first_timed = i;
  }
  if (first_timed < n) {
    result.timed_duration_s = plan.back().at_s - plan[first_timed].at_s;
  }

  std::vector<pollfd> fds(conns.size());
  double send_to_response_sum_us = 0.0;
  std::uint64_t send_to_response_count = 0;
  CpuSample driver_start{};
  CpuSample process_start{};
  const std::int64_t t0 = now_ns();
  std::size_t next = 0;

  const auto handle_response = [&](const net::ServeResponseFrame& r,
                                   std::int64_t received_ns) {
    if (r.request_id >= n || state[r.request_id] != kSent) {
      ++result.wire_errors;  // unknown or duplicate id
      return;
    }
    const std::size_t id = r.request_id;
    state[id] = kAnswered;
    ++result.responses;
    const bool released = r.released != 0;
    if (released) {
      ++result.released;
    } else if (is_shed(r)) {
      ++result.shed;
    } else {
      ++result.failed;
    }
    if (leaks_raw(plan[id].request, r)) ++result.raw_leaks;
    result.digest += response_hash(r.request_id, r.outcome, r.kind, r.x, r.y);

    if (id < first_timed) return;
    const double latency_us =
        1e-3 * static_cast<double>(received_ns - (t0 + due_ns[id]));
    send_to_response_sum_us +=
        1e-3 * static_cast<double>(received_ns - first_send_ns[id]);
    ++send_to_response_count;
    if (released) {
      ++result.timed_released;
      result.latency_by_id[id] = static_cast<float>(latency_us);
      if (latency_us <= config.slo_us) ++result.within_slo;
    } else if (is_shed(r)) {
      ++result.timed_shed;
    } else {
      ++result.timed_failed;
    }
    if (config.spans != nullptr && SpanRecorder::sampled(id)) {
      // req = lateness + encode + in flight + decode, back to back.
      SpanRecorder& spans = *config.spans;
      const std::int64_t decoded = now_ns();
      const std::int64_t root =
          spans.add("req", t0 + due_ns[id], decoded, -1, id);
      spans.add("client.lateness", t0 + due_ns[id], first_send_ns[id], root,
                id);
      spans.add("client.encode", first_send_ns[id], encoded_ns[id], root, id);
      spans.add("wire.inflight", encoded_ns[id], received_ns, root, id);
      spans.add("client.decode", received_ns, decoded, root, id);
    }
  };

  std::int64_t drain_deadline = 0;
  while (true) {
    std::int64_t now = now_ns();
    // Encode every request that is due, each onto its user's connection.
    while (next < n && t0 + due_ns[next] <= now) {
      if (next == first_timed) {
        driver_start = thread_cpu();
        process_start = process_cpu();
      }
      const net::ServeRequestFrame& request = plan[next].request;
      Conn& conn = conns[request.user_id % conns.size()];
      if (!conn.dead) {
        first_send_ns[next] = now;
        net::append_request(conn.out, request);
        state[next] = kSent;
        ++result.sent;
        if (config.spans != nullptr && SpanRecorder::sampled(next)) {
          encoded_ns[next] = now_ns();
        }
      }
      ++next;
      if (next == n) {
        result.backlog_at_last_send = result.sent - result.responses;
        drain_deadline =
            now + static_cast<std::int64_t>(config.drain_timeout_s * 1e9);
      }
    }
    for (Conn& conn : conns) flush(conn);

    if (next == n && (result.responses == result.sent ||
                      now >= drain_deadline)) {
      break;
    }
    if (!arm_poll(conns, fds)) break;
    now = now_ns();
    const std::int64_t wake =
        next < n ? t0 + due_ns[next] : std::min(drain_deadline, now + 10'000'000);
    const std::int64_t wait = std::max<std::int64_t>(0, wake - now);
    const timespec timeout{static_cast<time_t>(wait / 1'000'000'000),
                           static_cast<long>(wait % 1'000'000'000)};
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready <= 0) continue;
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        read_conn(conns[c], result.wire_errors, handle_response);
      }
    }
  }

  if (first_timed < n) {
    const CpuSample driver_end = thread_cpu();
    const CpuSample process_end = process_cpu();
    result.driver_cpu_s = driver_end.cpu_s - driver_start.cpu_s;
    result.process_cpu_s = process_end.cpu_s - process_start.cpu_s;
    result.driver_ctx_switches =
        driver_end.ctx_switches - driver_start.ctx_switches;
    result.process_ctx_switches =
        process_end.ctx_switches - process_start.ctx_switches;
  }
  std::vector<double> lateness_us;
  lateness_us.reserve(n - std::min(first_timed, n));
  for (std::size_t i = 0; i < n; ++i) {
    if (state[i] == kPending) continue;
    if (state[i] == kSent) ++result.missing;
    if (i < first_timed) continue;
    ++result.timed_sent;
    if (state[i] == kSent) ++result.timed_missing;
    lateness_us.push_back(
        1e-3 * static_cast<double>(first_send_ns[i] - (t0 + due_ns[i])));
  }
  result.lateness_p99_us = quantile_of(lateness_us, 0.99);
  result.mean_send_to_response_us =
      send_to_response_count > 0
          ? send_to_response_sum_us / static_cast<double>(send_to_response_count)
          : 0.0;
  return result;
}

SaturationResult run_saturation(const DriverConfig& config,
                                const std::vector<net::TimedRequest>& plan,
                                std::size_t window, double duration_s,
                                double window_s) {
  SaturationResult result;
  std::vector<Conn> conns;
  if (plan.empty() || !connect_all(config, conns)) {
    result.connect_failed = true;
    return result;
  }
  const std::size_t n = plan.size();
  const auto conn_of = [&](std::size_t i) {
    return plan[i].request.user_id % conns.size();
  };
  // Each connection cycles through its users' requests in plan order.
  // Round k shifts request times by k plan spans, so a user's time never
  // goes back; the wire id is (round << 32 | plan index).
  std::vector<std::vector<std::uint32_t>> order(conns.size());
  for (std::size_t i = 0; i < n; ++i) {
    order[conn_of(i)].push_back(static_cast<std::uint32_t>(i));
  }
  const std::int64_t span =
      plan.back().request.time - plan.front().request.time + 1;
  struct Cursor {
    std::size_t next = 0;
    std::uint32_t round = 0;
    std::size_t in_flight = 0;
    std::size_t limit = 0;  ///< below the queue length, so an index is
                            ///< never in flight twice
  };
  std::vector<Cursor> cursors(conns.size());
  for (std::size_t c = 0; c < conns.size(); ++c) {
    cursors[c].limit = std::min(window, order[c].size() / 2);
  }
  constexpr std::uint32_t kIdle = UINT32_MAX;
  std::vector<std::uint32_t> in_flight_round(n, kIdle);

  const std::int64_t t0 = now_ns();
  const std::int64_t timed_start =
      t0 + static_cast<std::int64_t>(config.warmup_s * 1e9);
  const auto window_ns = static_cast<std::int64_t>(window_s * 1e9);
  const auto windows = static_cast<std::size_t>(duration_s / window_s);
  const std::int64_t stop =
      timed_start + static_cast<std::int64_t>(windows) * window_ns;
  const std::int64_t drain_deadline =
      stop + static_cast<std::int64_t>(config.drain_timeout_s * 1e9);
  std::vector<std::uint64_t> released_in(windows, 0);
  // Host steal read at each window boundary, the first time the loop
  // passes it (at most ~1 ms late: the poll timeout).
  std::vector<double> steal_at;
  steal_at.reserve(windows + 1);

  const auto on_response = [&](const net::ServeResponseFrame& r,
                               std::int64_t received_ns) {
    const std::size_t i = r.request_id & 0xFFFFFFFFULL;
    const auto round = static_cast<std::uint32_t>(r.request_id >> 32);
    if (i >= n || in_flight_round[i] != round) {
      ++result.wire_errors;  // unknown or duplicate id
      return;
    }
    in_flight_round[i] = kIdle;
    --cursors[conn_of(i)].in_flight;
    ++result.responses;
    if (r.released != 0) {
      ++result.released;
      if (received_ns >= timed_start && received_ns < stop) {
        ++released_in[static_cast<std::size_t>((received_ns - timed_start) /
                                               window_ns)];
      }
    } else if (is_shed(r)) {
      ++result.shed;
    } else {
      ++result.failed;
    }
    if (leaks_raw(plan[i].request, r)) ++result.raw_leaks;
  };

  std::vector<pollfd> fds(conns.size());
  while (true) {
    const std::int64_t now = now_ns();
    const bool sending = now < stop;
    while (steal_at.size() <= windows &&
           now >= timed_start +
                      static_cast<std::int64_t>(steal_at.size()) * window_ns) {
      steal_at.push_back(host_steal_s());
    }
    for (std::size_t c = 0; sending && c < conns.size(); ++c) {
      Cursor& cursor = cursors[c];
      while (!conns[c].dead && cursor.in_flight < cursor.limit) {
        const std::uint32_t i = order[c][cursor.next];
        net::ServeRequestFrame request = plan[i].request;
        request.request_id = (std::uint64_t{cursor.round} << 32) | i;
        request.time += static_cast<std::int64_t>(cursor.round) * span;
        net::append_request(conns[c].out, request);
        in_flight_round[i] = cursor.round;
        ++cursor.in_flight;
        ++result.sent;
        if (++cursor.next == order[c].size()) {
          cursor.next = 0;
          ++cursor.round;
        }
      }
    }
    for (Conn& conn : conns) flush(conn);
    if (!sending &&
        (result.responses == result.sent || now >= drain_deadline)) {
      break;
    }
    if (!arm_poll(conns, fds)) break;
    const timespec timeout{0, 1'000'000};
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) continue;
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        read_conn(conns[c], result.wire_errors, on_response);
      }
    }
  }
  result.missing = result.sent - result.responses;
  // Boundaries the loop never reached (every connection died) read as
  // the last one sampled.
  while (steal_at.size() <= windows) {
    steal_at.push_back(steal_at.empty() ? 0.0 : steal_at.back());
  }
  const double cpu_s_per_window =
      window_s * static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN));
  for (std::size_t w = 0; w < windows; ++w) {
    result.window_rps.push_back(static_cast<double>(released_in[w]) /
                                window_s);
    result.window_steal.push_back((steal_at[w + 1] - steal_at[w]) /
                                  cpu_s_per_window);
  }
  return result;
}

}  // namespace privlocad::edgebench
