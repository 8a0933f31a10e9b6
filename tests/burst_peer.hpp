// A test peer that offers a whole load plan as one burst.
//
// The calling thread writes every frame of the plan, round-robin over a
// few connections, without waiting for any response; a second thread
// reads and accounts the responses meanwhile. Arrivals never slow down
// for the server (open loop), so a plan above capacity overloads it,
// and there is no send schedule for a loaded host to fall behind.
#pragma once

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/edge_device.hpp"
#include "net/load_model.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

namespace privlocad::burst {

/// What one burst observed. The outcome tallies partition `responses`.
struct Stats {
  std::uint64_t sent = 0;
  std::uint64_t responses = 0;
  std::uint64_t served = 0;
  std::uint64_t degraded_cached = 0;
  std::uint64_t degraded_dropped = 0;
  std::uint64_t failed = 0;
  /// Released responses that bit-equal the request's raw coordinates,
  /// plus non-released ones that carry any coordinates. Must be 0.
  std::uint64_t raw_leaks = 0;
  /// Undecodable or non-response frames and unknown or repeated ids.
  std::uint64_t wire_errors = 0;
  /// sent - responses once the reader gave up waiting.
  std::uint64_t missing = 0;
};

/// Sends `plan` (request ids must be plan indices) to 127.0.0.1:`port`
/// over `connections` connections and waits for the answers, giving up
/// after 3 s without a response once every frame is out.
inline util::Result<Stats> run(std::uint16_t port,
                               const std::vector<net::TimedRequest>& plan,
                               std::size_t connections) {
  constexpr std::chrono::seconds kQuietTimeout(3);
  std::vector<net::UniqueFd> fds;
  for (std::size_t c = 0; c < connections; ++c) {
    util::Result<net::UniqueFd> fd = net::connect_loopback(port);
    if (!fd.ok()) return fd.status();
    fds.push_back(std::move(fd.value()));
  }

  Stats stats;
  std::atomic<std::uint64_t> sent{0};
  std::atomic<bool> writing{true};
  std::thread reader([&] {
    using Clock = std::chrono::steady_clock;
    std::vector<pollfd> polled;
    for (const net::UniqueFd& fd : fds) {
      polled.push_back({fd.get(), POLLIN, 0});
    }
    std::vector<std::vector<std::uint8_t>> in(fds.size());
    std::vector<std::uint8_t> answered(plan.size(), 0);
    bool draining = false;
    auto last_progress = Clock::now();
    std::size_t open = fds.size();
    while (open > 0) {
      if (!draining && !writing.load()) {
        draining = true;  // every frame is out: the quiet clock starts
        last_progress = Clock::now();
      }
      if (draining && stats.responses >= sent.load()) break;
      if (draining && Clock::now() - last_progress > kQuietTimeout) break;
      if (::poll(polled.data(), polled.size(), 50) <= 0) continue;
      for (std::size_t c = 0; c < polled.size(); ++c) {
        if (polled[c].fd < 0 || polled[c].revents == 0) continue;
        std::uint8_t chunk[16 * 1024];
        const ssize_t got = ::recv(polled[c].fd, chunk, sizeof(chunk), 0);
        if (got < 0 && errno == EINTR) continue;
        if (got <= 0) {  // EOF or a hard error: nothing more comes here
          polled[c].fd = -1;
          --open;
          continue;
        }
        std::vector<std::uint8_t>& buffer = in[c];
        buffer.insert(buffer.end(), chunk, chunk + got);
        std::size_t head = 0;
        while (true) {
          net::Frame frame;
          std::size_t consumed = 0;
          if (!net::try_decode(buffer.data() + head, buffer.size() - head,
                               frame, consumed)
                   .ok() ||
              (consumed > 0 &&
               frame.type != net::FrameType::kServeResponse)) {
            ++stats.wire_errors;
            polled[c].fd = -1;
            --open;
            break;
          }
          if (consumed == 0) break;
          head += consumed;
          const net::ServeResponseFrame& r = frame.response;
          if (r.request_id >= plan.size() || answered[r.request_id] != 0) {
            ++stats.wire_errors;
            continue;
          }
          answered[r.request_id] = 1;
          ++stats.responses;
          last_progress = Clock::now();
          switch (static_cast<core::ServeOutcome>(r.outcome)) {
            case core::ServeOutcome::kServed: ++stats.served; break;
            case core::ServeOutcome::kDegradedCached:
              ++stats.degraded_cached;
              break;
            case core::ServeOutcome::kDegradedDropped:
              ++stats.degraded_dropped;
              break;
            case core::ServeOutcome::kFailed: ++stats.failed; break;
          }
          const net::ServeRequestFrame& raw = plan[r.request_id].request;
          if (r.released != 0
                  ? std::bit_cast<std::uint64_t>(r.x) ==
                            std::bit_cast<std::uint64_t>(raw.x) &&
                        std::bit_cast<std::uint64_t>(r.y) ==
                            std::bit_cast<std::uint64_t>(raw.y)
                  : r.x != 0.0 || r.y != 0.0) {
            ++stats.raw_leaks;
          }
        }
        buffer.erase(buffer.begin(),
                     buffer.begin() + static_cast<std::ptrdiff_t>(head));
      }
    }
  });

  // Round-robin turns of up to kFramesPerWrite frames per connection, one
  // send per turn, so every connection's share arrives as bursts.
  constexpr std::size_t kFramesPerWrite = 32;
  std::vector<bool> dead(fds.size(), false);
  std::vector<std::uint8_t> out;
  const std::size_t per_turn = kFramesPerWrite * fds.size();
  for (std::size_t turn = 0; turn * per_turn < plan.size(); ++turn) {
    for (std::size_t c = 0; c < fds.size(); ++c) {
      if (dead[c]) continue;
      out.clear();
      std::uint64_t frames = 0;
      for (std::size_t k = 0; k < kFramesPerWrite; ++k) {
        // Connection c carries plan entries c, c + C, c + 2C, ...
        const std::size_t i = (turn * kFramesPerWrite + k) * fds.size() + c;
        if (i >= plan.size()) break;
        net::append_request(out, plan[i].request);
        ++frames;
      }
      if (frames == 0) continue;
      if (net::write_all(fds[c].get(), out.data(), out.size()).ok()) {
        sent += frames;
      } else {
        dead[c] = true;
      }
    }
  }
  writing = false;
  reader.join();

  stats.sent = sent.load();
  stats.missing =
      stats.sent > stats.responses ? stats.sent - stats.responses : 0;
  return stats;
}

}  // namespace privlocad::burst
