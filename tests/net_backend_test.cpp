// IoBackend conformance suite (ctest label: net_backend).
//
// The contract under test: the IO backend is a TRANSPORT, not a policy
// layer. Swapping epoll for io_uring must not change a single observable
// byte -- same seeds produce the same served/shed/degraded partitions
// and bit-identical response frames, with or without an injected fault
// schedule. Every case runs against each backend the host supports
// (epoll always; io_uring when the kernel accepts the ring) and compares
// the full response stream across them. The suite is also the TSan
// target for the backends: it exercises accept, framing, admission,
// worker handoff, backpressure, half-close, and teardown on both
// implementations.
#include <errno.h>
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/concurrent_edge.hpp"
#include "core/edge_device.hpp"
#include "fault/fault.hpp"
#include "net/client.hpp"
#include "net/io_backend.hpp"
#include "net/load_model.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "trace/check_in.hpp"

#include "burst_peer.hpp"

namespace privlocad {
namespace {

/// Every backend this host can actually run. epoll is unconditional;
/// io_uring joins when the build compiled it in AND the kernel accepts
/// the ring (the same probe the auto selector uses).
std::vector<net::IoBackendKind> conformance_kinds() {
  std::vector<net::IoBackendKind> kinds{net::IoBackendKind::kEpoll};
  if (net::io_uring_compiled_in() && net::io_uring_available()) {
    kinds.push_back(net::IoBackendKind::kIoUring);
  }
  return kinds;
}

std::unique_ptr<net::EdgeServer> boot(const core::EdgeConfig& edge_config,
                                      const net::ServerConfig& config) {
  util::Result<std::unique_ptr<net::EdgeServer>> created =
      net::EdgeServer::create(edge_config, config);
  EXPECT_TRUE(created.ok()) << created.status().to_string();
  if (!created.ok()) return nullptr;
  std::unique_ptr<net::EdgeServer> server = std::move(created.value());
  const util::Status started = server->start();
  EXPECT_TRUE(started.ok()) << started.to_string();
  if (!started.ok()) return nullptr;
  return server;
}

/// One response frame, every field bit-exact (double coordinates
/// compared through their bit patterns, so -0.0 vs 0.0 or NaN payload
/// differences cannot hide behind operator==).
struct ResponseRecord {
  std::uint64_t request_id = 0;
  std::uint8_t outcome = 0;
  std::uint8_t kind = 0;
  std::uint8_t status_code = 0;
  std::uint8_t released = 0;
  std::uint64_t x_bits = 0;
  std::uint64_t y_bits = 0;

  bool operator==(const ResponseRecord&) const = default;
};

ResponseRecord record_of(const net::ServeResponseFrame& frame) {
  ResponseRecord record;
  record.request_id = frame.request_id;
  record.outcome = frame.outcome;
  record.kind = frame.kind;
  record.status_code = frame.status_code;
  record.released = frame.released;
  record.x_bits = std::bit_cast<std::uint64_t>(frame.x);
  record.y_bits = std::bit_cast<std::uint64_t>(frame.y);
  return record;
}

net::ServeRequestFrame conformance_request(std::uint64_t i) {
  net::ServeRequestFrame request;
  request.request_id = i;
  request.user_id = 1 + (i % 8);
  request.x = 1000.0 + static_cast<double>(i % 8) * 10.0 +
              static_cast<double>(i % 5);
  request.y = 2000.0 + static_cast<double>(i % 3);
  request.time = trace::kStudyStart + static_cast<std::int64_t>(i);
  return request;
}

/// A raw connection that decides how frames share a write(): each
/// send() puts all of its frames into ONE write, so they reach the
/// server as one recv and form one admission share per worker.
class FramePeer {
 public:
  static util::Result<FramePeer> connect(std::uint16_t port) {
    util::Result<net::UniqueFd> fd = net::connect_loopback(port);
    if (!fd.ok()) return fd.status();
    // A response that never comes fails the test instead of hanging it.
    const timeval timeout{10, 0};
    ::setsockopt(fd->get(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                 sizeof(timeout));
    return FramePeer(std::move(fd.value()));
  }

  bool send(const std::vector<net::ServeRequestFrame>& requests) {
    out_.clear();
    for (const net::ServeRequestFrame& request : requests) {
      net::append_request(out_, request);
    }
    return net::write_all(fd_.get(), out_.data(), out_.size()).ok();
  }

  /// Blocks (up to 10 s per recv) for the next response frame; false on
  /// EOF, a socket error or timeout, or a frame that is not a response.
  bool receive(net::ServeResponseFrame& response) {
    while (true) {
      net::Frame frame;
      std::size_t consumed = 0;
      if (!net::try_decode(in_.data() + head_, in_.size() - head_, frame,
                           consumed)
               .ok()) {
        return false;
      }
      if (consumed > 0) {
        head_ += consumed;
        response = frame.response;
        return frame.type == net::FrameType::kServeResponse;
      }
      std::uint8_t chunk[4096];
      const ssize_t got = ::recv(fd_.get(), chunk, sizeof(chunk), 0);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) return false;
      in_.insert(in_.end(), chunk, chunk + got);
    }
  }

 private:
  explicit FramePeer(net::UniqueFd fd) : fd_(std::move(fd)) {}

  net::UniqueFd fd_;
  std::vector<std::uint8_t> out_;
  std::vector<std::uint8_t> in_;
  std::size_t head_ = 0;
};

/// Drives `n` sequential requests through one connection against a
/// fresh server on `kind` and returns the full response stream.
std::vector<ResponseRecord> drive_sequential(net::IoBackendKind kind,
                                             std::uint64_t n,
                                             fault::FaultInjector* faults,
                                             std::size_t workers) {
  core::EdgeConfig edge_config;
  edge_config.seed = 11;
  edge_config.shards = 4;
  edge_config.faults = faults;
  std::unique_ptr<net::EdgeServer> server = boot(
      edge_config,
      net::ServerConfig{}.with_workers(workers).with_backend(kind));
  if (server == nullptr) return {};

  util::Result<net::BlockingClient> client =
      net::BlockingClient::connect(server->port());
  EXPECT_TRUE(client.ok()) << client.status().to_string();
  if (!client.ok()) return {};

  std::vector<ResponseRecord> records;
  records.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    util::Result<net::ServeResponseFrame> response =
        client->call(conformance_request(i));
    EXPECT_TRUE(response.ok()) << response.status().to_string();
    if (!response.ok()) break;
    records.push_back(record_of(response.value()));
  }
  server->stop();
  return records;
}

TEST(BackendConformance, SameSeedsYieldBitIdenticalResponseStreams) {
  const std::vector<net::IoBackendKind> kinds = conformance_kinds();
  const std::vector<ResponseRecord> reference =
      drive_sequential(kinds.front(), 96, nullptr, 2);
  ASSERT_EQ(reference.size(), 96u);

  // Re-running the FIRST backend establishes that the stream is a pure
  // function of the seed; then every other backend must match it.
  for (const net::IoBackendKind kind : kinds) {
    const std::vector<ResponseRecord> stream =
        drive_sequential(kind, 96, nullptr, 2);
    EXPECT_EQ(stream, reference)
        << "stream diverged on " << net::io_backend_kind_name(kind);
  }
  if (kinds.size() == 1) {
    ::testing::Test::RecordProperty("io_uring", "unavailable");
  }
}

TEST(BackendConformance, FaultScheduleYieldsIdenticalOutcomePartitions) {
  // A seeded fault plan at the serve site: the i-th serve draws the same
  // decision on every backend (workers=1 + one sequential connection
  // fixes the arrival order), so degraded fallbacks and drops
  // must land on the SAME requests with the same wire bytes.
  util::Result<fault::FaultPlan> plan =
      fault::FaultPlan::parse("seed=42;serve:p=0.3");
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();

  std::vector<std::vector<ResponseRecord>> streams;
  for (const net::IoBackendKind kind : conformance_kinds()) {
    fault::FaultInjector injector(plan.value());
    streams.push_back(drive_sequential(kind, 64, &injector, 1));
    ASSERT_EQ(streams.back().size(), 64u)
        << net::io_backend_kind_name(kind);
  }
  std::uint64_t not_plain_served = 0;
  for (const ResponseRecord& record : streams.front()) {
    if (record.outcome !=
        static_cast<std::uint8_t>(core::ServeOutcome::kServed)) {
      ++not_plain_served;
    }
  }
  EXPECT_GT(not_plain_served, 0u)
      << "fault plan injected nothing; the conformance check is vacuous";
  for (std::size_t i = 1; i < streams.size(); ++i) {
    EXPECT_EQ(streams[i], streams.front());
  }
}

TEST(BackendConformance, ShedPartitionIsDeterministicAcrossBackends) {
  // workers=1, capacity=1, slow service: request 0 is served first,
  // request 1 takes the queue slot, and every later request MUST shed
  // at push.
  // The partition is then a pure function of the request order, so both
  // backends must produce it exactly -- and shed responses must carry
  // zeroed coordinates (fail private on the wire).
  auto drive = [](net::IoBackendKind kind) {
    core::EdgeConfig edge_config;
    edge_config.seed = 11;
    edge_config.shards = 2;
    std::unique_ptr<net::EdgeServer> server =
        boot(edge_config, net::ServerConfig{}
                              .with_workers(1)
                              .with_queue_capacity(1)
                              .with_service_delay_us(200000)
                              .with_backend(kind));
    std::map<std::uint64_t, ResponseRecord> by_id;
    if (server == nullptr) return by_id;
    util::Result<net::BlockingClient> client =
        net::BlockingClient::connect(server->port());
    EXPECT_TRUE(client.ok()) << client.status().to_string();
    if (!client.ok()) return by_id;

    EXPECT_TRUE(client->send(conformance_request(0)).ok());
    // Request 0 arrives alone at the parked worker, so the IO thread
    // serves it inline; its 200 ms service delay holds the IO thread, and
    // the burst below is read as one chunk once it ends. The worker's
    // queue slot is empty when that chunk is admitted.
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    for (std::uint64_t i = 1; i <= 12; ++i) {
      EXPECT_TRUE(client->send(conformance_request(i)).ok());
    }
    for (int i = 0; i < 13; ++i) {
      util::Result<net::ServeResponseFrame> response = client->receive();
      EXPECT_TRUE(response.ok()) << response.status().to_string();
      if (!response.ok()) break;
      by_id[response->request_id] = record_of(response.value());
    }
    server->stop();
    return by_id;
  };

  std::vector<std::map<std::uint64_t, ResponseRecord>> partitions;
  for (const net::IoBackendKind kind : conformance_kinds()) {
    partitions.push_back(drive(kind));
    const std::map<std::uint64_t, ResponseRecord>& by_id =
        partitions.back();
    ASSERT_EQ(by_id.size(), 13u) << net::io_backend_kind_name(kind);
    for (const auto& [id, record] : by_id) {
      if (id <= 1) {
        EXPECT_NE(record.outcome,
                  static_cast<std::uint8_t>(
                      core::ServeOutcome::kDegradedDropped))
            << "admitted request " << id << " was shed on "
            << net::io_backend_kind_name(kind);
      } else {
        EXPECT_EQ(record.outcome,
                  static_cast<std::uint8_t>(
                      core::ServeOutcome::kDegradedDropped))
            << "request " << id << " escaped the full queue on "
            << net::io_backend_kind_name(kind);
        EXPECT_EQ(record.released, 0u);
        EXPECT_EQ(record.x_bits, 0u);
        EXPECT_EQ(record.y_bits, 0u);
      }
    }
  }
  for (std::size_t i = 1; i < partitions.size(); ++i) {
    EXPECT_EQ(partitions[i], partitions.front());
  }
}

TEST(BackendConformance, CapacitySheddingAccountsEveryRequestUnderOverload) {
  // Open-loop overload against bounded queues: at-push shedding must
  // keep exact accounting -- every request that went out comes back as
  // exactly one response (served or shed), with nothing missing and
  // nothing leaked -- on every backend.
  for (const net::IoBackendKind kind : conformance_kinds()) {
    core::EdgeConfig edge_config;
    edge_config.seed = 11;
    edge_config.shards = 4;
    std::unique_ptr<net::EdgeServer> server =
        boot(edge_config,
             net::ServerConfig{}
                 .with_workers(2)
                 .with_queue_capacity(256)
                 .with_service_delay_us(500)
                 .with_backend(kind));
    ASSERT_NE(server, nullptr);

    // 2 workers x 500 us/service caps throughput near 4000 rps; the
    // plan's 4000 requests arrive as one burst.
    net::LoadPlanConfig plan_config;
    plan_config.target_rps = 16000.0;
    plan_config.duration_s = 0.25;
    plan_config.users = 64;
    plan_config.seed = 77;
    const std::vector<net::TimedRequest> plan =
        net::build_open_loop_plan(plan_config);
    util::Result<burst::Stats> run = burst::run(server->port(), plan, 4);
    ASSERT_TRUE(run.ok()) << run.status().to_string();
    const burst::Stats& stats = run.value();
    server->stop();

    EXPECT_EQ(stats.sent, plan.size()) << net::io_backend_kind_name(kind);
    EXPECT_EQ(stats.missing, 0u);
    EXPECT_EQ(stats.responses, stats.sent);
    EXPECT_EQ(stats.served + stats.degraded_cached +
                  stats.degraded_dropped + stats.failed,
              stats.responses);
    EXPECT_GT(stats.degraded_dropped, 0u)
        << "4x overload shed nothing; the queue bound is not binding";
    EXPECT_EQ(stats.raw_leaks, 0u);
    EXPECT_EQ(stats.wire_errors, 0u);
  }
}

TEST(BackendConformance, HalfClosedPeerStillGetsEveryResponse) {
  // A peer may write its last request and shut down its sending side
  // before it reads (shutdown(SHUT_WR)). Read EOF ends the request
  // stream, not the connection: every admitted request is still
  // answered, then the server closes its end. A full connection next to
  // it is served as usual, and the box's books balance.
  constexpr std::uint64_t kRequests = 50;
  for (const net::IoBackendKind kind : conformance_kinds()) {
    core::EdgeConfig edge_config;
    edge_config.seed = 11;
    edge_config.shards = 4;
    std::unique_ptr<net::EdgeServer> server = boot(
        edge_config, net::ServerConfig{}.with_workers(2).with_backend(kind));
    ASSERT_NE(server, nullptr) << net::io_backend_kind_name(kind);

    util::Result<net::BlockingClient> full =
        net::BlockingClient::connect(server->port());
    ASSERT_TRUE(full.ok()) << full.status().to_string();
    for (std::uint64_t i = 0; i < kRequests; ++i) {
      ASSERT_TRUE(full->send(conformance_request(i)).ok());
    }
    // Two workers answer in completion order, not request order.
    std::vector<std::uint64_t> full_ids;
    for (std::uint64_t i = 0; i < kRequests; ++i) {
      util::Result<net::ServeResponseFrame> response = full->receive();
      ASSERT_TRUE(response.ok()) << response.status().to_string();
      full_ids.push_back(response->request_id);
    }
    std::sort(full_ids.begin(), full_ids.end());
    for (std::uint64_t i = 0; i < kRequests; ++i) EXPECT_EQ(full_ids[i], i);

    util::Result<net::UniqueFd> half = net::connect_loopback(server->port());
    ASSERT_TRUE(half.ok()) << half.status().to_string();
    const int fd = half->get();
    std::vector<std::uint8_t> out;
    for (std::uint64_t i = 0; i < kRequests; ++i) {
      net::append_request(out, conformance_request(kRequests + i));
    }
    ASSERT_TRUE(net::write_all(fd, out.data(), out.size()).ok());
    ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);

    // Read until the server closes its end (or 5 s pass).
    const timeval timeout{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    std::vector<std::uint8_t> in;
    std::uint8_t chunk[4096];
    bool server_closed = false;
    while (true) {
      const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
      if (got > 0) {
        in.insert(in.end(), chunk, chunk + got);
        continue;
      }
      if (got < 0 && errno == EINTR) continue;
      server_closed = got == 0;
      break;
    }
    std::vector<std::uint64_t> ids;
    std::size_t head = 0;
    while (head < in.size()) {
      net::Frame frame;
      std::size_t consumed = 0;
      ASSERT_TRUE(
          net::try_decode(in.data() + head, in.size() - head, frame, consumed)
              .ok());
      ASSERT_GT(consumed, 0u) << "truncated response stream";
      ASSERT_EQ(frame.type, net::FrameType::kServeResponse);
      ids.push_back(frame.response.request_id);
      head += consumed;
    }
    std::sort(ids.begin(), ids.end());
    std::vector<std::uint64_t> expected_ids;
    for (std::uint64_t i = 0; i < kRequests; ++i) {
      expected_ids.push_back(kRequests + i);
    }
    EXPECT_EQ(ids, expected_ids)
        << ids.size() << " of " << kRequests << " responses on "
        << net::io_backend_kind_name(kind);
    EXPECT_TRUE(server_closed)
        << "server never closed the drained half-closed connection on "
        << net::io_backend_kind_name(kind);

    server->stop();
    obs::MetricsRegistry& metrics = server->metrics();
    EXPECT_EQ(metrics.counter_value(net::net_metrics::kRequests),
              2 * kRequests);
    EXPECT_EQ(metrics.counter_value(net::net_metrics::kResponses),
              metrics.counter_value(net::net_metrics::kRequests))
        << net::io_backend_kind_name(kind);
  }
}

TEST(BackendConformance, OffPlaneCoordinatesFailTypedAndReleaseNothing) {
  // A hostile peer sends well-formed frames whose coordinates are no
  // place: NaN, +-inf, 1e300. Each is answered kFailed with
  // kInvalidArgument, released=0 and zero coordinates, never an echo of
  // the input. The same user's next valid request is then served exactly
  // as if the hostile frames had never arrived.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<double, double>> hostile{
      {kNan, 2000.0}, {1000.0, kNan}, {kInf, 2000.0}, {-kInf, 2000.0},
      {1000.0, -kInf}, {1e300, 2000.0}, {1000.0, -1e300}, {kInf, 1e300}};
  constexpr std::uint64_t kUser = 8;
  const geo::Point valid{1000.0, 2000.0};
  const trace::Timestamp valid_time =
      trace::kStudyStart + static_cast<std::int64_t>(hostile.size());

  core::EdgeConfig edge_config;
  edge_config.seed = 11;
  edge_config.shards = 4;
  core::ConcurrentEdge untouched(edge_config);
  const core::ServeResult expected =
      untouched.serve(kUser, valid, valid_time);
  ASSERT_TRUE(expected.released());

  for (const net::IoBackendKind kind : conformance_kinds()) {
    const char* name = net::io_backend_kind_name(kind);
    std::unique_ptr<net::EdgeServer> server = boot(
        edge_config, net::ServerConfig{}.with_workers(2).with_backend(kind));
    ASSERT_NE(server, nullptr) << name;
    util::Result<net::BlockingClient> client =
        net::BlockingClient::connect(server->port());
    ASSERT_TRUE(client.ok()) << client.status().to_string();

    for (std::size_t i = 0; i < hostile.size(); ++i) {
      net::ServeRequestFrame request;
      request.request_id = i;
      request.user_id = kUser;
      request.x = hostile[i].first;
      request.y = hostile[i].second;
      request.time = trace::kStudyStart + static_cast<std::int64_t>(i);
      util::Result<net::ServeResponseFrame> response = client->call(request);
      ASSERT_TRUE(response.ok()) << response.status().to_string();
      const ResponseRecord got = record_of(response.value());
      EXPECT_EQ(got.request_id, i) << name;
      EXPECT_EQ(got.outcome,
                static_cast<std::uint8_t>(core::ServeOutcome::kFailed))
          << name << " frame " << i;
      EXPECT_EQ(got.status_code,
                static_cast<std::uint8_t>(util::ErrorCode::kInvalidArgument))
          << name << " frame " << i;
      EXPECT_EQ(got.released, 0u) << name << " frame " << i;
      EXPECT_EQ(got.x_bits, 0u) << name << " frame " << i;
      EXPECT_EQ(got.y_bits, 0u) << name << " frame " << i;
    }

    net::ServeRequestFrame request;
    request.request_id = hostile.size();
    request.user_id = kUser;
    request.x = valid.x;
    request.y = valid.y;
    request.time = valid_time;
    util::Result<net::ServeResponseFrame> response = client->call(request);
    ASSERT_TRUE(response.ok()) << response.status().to_string();
    const ResponseRecord got = record_of(response.value());
    EXPECT_EQ(got.outcome, static_cast<std::uint8_t>(expected.outcome))
        << name;
    EXPECT_EQ(got.released, 1u) << name;
    EXPECT_EQ(got.x_bits,
              std::bit_cast<std::uint64_t>(expected.reported.location.x))
        << name;
    EXPECT_EQ(got.y_bits,
              std::bit_cast<std::uint64_t>(expected.reported.location.y))
        << name;

    server->stop();
    obs::MetricsRegistry& metrics = server->metrics();
    EXPECT_EQ(metrics.counter_value(net::net_metrics::kRequests),
              hostile.size() + 1)
        << name;
    EXPECT_EQ(metrics.counter_value(net::net_metrics::kResponses),
              metrics.counter_value(net::net_metrics::kRequests))
        << name;
  }
}

TEST(BackendConformance, StartAfterStopIsATypedErrorOnEveryBackend) {
  // stop() tears the engine down (io_uring unmaps its ring), so a second
  // start() must be refused, not spawn an IO thread over a dead backend.
  for (const net::IoBackendKind kind : conformance_kinds()) {
    std::unique_ptr<net::EdgeServer> server =
        boot(core::EdgeConfig{}, net::ServerConfig{}.with_backend(kind));
    ASSERT_NE(server, nullptr) << net::io_backend_kind_name(kind);
    server->stop();
    const util::Status restarted = server->start();
    EXPECT_EQ(restarted.code(), util::ErrorCode::kFailedPrecondition)
        << net::io_backend_kind_name(kind);
    EXPECT_NE(restarted.message().find("single-use"), std::string::npos);
    server->stop();  // still a no-op
  }
}

TEST(BackendConformance, SequentialRoundTripsNeverWaitForThePollTick) {
  // 4 connections x 2,000 strictly sequential round trips against 2
  // workers: each response is the only one in flight on its connection,
  // so a lost eventfd wakeup (a completion appended while the IO thread
  // clears wake_pending_) parks it until the 50 ms poll tick or until
  // another connection's request happens to wake the IO thread. 8,000
  // tick stalls would cost >= 100 s per backend; the run must finish in
  // a small fraction of that, with every response matched and almost
  // no round trip as slow as a tick.
  constexpr std::size_t kConnections = 4;
  constexpr std::uint64_t kRoundTrips = 2000;
  for (const net::IoBackendKind kind : conformance_kinds()) {
    core::EdgeConfig edge_config;
    edge_config.seed = 11;
    edge_config.shards = 4;
    std::unique_ptr<net::EdgeServer> server = boot(
        edge_config, net::ServerConfig{}.with_workers(2).with_backend(kind));
    ASSERT_NE(server, nullptr) << net::io_backend_kind_name(kind);

    const auto started = std::chrono::steady_clock::now();
    std::vector<std::uint64_t> answered(kConnections, 0);
    std::vector<std::uint64_t> tick_slow(kConnections, 0);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kConnections; ++c) {
      clients.emplace_back([&, c] {
        util::Result<net::BlockingClient> client =
            net::BlockingClient::connect(server->port());
        if (!client.ok()) return;
        for (std::uint64_t i = 0; i < kRoundTrips; ++i) {
          const std::uint64_t id = c * kRoundTrips + i;
          const auto sent = std::chrono::steady_clock::now();
          util::Result<net::ServeResponseFrame> response =
              client->call(conformance_request(id));
          if (!response.ok() || response->request_id != id) return;
          ++answered[c];
          if (std::chrono::steady_clock::now() - sent >=
              std::chrono::milliseconds(40)) {
            ++tick_slow[c];
          }
        }
      });
    }
    for (std::thread& client : clients) client.join();
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - started)
                              .count();
    std::uint64_t slow = 0;
    for (std::size_t c = 0; c < kConnections; ++c) {
      EXPECT_EQ(answered[c], kRoundTrips)
          << "connection " << c << " on " << net::io_backend_kind_name(kind);
      slow += tick_slow[c];
    }
    EXPECT_LT(wall_s, 10.0) << net::io_backend_kind_name(kind);
    // Scheduler hiccups on a loaded host may cost a few; a lost-wakeup
    // path costs hundreds.
    EXPECT_LT(slow, kConnections * kRoundTrips / 100)
        << net::io_backend_kind_name(kind);
    EXPECT_EQ(server->metrics().counter_value(net::net_metrics::kResponses),
              kConnections * kRoundTrips);
    server->stop();
  }
}

TEST(BackendConformance, PairedRoundTripsNeverWaitForThePollTick) {
  // Lone sequential round trips are mostly served inline on the IO
  // thread. Here every round trip is ONE write carrying two frames for
  // one user: a share of two always goes through the worker queue and
  // comes back through completed_ and the eventfd, so a lost wakeup
  // parks the pair until the 50 ms poll tick. Same bounds as above.
  constexpr std::size_t kConnections = 4;
  constexpr std::uint64_t kRoundTrips = 2000;
  for (const net::IoBackendKind kind : conformance_kinds()) {
    core::EdgeConfig edge_config;
    edge_config.seed = 11;
    edge_config.shards = 4;
    std::unique_ptr<net::EdgeServer> server = boot(
        edge_config, net::ServerConfig{}.with_workers(2).with_backend(kind));
    ASSERT_NE(server, nullptr) << net::io_backend_kind_name(kind);

    const auto started = std::chrono::steady_clock::now();
    std::vector<std::uint64_t> answered(kConnections, 0);
    std::vector<std::uint64_t> tick_slow(kConnections, 0);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kConnections; ++c) {
      clients.emplace_back([&, c] {
        util::Result<FramePeer> peer = FramePeer::connect(server->port());
        if (!peer.ok()) return;
        for (std::uint64_t i = 0; i < kRoundTrips; ++i) {
          const std::uint64_t id = 2 * (c * kRoundTrips + i);
          net::ServeRequestFrame first = conformance_request(id);
          net::ServeRequestFrame second = conformance_request(id + 1);
          second.user_id = first.user_id;  // one share, one worker
          const auto sent = std::chrono::steady_clock::now();
          if (!peer->send({first, second})) return;
          net::ServeResponseFrame response;
          if (!peer->receive(response) || response.request_id != id) return;
          if (!peer->receive(response) || response.request_id != id + 1) {
            return;
          }
          ++answered[c];
          if (std::chrono::steady_clock::now() - sent >=
              std::chrono::milliseconds(40)) {
            ++tick_slow[c];
          }
        }
      });
    }
    for (std::thread& client : clients) client.join();
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - started)
                              .count();
    std::uint64_t slow = 0;
    for (std::size_t c = 0; c < kConnections; ++c) {
      EXPECT_EQ(answered[c], kRoundTrips)
          << "connection " << c << " on " << net::io_backend_kind_name(kind);
      slow += tick_slow[c];
    }
    EXPECT_LT(wall_s, 10.0) << net::io_backend_kind_name(kind);
    EXPECT_LT(slow, kConnections * kRoundTrips / 100)
        << net::io_backend_kind_name(kind);
    obs::MetricsRegistry& metrics = server->metrics();
    EXPECT_EQ(metrics.counter_value(net::net_metrics::kResponses),
              2 * kConnections * kRoundTrips);
    EXPECT_EQ(metrics.counter_value(net::net_metrics::kServedInline), 0u)
        << "a two-frame share skipped the queue on "
        << net::io_backend_kind_name(kind);
    server->stop();
  }
}

TEST(BackendConformance, OneUsersResponsesLeaveInRequestOrder) {
  // One user's requests go out as a seeded random mix of one-frame and
  // multi-frame writes, sometimes waiting for every answer before the
  // next write and sometimes not. Lone frames that find the worker
  // parked are served inline by the IO thread; the rest queue, and
  // their completions can still sit in completed_ when the next lone
  // frame lands. Whichever path each took, the user's responses must
  // leave in request order. A second connection runs round trips for
  // other users alongside, on both workers.
  constexpr std::uint64_t kRequests = 2400;
  constexpr std::uint64_t kUser = 3;
  for (const net::IoBackendKind kind : conformance_kinds()) {
    const char* name = net::io_backend_kind_name(kind);
    core::EdgeConfig edge_config;
    edge_config.seed = 11;
    edge_config.shards = 4;
    std::unique_ptr<net::EdgeServer> server = boot(
        edge_config, net::ServerConfig{}.with_workers(2).with_backend(kind));
    ASSERT_NE(server, nullptr) << name;
    util::Result<FramePeer> peer = FramePeer::connect(server->port());
    ASSERT_TRUE(peer.ok()) << peer.status().to_string();

    std::atomic<bool> done{false};
    std::uint64_t background_answered = 0;
    std::thread background([&] {
      util::Result<net::BlockingClient> client =
          net::BlockingClient::connect(server->port());
      if (!client.ok()) return;
      for (std::uint64_t i = 0; !done.load(); ++i) {
        net::ServeRequestFrame request = conformance_request(i);
        request.request_id = kRequests + i;
        request.user_id = 10 + (i % 6);
        util::Result<net::ServeResponseFrame> response =
            client->call(request);
        if (!response.ok() || response->request_id != request.request_id) {
          return;
        }
        ++background_answered;
      }
    });

    std::mt19937_64 rng(20240611);
    std::vector<std::uint64_t> ids;
    ids.reserve(kRequests);
    std::uint64_t next = 0;
    bool in_order = true;
    auto receive_until = [&](std::uint64_t count) {
      net::ServeResponseFrame response;
      while (in_order && ids.size() < count) {
        if (!peer->receive(response)) {
          in_order = false;
          break;
        }
        if (!ids.empty() && response.request_id <= ids.back()) {
          in_order = false;
        }
        ids.push_back(response.request_id);
      }
    };
    while (next < kRequests && in_order) {
      // Half the writes carry one frame, the rest two to four.
      const std::uint64_t frames = std::min<std::uint64_t>(
          kRequests - next, rng() % 2 == 0 ? 1 : 2 + rng() % 3);
      std::vector<net::ServeRequestFrame> write;
      for (std::uint64_t f = 0; f < frames; ++f, ++next) {
        net::ServeRequestFrame request = conformance_request(next);
        request.user_id = kUser;
        write.push_back(request);
      }
      if (!peer->send(write)) {
        ADD_FAILURE() << name << ": write failed";
        break;
      }
      // Half the time, wait for every answer so the worker parks again;
      // otherwise pipeline (bounded, so the outbound budget never bites).
      if (rng() % 2 == 0 || next - ids.size() > 64) receive_until(next);
    }
    receive_until(kRequests);
    done.store(true);
    background.join();

    EXPECT_TRUE(in_order) << name << ": response " << ids.size()
                          << " broke request order";
    ASSERT_EQ(ids.size(), kRequests) << name;
    for (std::uint64_t i = 0; i < kRequests; ++i) {
      ASSERT_EQ(ids[i], i) << name;
    }
    EXPECT_GT(background_answered, 0u) << name;
    server->stop();
    obs::MetricsRegistry& metrics = server->metrics();
    const std::uint64_t served_inline =
        metrics.counter_value(net::net_metrics::kServedInline);
    EXPECT_GT(served_inline, 0u) << name << ": no lone frame went inline";
    EXPECT_EQ(metrics.counter_value(net::net_metrics::kRequests),
              kRequests + background_answered)
        << name;
    EXPECT_EQ(metrics.counter_value(net::net_metrics::kResponses),
              metrics.counter_value(net::net_metrics::kRequests))
        << name;
  }
}

}  // namespace
}  // namespace privlocad
