// Tests for the edge_serverd serving surface: wire framing, bounded
// admission, the open-loop load models, loopback end-to-end serving,
// deterministic shedding under a full queue, the queue-delay vs
// service-time latency split, and the fail-private contract ON THE WIRE
// under injected faults and under overload.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/edge_device.hpp"
#include "core/telemetry.hpp"
#include "fault/fault.hpp"
#include "net/admission.hpp"
#include "net/client.hpp"
#include "net/load_model.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "trace/check_in.hpp"

#include "burst_peer.hpp"
#include "oracles.hpp"

namespace privlocad {
namespace {

core::EdgeConfig small_edge_config() {
  core::EdgeConfig c;
  c.top_params.radius_m = 500.0;
  c.top_params.epsilon = 1.0;
  c.top_params.delta = 0.01;
  c.top_params.n = 10;
  c.management.window_seconds = 1000;
  c.shards = 2;
  return c;
}

/// Every server in this file goes through the Result factory: a test
/// that trips a create() error reports the typed status, not a throw.
std::unique_ptr<net::EdgeServer> make_server(
    core::EdgeConfig edge_config, net::ServerConfig server_config = {}) {
  util::Result<std::unique_ptr<net::EdgeServer>> created =
      net::EdgeServer::create(std::move(edge_config), server_config);
  EXPECT_TRUE(created.ok()) << created.status().to_string();
  return created.ok() ? std::move(created.value()) : nullptr;
}

net::ServeRequestFrame request_frame(std::uint64_t id, std::uint64_t user,
                                     double x, double y) {
  net::ServeRequestFrame request;
  request.request_id = id;
  request.user_id = user;
  request.x = x;
  request.y = y;
  request.time = trace::kStudyStart + static_cast<std::int64_t>(id);
  return request;
}

// ------------------------------------------------------------------ wire

TEST(Wire, RequestRoundTripsThroughEncodeDecode) {
  std::vector<std::uint8_t> bytes;
  const net::ServeRequestFrame sent = request_frame(7, 42, 123.5, -9.25);
  net::append_request(bytes, sent);
  ASSERT_EQ(bytes.size(),
            net::kFrameHeaderBytes + net::kServeRequestBodyBytes);

  net::Frame frame;
  std::size_t consumed = 0;
  ASSERT_TRUE(
      net::try_decode(bytes.data(), bytes.size(), frame, consumed).ok());
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(frame.type, net::FrameType::kServeRequest);
  EXPECT_EQ(frame.request.request_id, 7u);
  EXPECT_EQ(frame.request.user_id, 42u);
  EXPECT_DOUBLE_EQ(frame.request.x, 123.5);
  EXPECT_DOUBLE_EQ(frame.request.y, -9.25);
  EXPECT_EQ(frame.request.time, sent.time);
}

TEST(Wire, DecoderHandlesArbitrarySplitPoints) {
  std::vector<std::uint8_t> bytes;
  net::append_request(bytes, request_frame(1, 2, 3.0, 4.0));
  net::append_request(bytes, request_frame(5, 6, 7.0, 8.0));

  // Feed the stream one byte at a time; exactly two frames must emerge.
  std::vector<std::uint8_t> window;
  std::vector<std::uint64_t> ids;
  for (const std::uint8_t byte : bytes) {
    window.push_back(byte);
    net::Frame frame;
    std::size_t consumed = 0;
    ASSERT_TRUE(
        net::try_decode(window.data(), window.size(), frame, consumed)
            .ok());
    if (consumed > 0) {
      ASSERT_EQ(consumed, window.size());  // frame ends exactly here
      ids.push_back(frame.request.request_id);
      window.clear();
    }
  }
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 5}));
}

TEST(Wire, BadMagicAndBadTypeAreTypedParseErrors) {
  std::vector<std::uint8_t> bytes;
  net::append_request(bytes, request_frame(1, 2, 3.0, 4.0));
  net::Frame frame;
  std::size_t consumed = 0;

  std::vector<std::uint8_t> bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  EXPECT_EQ(net::try_decode(bad_magic.data(), bad_magic.size(), frame,
                            consumed)
                .code(),
            util::ErrorCode::kParseError);

  std::vector<std::uint8_t> bad_type = bytes;
  bad_type[3] = 99;
  EXPECT_EQ(net::try_decode(bad_type.data(), bad_type.size(), frame,
                            consumed)
                .code(),
            util::ErrorCode::kParseError);
}

TEST(Wire, NonReleasedResponseNeverCarriesCoordinates) {
  // Even a buggy caller that leaves raw coordinates in a dropped
  // response's struct cannot push them onto the wire.
  net::ServeResponseFrame response;
  response.request_id = 1;
  response.released = 0;
  response.x = 777.0;  // must not survive serialization
  response.y = 888.0;
  std::vector<std::uint8_t> bytes;
  net::append_response(bytes, response);
  // The body keeps its 32-byte layout; bytes 12-15 are reserved and zero.
  static_assert(net::kServeResponseBodyBytes == 32);
  ASSERT_EQ(bytes.size(),
            net::kFrameHeaderBytes + net::kServeResponseBodyBytes);
  for (std::size_t i = 12; i < 16; ++i) {
    EXPECT_EQ(bytes[net::kFrameHeaderBytes + i], 0) << "body byte " << i;
  }

  net::Frame frame;
  std::size_t consumed = 0;
  ASSERT_TRUE(
      net::try_decode(bytes.data(), bytes.size(), frame, consumed).ok());
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(frame.response.released, 0);
  EXPECT_DOUBLE_EQ(frame.response.x, 0.0);
  EXPECT_DOUBLE_EQ(frame.response.y, 0.0);
}

// ------------------------------------------------------------- admission

TEST(Admission, ShedsDeterministicallyAtCapacity) {
  net::BoundedRequestQueue queue(3);
  net::PendingRequest pending;
  EXPECT_TRUE(oracles::try_push(queue, pending));
  EXPECT_TRUE(oracles::try_push(queue, pending));
  EXPECT_TRUE(oracles::try_push(queue, pending));
  // Full: shed, not block.
  EXPECT_FALSE(oracles::try_push(queue, pending));
  EXPECT_EQ(oracles::queue_size(queue), 3u);

  std::vector<net::PendingRequest> out;
  EXPECT_TRUE(queue.pop_batch(out));
  EXPECT_EQ(out.size(), 3u);
  queue.mark_started();
  EXPECT_TRUE(oracles::try_push(queue, pending));  // room again
}

TEST(Admission, CloseDrainsBacklogThenUnblocks) {
  net::BoundedRequestQueue queue(8);
  net::PendingRequest pending;
  pending.conn_id = 17;
  ASSERT_TRUE(oracles::try_push(queue, pending));
  queue.close();
  // Closed refuses new work.
  EXPECT_FALSE(oracles::try_push(queue, pending));

  std::vector<net::PendingRequest> out;
  EXPECT_TRUE(queue.pop_batch(out));  // backlog still drains
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].conn_id, 17u);
  queue.mark_started();
  EXPECT_FALSE(queue.pop_batch(out));  // drained + closed
  EXPECT_TRUE(out.empty());
}

TEST(Admission, BatchAdmitMatchesSequentialTryPush) {
  // try_push_batch must give every request the decision a run of
  // sequential try_push calls gives, from the same starting state: some
  // requests already queued and one popped but not yet started (still
  // counted against capacity).
  auto prepared = [] {
    auto queue = std::make_unique<net::BoundedRequestQueue>(6);
    net::PendingRequest pending;
    EXPECT_TRUE(oracles::try_push(*queue, pending));
    EXPECT_TRUE(oracles::try_push(*queue, pending));
    std::vector<net::PendingRequest> popped;
    EXPECT_TRUE(queue->pop_batch(popped));
    queue->mark_started();                  // one in service, one in hand
    EXPECT_TRUE(oracles::try_push(*queue, pending));  // and one queued
    EXPECT_EQ(oracles::queue_size(*queue), 2u);
    return queue;
  };
  const std::unique_ptr<net::BoundedRequestQueue> sequential = prepared();
  const std::unique_ptr<net::BoundedRequestQueue> batched = prepared();

  std::vector<net::PendingRequest> requests(10);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].conn_id = 100 + i;
  }
  std::vector<bool> expected;
  for (const net::PendingRequest& request : requests) {
    expected.push_back(oracles::try_push(*sequential, request));
  }
  std::vector<bool> admitted;
  const std::size_t count = batched->try_push_batch(requests, admitted);
  EXPECT_EQ(admitted, expected);
  // The 2 waiting requests leave room for exactly 4 of the burst.
  EXPECT_EQ(count, 4u);
  EXPECT_EQ(count, static_cast<std::size_t>(
                       std::count(expected.begin(), expected.end(), true)));
  EXPECT_TRUE(expected.front());
  EXPECT_FALSE(expected.back());

  std::vector<net::PendingRequest> from_sequential;
  std::vector<net::PendingRequest> from_batched;
  ASSERT_TRUE(sequential->pop_batch(from_sequential));
  ASSERT_TRUE(batched->pop_batch(from_batched));
  ASSERT_EQ(from_sequential.size(), from_batched.size());
  for (std::size_t i = 0; i < from_batched.size(); ++i) {
    EXPECT_EQ(from_batched[i].conn_id, from_sequential[i].conn_id);
  }
}

TEST(Admission, PoppedButUnstartedRequestsStillCountAsQueued) {
  net::BoundedRequestQueue queue(3);
  net::PendingRequest pending;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(oracles::try_push(queue, pending));
  }
  std::vector<net::PendingRequest> out;
  ASSERT_TRUE(queue.pop_batch(out));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(queue.in_hand(), 3u);
  EXPECT_EQ(oracles::queue_size(queue), 3u);
  // In hand still fills capacity.
  EXPECT_FALSE(oracles::try_push(queue, pending));

  queue.mark_started();
  EXPECT_EQ(oracles::queue_size(queue), 2u);
  // The started one freed a slot.
  ASSERT_TRUE(oracles::try_push(queue, pending));
  queue.mark_started();
  queue.mark_started();
  EXPECT_EQ(queue.in_hand(), 0u);
  ASSERT_TRUE(queue.pop_batch(out));
  ASSERT_EQ(out.size(), 1u);
  queue.mark_started();
  EXPECT_EQ(oracles::queue_size(queue), 0u);
}

TEST(Admission, ConcurrentBatchesDrainEverythingAdmittedAfterClose) {
  // One producer admitting batches, one consumer popping them: after
  // close every admitted request is popped exactly once, in admission
  // order, the batches never exceed kPopBatch, and the books end at 0.
  net::BoundedRequestQueue queue(96);
  std::vector<std::uint64_t> popped_ids;
  std::size_t largest_batch = 0;
  std::thread worker([&] {
    std::vector<net::PendingRequest> batch;
    while (queue.pop_batch(batch)) {
      largest_batch = std::max(largest_batch, batch.size());
      for (const net::PendingRequest& pending : batch) {
        queue.mark_started();
        popped_ids.push_back(pending.conn_id);
      }
    }
  });
  std::vector<std::uint64_t> admitted_ids;
  std::vector<net::PendingRequest> requests;
  std::vector<bool> admitted;
  std::uint64_t next_id = 0;
  for (int round = 0; round < 400; ++round) {
    requests.assign(1 + static_cast<std::size_t>(round % 150), {});
    for (net::PendingRequest& request : requests) request.conn_id = next_id++;
    queue.try_push_batch(requests, admitted);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (admitted[i]) admitted_ids.push_back(requests[i].conn_id);
    }
  }
  queue.close();
  worker.join();
  EXPECT_EQ(popped_ids, admitted_ids);
  EXPECT_LE(largest_batch, net::BoundedRequestQueue::kPopBatch);
  EXPECT_EQ(queue.in_hand(), 0u);
  EXPECT_EQ(oracles::queue_size(queue), 0u);
  std::vector<net::PendingRequest> late(1);
  EXPECT_EQ(queue.try_push_batch(late, admitted), 0u);  // closed
  EXPECT_FALSE(admitted[0]);
}

// ------------------------------------------------------------ load model

TEST(LoadModel, PlansAreDeterministicInTheSeed) {
  net::LoadPlanConfig config;
  config.target_rps = 500.0;
  config.duration_s = 0.5;
  config.users = 50;
  config.seed = 9;
  const std::vector<net::TimedRequest> a =
      net::build_open_loop_plan(config);
  const std::vector<net::TimedRequest> b =
      net::build_open_loop_plan(config);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at_s, b[i].at_s);
    EXPECT_EQ(a[i].request.user_id, b[i].request.user_id);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].request.x),
              std::bit_cast<std::uint64_t>(b[i].request.x));
  }
  config.seed = 10;
  const std::vector<net::TimedRequest> c =
      net::build_open_loop_plan(config);
  ASSERT_FALSE(c.empty());
  EXPECT_NE(a.front().at_s, c.front().at_s);
}

TEST(LoadModel, PoissonPlanHitsTheTargetRateAndIsSorted) {
  net::LoadPlanConfig config;
  config.target_rps = 2000.0;
  config.duration_s = 4.0;
  config.users = 100;
  const std::vector<net::TimedRequest> plan =
      net::build_open_loop_plan(config);
  const double achieved =
      static_cast<double>(plan.size()) / config.duration_s;
  EXPECT_NEAR(achieved, config.target_rps, config.target_rps * 0.10);
  for (std::size_t i = 1; i < plan.size(); ++i) {
    EXPECT_LE(plan[i - 1].at_s, plan[i].at_s);
    EXPECT_LT(plan[i].at_s, config.duration_s);
  }
}

TEST(LoadModel, BurstyPlanKeepsTheMeanRate) {
  net::LoadPlanConfig config;
  config.target_rps = 2000.0;
  config.duration_s = 4.0;
  config.process = net::ArrivalProcess::kBursty;
  config.users = 100;
  const std::vector<net::TimedRequest> plan =
      net::build_open_loop_plan(config);
  const double achieved =
      static_cast<double>(plan.size()) / config.duration_s;
  EXPECT_NEAR(achieved, config.target_rps, config.target_rps * 0.10);

  // The on-phase must be visibly denser than the off-phase.
  std::size_t on = 0;
  std::size_t off = 0;
  for (const net::TimedRequest& timed : plan) {
    const double phase = std::fmod(timed.at_s, config.burst_period_s);
    if (phase < config.burst_fraction * config.burst_period_s) {
      ++on;
    } else {
      ++off;
    }
  }
  // On-phase owns burst_fraction of the time but far more of the load.
  const double on_share =
      static_cast<double>(on) / static_cast<double>(on + off);
  EXPECT_GT(on_share, config.burst_fraction * 2.0);
}

TEST(LoadModel, ZipfSkewsTowardLowRanks) {
  const net::ZipfSampler zipf(1000, 1.1);
  rng::Engine engine(4);
  std::size_t top10 = 0;
  const std::size_t draws = 20000;
  for (std::size_t i = 0; i < draws; ++i) {
    if (zipf.sample(engine) < 10) ++top10;
  }
  // Uniform would put ~1% in the top 10; Zipf(1.1) puts a large share.
  EXPECT_GT(top10, draws / 5);
}

// ------------------------------------------- server config + create()

TEST(ServerConfig, FluentCopiesComposeWithoutMutatingTheSource) {
  const net::ServerConfig base;
  const net::ServerConfig tuned =
      base.with_workers(7)
          .with_queue_capacity(99)
          .with_backend(net::IoBackendKind::kEpoll)
          .with_service_delay_us(55)
          .with_max_outbound_bytes(1 << 16)
          .with_port(8080);
  EXPECT_EQ(tuned.workers, 7u);
  EXPECT_EQ(tuned.queue_capacity, 99u);
  EXPECT_EQ(tuned.backend, net::IoBackendKind::kEpoll);
  EXPECT_EQ(tuned.service_delay_us, 55u);
  EXPECT_EQ(tuned.max_outbound_bytes, std::size_t{1} << 16);
  EXPECT_EQ(tuned.port, 8080u);
  // The source is untouched.
  EXPECT_EQ(base.workers, 2u);
  EXPECT_EQ(base.backend, net::IoBackendKind::kAuto);
  EXPECT_EQ(base.port, 0u);
  EXPECT_TRUE(tuned.validated().ok());
}

TEST(ServerConfig, ValidatedNamesEachBadField) {
  const net::ServerConfig good;
  EXPECT_TRUE(good.validated().ok());

  const util::Status bad_port = good.with_port(70000).validated();
  EXPECT_EQ(bad_port.code(), util::ErrorCode::kInvalidArgument);
  EXPECT_NE(bad_port.message().find("port"), std::string::npos);

  EXPECT_EQ(good.with_workers(0).validated().code(),
            util::ErrorCode::kInvalidArgument);
  EXPECT_EQ(good.with_queue_capacity(0).validated().code(),
            util::ErrorCode::kInvalidArgument);
  EXPECT_EQ(good.with_max_outbound_bytes(8).validated().code(),
            util::ErrorCode::kInvalidArgument);
}

TEST(IoBackendSelection, NamesRoundTripAndRejectGarbage) {
  EXPECT_STREQ(net::io_backend_kind_name(net::IoBackendKind::kAuto),
               "auto");
  EXPECT_STREQ(net::io_backend_kind_name(net::IoBackendKind::kEpoll),
               "epoll");
  EXPECT_STREQ(net::io_backend_kind_name(net::IoBackendKind::kIoUring),
               "io_uring");
  EXPECT_EQ(net::parse_io_backend_kind("epoll").value(),
            net::IoBackendKind::kEpoll);
  EXPECT_EQ(net::parse_io_backend_kind("io_uring").value(),
            net::IoBackendKind::kIoUring);
  EXPECT_EQ(net::parse_io_backend_kind("auto").value(),
            net::IoBackendKind::kAuto);
  EXPECT_EQ(net::parse_io_backend_kind(nullptr).value(),
            net::IoBackendKind::kAuto);  // unset env means auto
  EXPECT_EQ(net::parse_io_backend_kind("uring").status().code(),
            util::ErrorCode::kParseError);
}

TEST(EdgeServer, CreateRejectsBadConfigWithTypedStatus) {
  util::Result<std::unique_ptr<net::EdgeServer>> bad_port =
      net::EdgeServer::create(small_edge_config(),
                              net::ServerConfig{}.with_port(65536));
  ASSERT_FALSE(bad_port.ok());
  EXPECT_EQ(bad_port.status().code(), util::ErrorCode::kInvalidArgument);

  util::Result<std::unique_ptr<net::EdgeServer>> bad_workers =
      net::EdgeServer::create(small_edge_config(),
                              net::ServerConfig{}.with_workers(0));
  ASSERT_FALSE(bad_workers.ok());
  EXPECT_EQ(bad_workers.status().code(),
            util::ErrorCode::kInvalidArgument);
}

TEST(EdgeServer, CreateReportsBindFailureAsTypedStatus) {
  // Occupy an ephemeral port, then ask a second server for the same one.
  const std::unique_ptr<net::EdgeServer> first =
      make_server(small_edge_config());
  ASSERT_NE(first, nullptr);
  util::Result<std::unique_ptr<net::EdgeServer>> second =
      net::EdgeServer::create(
          small_edge_config(),
          net::ServerConfig{}.with_port(first->port()));
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), util::ErrorCode::kIoError);
}

TEST(EdgeServer, ExplicitIoUringRequestNeverSilentlyDowngrades) {
  util::Result<std::unique_ptr<net::EdgeServer>> created =
      net::EdgeServer::create(
          small_edge_config(),
          net::ServerConfig{}.with_backend(net::IoBackendKind::kIoUring));
  if (net::io_uring_available()) {
    // Satisfiable: the explicit request must land on io_uring exactly.
    ASSERT_TRUE(created.ok()) << created.status().to_string();
    EXPECT_EQ(created.value()->backend_kind(),
              net::IoBackendKind::kIoUring);
  } else {
    // Unsatisfiable: a LOUD typed error, never an epoll downgrade.
    ASSERT_FALSE(created.ok());
    EXPECT_EQ(created.status().code(),
              util::ErrorCode::kFailedPrecondition);
    EXPECT_NE(created.status().message().find("io_uring"),
              std::string::npos);
  }
}

TEST(EdgeServer, StartTwiceIsATypedError) {
  const std::unique_ptr<net::EdgeServer> server =
      make_server(small_edge_config());
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(server->start().ok());
  EXPECT_EQ(server->start().code(), util::ErrorCode::kFailedPrecondition);
  server->stop();
}

TEST(EdgeServer, MetricsNameTheBackendItServesWith) {
  // The daemon's metrics dump says which IO backend serves: the gauge is
  // published at create(), before any request.
  const std::unique_ptr<net::EdgeServer> server =
      make_server(small_edge_config());
  ASSERT_NE(server, nullptr);
  EXPECT_NE(server->metrics().to_string().find("net.backend: "),
            std::string::npos);
  EXPECT_EQ(server->metrics().gauge(net::net_metrics::kBackend).value(),
            static_cast<double>(server->backend_kind()));
}

// ------------------------------------------------------- loopback serving

TEST(EdgeServer, ServesOverLoopbackAndNeverEchoesRawCoordinates) {
  net::ServerConfig server_config;
  server_config.workers = 2;
  const std::unique_ptr<net::EdgeServer> server =
      make_server(small_edge_config(), server_config);
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(server->start().ok());

  util::Result<net::BlockingClient> client =
      net::BlockingClient::connect(server->port());
  ASSERT_TRUE(client.ok());
  for (std::uint64_t i = 0; i < 32; ++i) {
    const net::ServeRequestFrame request =
        request_frame(i, 1 + (i % 4), 1000.0, 2000.0);
    util::Result<net::ServeResponseFrame> response =
        client->call(request);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->request_id, i);
    ASSERT_EQ(response->released, 1);  // no faults: everything serves
    // Obfuscated, not echoed.
    EXPECT_FALSE(response->x == request.x && response->y == request.y);
  }
  EXPECT_EQ(server->metrics().counter_value(net::net_metrics::kRequests),
            32u);
  EXPECT_EQ(server->metrics().counter_value(net::net_metrics::kResponses),
            32u);
  server->stop();
}

TEST(EdgeServer, PipelinedRequestsAllComeBackMatched) {
  net::ServerConfig server_config;
  server_config.workers = 2;
  const std::unique_ptr<net::EdgeServer> server =
      make_server(small_edge_config(), server_config);
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(server->start().ok());

  util::Result<net::BlockingClient> client =
      net::BlockingClient::connect(server->port());
  ASSERT_TRUE(client.ok());
  const std::uint64_t n = 64;
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(client->send(request_frame(i, 1 + (i % 8), 500.0, 500.0))
                    .ok());
  }
  std::vector<bool> seen(n, false);
  for (std::uint64_t i = 0; i < n; ++i) {
    util::Result<net::ServeResponseFrame> response = client->receive();
    ASSERT_TRUE(response.ok());
    ASSERT_LT(response->request_id, n);
    EXPECT_FALSE(seen[response->request_id]);  // each id exactly once
    seen[response->request_id] = true;
  }
  server->stop();
}

TEST(EdgeServer, LoneRequestToAParkedWorkerIsServedInline) {
  // One worker. A round trip's lone request finds the worker parked, so
  // the IO thread serves it itself; two frames in one write are a share
  // of two and go through the queue. Either way every request is
  // answered and counted once.
  net::ServerConfig server_config;
  server_config.workers = 1;
  const std::unique_ptr<net::EdgeServer> server =
      make_server(small_edge_config(), server_config);
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(server->start().ok());
  obs::MetricsRegistry& metrics = server->metrics();
  auto inline_count = [&] {
    return metrics.counter_value(net::net_metrics::kServedInline);
  };

  util::Result<net::BlockingClient> client =
      net::BlockingClient::connect(server->port());
  ASSERT_TRUE(client.ok());
  // The worker thread may not have parked yet when the first request
  // lands; once one request is served inline it never wakes again while
  // round trips stay sequential.
  std::uint64_t id = 0;
  for (; inline_count() == 0 && id < 1000; ++id) {
    ASSERT_TRUE(client->call(request_frame(id, 1, 500.0, 500.0)).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(inline_count(), 1u) << "the worker never parked";
  for (std::uint64_t i = 0; i < 32; ++i, ++id) {
    util::Result<net::ServeResponseFrame> response =
        client->call(request_frame(id, 1 + (i % 4), 500.0, 500.0));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->request_id, id);
    EXPECT_EQ(inline_count(), i + 2) << "round trip " << i;
  }

  util::Result<net::UniqueFd> fd = net::connect_loopback(server->port());
  ASSERT_TRUE(fd.ok()) << fd.status().to_string();
  std::vector<std::uint8_t> bytes;
  net::append_request(bytes, request_frame(id, 5, 500.0, 500.0));
  net::append_request(bytes, request_frame(id + 1, 6, 500.0, 500.0));
  ASSERT_TRUE(net::write_all(fd->get(), bytes.data(), bytes.size()).ok());
  std::vector<std::uint8_t> in;
  std::size_t head = 0;
  for (std::uint64_t expected = id; expected < id + 2;) {
    net::Frame frame;
    std::size_t consumed = 0;
    ASSERT_TRUE(
        net::try_decode(in.data() + head, in.size() - head, frame, consumed)
            .ok());
    if (consumed == 0) {
      std::uint8_t chunk[256];
      const ssize_t got = ::recv(fd->get(), chunk, sizeof(chunk), 0);
      ASSERT_GT(got, 0);
      in.insert(in.end(), chunk, chunk + got);
      continue;
    }
    head += consumed;
    ASSERT_EQ(frame.type, net::FrameType::kServeResponse);
    EXPECT_EQ(frame.response.request_id, expected++);
  }
  EXPECT_EQ(inline_count(), 33u) << "a share of two was served inline";

  server->stop();
  EXPECT_EQ(metrics.counter_value(net::net_metrics::kRequests), id + 2);
  EXPECT_EQ(metrics.counter_value(net::net_metrics::kResponses),
            metrics.counter_value(net::net_metrics::kRequests));
  EXPECT_EQ(metrics.histogram(net::net_metrics::kServiceTimeUs).count(),
            id + 2);
}

TEST(EdgeServer, PoisonedStreamStillServesTheFramesBeforeIt) {
  // One send carries k valid requests and then a bad header. The k
  // requests were decoded before the poison, so they are admitted and
  // served exactly as if the stream had ended there; then the
  // connection closes with one parse error.
  const std::unique_ptr<net::EdgeServer> server =
      make_server(small_edge_config());
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(server->start().ok());
  util::Result<net::UniqueFd> fd = net::connect_loopback(server->port());
  ASSERT_TRUE(fd.ok()) << fd.status().to_string();

  const std::uint64_t k = 9;
  std::vector<std::uint8_t> bytes;
  for (std::uint64_t i = 0; i < k; ++i) {
    net::append_request(bytes, request_frame(i, 1 + i, 700.0, 800.0));
  }
  bytes.insert(bytes.end(), net::kFrameHeaderBytes, 0xFF);  // bad magic
  ASSERT_TRUE(net::write_all(fd->get(), bytes.data(), bytes.size()).ok());

  // The server closes the stream; read until EOF/reset.
  std::uint8_t sink[256];
  while (::recv(fd->get(), sink, sizeof(sink), 0) > 0) {
  }
  const obs::LatencyHistogram& service_time =
      server->metrics().histogram(net::net_metrics::kServiceTimeUs);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((service_time.count() < k ||
          server->metrics().counter_value(
              net::net_metrics::kConnectionsClosed) < 1) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  obs::MetricsRegistry& metrics = server->metrics();
  EXPECT_EQ(metrics.counter_value(net::net_metrics::kRequests), k);
  EXPECT_EQ(metrics.counter_value(net::net_metrics::kParseErrors), 1u);
  EXPECT_EQ(metrics.counter_value(net::net_metrics::kShed), 0u);
  EXPECT_EQ(service_time.count(), k);
  EXPECT_EQ(metrics.counter_value(core::edge_metrics::kTopReports) +
                metrics.counter_value(core::edge_metrics::kNomadicReports),
            k);
  EXPECT_EQ(metrics.counter_value(net::net_metrics::kConnectionsClosed),
            1u);
  server->stop();
}

TEST(EdgeServer, StopIsCleanAndIdempotent) {
  const std::unique_ptr<net::EdgeServer> server =
      make_server(small_edge_config());
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(server->start().ok());
  server->stop();
  server->stop();  // second stop is a no-op
}

// ------------------------------------------------- shedding and the split

TEST(EdgeServer, FullQueueShedsAsDegradedDroppedAndCountsIt) {
  // One slow worker + a tiny queue: a pipelined burst must overflow
  // admission deterministically.
  net::ServerConfig server_config;
  server_config.workers = 1;
  server_config.queue_capacity = 4;
  server_config.service_delay_us = 2000;
  const std::unique_ptr<net::EdgeServer> server =
      make_server(small_edge_config(), server_config);
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(server->start().ok());

  util::Result<net::BlockingClient> client =
      net::BlockingClient::connect(server->port());
  ASSERT_TRUE(client.ok());
  const std::uint64_t n = 64;
  for (std::uint64_t i = 0; i < n; ++i) {
    // Same user: one worker queue takes the whole burst.
    ASSERT_TRUE(client->send(request_frame(i, 1, 500.0, 500.0)).ok());
  }
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    util::Result<net::ServeResponseFrame> response = client->receive();
    ASSERT_TRUE(response.ok());
    const auto outcome =
        static_cast<core::ServeOutcome>(response->outcome);
    if (outcome == core::ServeOutcome::kDegradedDropped) {
      ++shed;
      EXPECT_EQ(response->released, 0);
      EXPECT_EQ(static_cast<util::ErrorCode>(response->status_code),
                util::ErrorCode::kResourceExhausted);
      EXPECT_DOUBLE_EQ(response->x, 0.0);  // nothing leaves on a shed
      EXPECT_DOUBLE_EQ(response->y, 0.0);
    } else {
      ++served;
    }
  }
  EXPECT_EQ(served + shed, n);  // every request accounted for
  EXPECT_GT(shed, 0u);          // the burst really overflowed
  EXPECT_GT(served, 0u);        // and the queue really drained
  EXPECT_EQ(server->metrics().counter_value(net::net_metrics::kShed), shed);
  // Admission sheds land in the box-level fail-private taxonomy too.
  EXPECT_GE(server->metrics().counter_value(
                core::edge_metrics::kDegradedDropped),
            shed);
  server->stop();
}

TEST(EdgeServer, SplitsQueueDelayFromServiceTime) {
  net::ServerConfig server_config;
  server_config.workers = 1;
  server_config.queue_capacity = 256;
  server_config.service_delay_us = 1000;
  const std::unique_ptr<net::EdgeServer> server =
      make_server(small_edge_config(), server_config);
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(server->start().ok());

  util::Result<net::BlockingClient> client =
      net::BlockingClient::connect(server->port());
  ASSERT_TRUE(client.ok());
  const std::uint64_t n = 16;
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(client->send(request_frame(i, 1, 500.0, 500.0)).ok());
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(client->receive().ok());
  }
  const obs::LatencyHistogram& queue_delay =
      server->metrics().histogram(net::net_metrics::kQueueDelayUs);
  const obs::LatencyHistogram& service_time =
      server->metrics().histogram(net::net_metrics::kServiceTimeUs);
  EXPECT_EQ(queue_delay.count(), n);
  EXPECT_EQ(service_time.count(), n);
  // Every request sleeps 1ms in service, so the mean must reflect it.
  EXPECT_GE(service_time.mean(), 1000.0);
  // A pipelined burst into one worker queues: the LAST requests wait for
  // all earlier 1ms services, so mean queue delay well exceeds a single
  // service time.
  EXPECT_GE(queue_delay.mean(), 1000.0);
  server->stop();
}

// -------------------------------------------- fail private over the wire

TEST(EdgeServer, InjectedFaultsNeverLeakRawCoordinatesOnTheWire) {
  // Heavy unavailability at the serve site: many requests degrade to
  // dropped. The wire contract: dropped frames carry nothing.
  util::Result<fault::FaultPlan> plan = fault::FaultPlan::parse(
      "seed=5;serve:p=0.5,code=unavailable");
  ASSERT_TRUE(plan.ok());
  fault::FaultInjector injector(plan.value());

  core::EdgeConfig edge_config = small_edge_config();
  edge_config.faults = &injector;

  net::ServerConfig server_config;
  server_config.workers = 2;
  const std::unique_ptr<net::EdgeServer> server =
      make_server(edge_config, server_config);
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(server->start().ok());

  util::Result<net::BlockingClient> client =
      net::BlockingClient::connect(server->port());
  ASSERT_TRUE(client.ok());
  std::uint64_t dropped = 0;
  std::uint64_t released = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const net::ServeRequestFrame request =
        request_frame(i, 1 + (i % 8), 1000.0, 2000.0);
    util::Result<net::ServeResponseFrame> response =
        client->call(request);
    ASSERT_TRUE(response.ok());
    if (response->released == 0) {
      ++dropped;
      EXPECT_DOUBLE_EQ(response->x, 0.0);
      EXPECT_DOUBLE_EQ(response->y, 0.0);
    } else {
      ++released;
      EXPECT_FALSE(response->x == request.x && response->y == request.y);
    }
  }
  EXPECT_GT(dropped, 0u);   // the plan really fired
  EXPECT_GT(released, 0u);  // and service still flowed
  server->stop();
}

// --------------------------------------------------------- burst overload

TEST(OpenLoop, OverloadStaysBoundedAccountedAndLeakFree) {
  // Offered >> capacity: one slow worker, a small queue, and a bursty
  // plan sent all at once. The server must answer or shed EVERY request,
  // never crash, and never leak a raw coordinate.
  net::ServerConfig server_config;
  server_config.workers = 1;
  server_config.queue_capacity = 16;
  server_config.service_delay_us = 500;
  const std::unique_ptr<net::EdgeServer> server =
      make_server(small_edge_config(), server_config);
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(server->start().ok());

  net::LoadPlanConfig plan_config;
  plan_config.target_rps = 4000.0;  // capacity is ~2000/s at 500us each
  plan_config.duration_s = 0.5;
  plan_config.process = net::ArrivalProcess::kBursty;
  plan_config.users = 64;
  plan_config.seed = 11;
  const std::vector<net::TimedRequest> plan =
      net::build_open_loop_plan(plan_config);
  ASSERT_FALSE(plan.empty());

  util::Result<burst::Stats> run = burst::run(server->port(), plan, 2);
  ASSERT_TRUE(run.ok()) << run.status().to_string();
  const burst::Stats& stats = run.value();

  EXPECT_EQ(stats.sent, plan.size());
  EXPECT_EQ(stats.responses + stats.missing, stats.sent);
  EXPECT_EQ(stats.missing, 0u);  // every admitted or shed answer arrived
  EXPECT_EQ(stats.raw_leaks, 0u);
  EXPECT_EQ(stats.wire_errors, 0u);
  EXPECT_GT(stats.degraded_dropped, 0u);  // overload really shed
  EXPECT_GT(stats.served, 0u);            // but service continued
  // The queue bound held: the backlog can never have exceeded capacity,
  // so queue delay is bounded by capacity * service time plus slack.
  // Service time is taken from the server's own measurement, not the
  // configured 500us: a loaded CI box stretches the worker's sleeps,
  // and the bound must stretch with them. An UNBOUNDED queue would
  // still blow through it -- its backlog is hundreds of requests deep,
  // not `queue_capacity`.
  const obs::LatencyHistogram& queue_delay =
      server->metrics().histogram(net::net_metrics::kQueueDelayUs);
  const obs::LatencyHistogram& service_time =
      server->metrics().histogram(net::net_metrics::kServiceTimeUs);
  const double effective_service_us =
      std::max(static_cast<double>(server_config.service_delay_us),
               service_time.quantile(0.99));
  EXPECT_LE(queue_delay.quantile(0.99),
            static_cast<double>(server_config.queue_capacity) *
                effective_service_us * 4.0);
  server->stop();
}

}  // namespace
}  // namespace privlocad
