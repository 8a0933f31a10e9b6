// edge_serverd: ConcurrentEdge behind a loopback socket.
//
// The serving daemon the open-loop bench and the ctest smoke drive. Two
// modes:
//   edge_serverd [--port N] [--shards N] [--workers N]
//                [--queue-capacity N] [--seed N]
//                [--backend=auto|epoll|io_uring]
//     Runs until SIGINT/SIGTERM, then stops cleanly and dumps the
//     metrics registry to stdout.
//   edge_serverd --selftest[=N]
//     Boots on an ephemeral port, drives N requests through a loopback
//     client, verifies the fail-private wire contract and counter
//     consistency, shuts down, exits 0/1. This is the ctest smoke.
// A malformed flag value (a number with trailing characters, an
// unknown backend name) prints the typed parse error and exits 2.
#include <charconv>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include "core/telemetry.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "trace/check_in.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

/// The value of `--name=V` or `--name V` (V not itself a flag);
/// nullptr when absent.
const char* flag_value(int argc, char** argv, const char* name) {
  const std::string prefix = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with(prefix)) return argv[i] + prefix.size();
    if (arg == name && i + 1 < argc &&
        !std::string_view(argv[i + 1]).starts_with("--")) {
      return argv[i + 1];
    }
  }
  return nullptr;
}

/// A decimal numeric flag, `fallback` when absent. The whole value must
/// parse: `--seed=12x` is a typed parse error, not seed 12.
privlocad::util::Result<std::uint64_t> numeric_flag(int argc, char** argv,
                                                    const char* name,
                                                    std::uint64_t fallback) {
  const char* value = flag_value(argc, argv, name);
  if (value == nullptr) return fallback;
  const char* end = value + std::strlen(value);
  std::uint64_t parsed = 0;
  const auto [ptr, error] = std::from_chars(value, end, parsed);
  if (error != std::errc() || ptr != end || ptr == value) {
    return privlocad::util::Status::parse_error(
        std::string(name) + " needs an unsigned decimal integer, got '" +
        value + "'");
  }
  return parsed;
}

bool has_flag(int argc, char** argv, const char* name) {
  const std::string prefix = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == name || arg.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

int selftest(privlocad::net::EdgeServer& server, std::uint64_t requests) {
  using namespace privlocad;
  util::Result<net::BlockingClient> client =
      net::BlockingClient::connect(server.port());
  if (!client.ok()) {
    std::fprintf(stderr, "selftest: connect failed: %s\n",
                 client.status().to_string().c_str());
    return 1;
  }
  std::uint64_t released = 0;
  for (std::uint64_t i = 0; i < requests; ++i) {
    net::ServeRequestFrame request;
    request.request_id = i;
    request.user_id = 1 + (i % 8);
    request.x = 1000.0 + static_cast<double>(i % 8) * 10.0;
    request.y = 2000.0;
    request.time = trace::kStudyStart + static_cast<std::int64_t>(i);
    util::Result<net::ServeResponseFrame> response =
        client->call(request);
    if (!response.ok()) {
      std::fprintf(stderr, "selftest: request %llu failed: %s\n",
                   static_cast<unsigned long long>(i),
                   response.status().to_string().c_str());
      return 1;
    }
    if (response->request_id != i) {
      std::fprintf(stderr, "selftest: response id mismatch\n");
      return 1;
    }
    if (response->released != 0) {
      ++released;
      // Fail-private: the released location must be obfuscated, never
      // the raw coordinates we sent.
      if (response->x == request.x && response->y == request.y) {
        std::fprintf(stderr, "selftest: raw coordinate leaked\n");
        return 1;
      }
    } else if (response->x != 0.0 || response->y != 0.0) {
      std::fprintf(stderr, "selftest: non-released frame carries coords\n");
      return 1;
    }
  }
  const std::uint64_t seen =
      server.metrics().counter_value(privlocad::net::net_metrics::kRequests);
  if (seen != requests || released == 0) {
    std::fprintf(stderr,
                 "selftest: counters inconsistent (requests=%llu "
                 "released=%llu)\n",
                 static_cast<unsigned long long>(seen),
                 static_cast<unsigned long long>(released));
    return 1;
  }
  std::printf("selftest: %llu requests, %llu released, all obfuscated\n",
              static_cast<unsigned long long>(requests),
              static_cast<unsigned long long>(released));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace privlocad;

  util::Result<std::uint64_t> seed = numeric_flag(argc, argv, "--seed", 1);
  util::Result<std::uint64_t> shards =
      numeric_flag(argc, argv, "--shards", 4);
  util::Result<std::uint64_t> port = numeric_flag(argc, argv, "--port", 0);
  util::Result<std::uint64_t> workers =
      numeric_flag(argc, argv, "--workers", 2);
  util::Result<std::uint64_t> queue_capacity =
      numeric_flag(argc, argv, "--queue-capacity", 1024);
  util::Result<std::uint64_t> selftest_requests =
      numeric_flag(argc, argv, "--selftest", 32);
  const char* backend_name = flag_value(argc, argv, "--backend");
  util::Result<net::IoBackendKind> backend = net::parse_io_backend_kind(
      backend_name == nullptr ? "auto" : backend_name);
  for (const util::Status& status :
       {seed.status(), shards.status(), port.status(), workers.status(),
        queue_capacity.status(), selftest_requests.status(),
        backend.status()}) {
    if (!status.ok()) {
      std::fprintf(stderr, "edge_serverd: %s\n", status.to_string().c_str());
      return 2;
    }
  }

  core::EdgeConfig edge_config;
  edge_config.seed = seed.value();
  edge_config.shards = static_cast<std::size_t>(shards.value());
  const net::ServerConfig server_config =
      net::ServerConfig{}
          .with_port(static_cast<std::uint32_t>(port.value()))
          .with_workers(static_cast<std::size_t>(workers.value()))
          .with_queue_capacity(
              static_cast<std::size_t>(queue_capacity.value()))
          .with_backend(backend.value());

  // No exceptions to catch: every failure (bad port, bind failure, an
  // unsatisfiable backend request) comes back as a typed Status.
  util::Result<std::unique_ptr<net::EdgeServer>> created =
      net::EdgeServer::create(edge_config, server_config);
  if (!created.ok()) {
    std::fprintf(stderr, "edge_serverd: create failed: %s\n",
                 created.status().to_string().c_str());
    return 1;
  }
  net::EdgeServer& server = *created.value();
  if (util::Status s = server.start(); !s.ok()) {
    std::fprintf(stderr, "edge_serverd: start failed: %s\n",
                 s.to_string().c_str());
    return 1;
  }

  if (has_flag(argc, argv, "--selftest")) {
    const std::uint64_t n = selftest_requests.value();
    const int rc = selftest(server, n == 0 ? 32 : n);
    server.stop();
    return rc;
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::printf("edge_serverd listening on 127.0.0.1:%u (%s backend)\n",
              static_cast<unsigned>(server.port()),
              net::io_backend_kind_name(server.backend_kind()));
  std::fflush(stdout);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.stop();
  std::printf("%s", server.metrics().to_string().c_str());
  return 0;
}
