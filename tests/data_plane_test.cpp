// Tests for the columnar data plane: the UserArena's recorded
// location-management golden, snapshot round-trips (bit-identical serving
// across save / open), the pinned file format, restart permanence,
// corruption handling (a failed open changes nothing), and shard-count
// invariance of the per-user RNG streams.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/concurrent_edge.hpp"
#include "core/edge_device.hpp"
#include "core/output_selection.hpp"
#include "core/snapshot.hpp"
#include "core/user_arena.hpp"
#include "lppm/gaussian.hpp"
#include "lppm/privacy_params.hpp"
#include "rng/engine.hpp"
#include "simd/soa.hpp"
#include "trace/check_in.hpp"
#include "util/status.hpp"

namespace privlocad {
namespace {

core::EdgeConfig fast_config() {
  core::EdgeConfig c;
  c.top_params.radius_m = 500.0;
  c.top_params.epsilon = 1.0;
  c.top_params.delta = 0.01;
  c.top_params.n = 10;
  c.management.window_seconds = 1000;
  return c;
}

/// The location one serve() call released; a request that released
/// nothing fails the calling test.
core::ReportedLocation served_location(const core::ServeResult& result) {
  EXPECT_TRUE(result.released()) << result.status.to_string();
  return result.reported;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

/// A served output reduced to comparable bits: outcome, kind, and the
/// exact coordinate bit patterns (bit-identity is the contract).
using ServedBits =
    std::tuple<int, int, std::uint64_t, std::uint64_t, std::uint32_t>;

ServedBits bits_of(const core::ServeResult& r) {
  return {static_cast<int>(r.outcome), static_cast<int>(r.reported.kind),
          std::bit_cast<std::uint64_t>(r.reported.location.x),
          std::bit_cast<std::uint64_t>(r.reported.location.y), r.retries};
}

/// One user's deterministic mixed workload: check-ins at home (top after
/// the import) interleaved with far-away nomadic positions.
std::vector<trace::CheckIn> probe_stream(std::uint64_t user_id, int n) {
  std::vector<trace::CheckIn> probes;
  const geo::Point home{1000.0 * static_cast<double>(user_id % 97), 500.0};
  for (int i = 0; i < n; ++i) {
    const trace::Timestamp t = trace::kStudyStart + 2000 + i * 17;
    if (i % 3 == 2) {
      probes.push_back({{home.x + 40000.0, home.y - 35000.0 + i}, t});
    } else {
      probes.push_back({home, t});
    }
  }
  return probes;
}

trace::UserTrace history_for(std::uint64_t user_id, int check_ins = 40) {
  trace::UserTrace history;
  history.user_id = user_id;
  const geo::Point home{1000.0 * static_cast<double>(user_id % 97), 500.0};
  for (int i = 0; i < check_ins; ++i) {
    history.check_ins.push_back({home, trace::kStudyStart + i * 13});
  }
  return history;
}

// ------------------------------------------------- arena golden equivalence

/// FNV-1a 64 over the little-endian bytes of each folded word.
struct Fnv1a {
  std::uint64_t state = 0xcbf29ce484222325ULL;
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      state ^= (word >> (8 * byte)) & 0xFFu;
      state *= 0x100000001b3ULL;
    }
  }
};

// The location-management golden: a digest of (rebuilt flag, profile
// entry bits, top-set frequencies, pending count) after each of 4000
// check-ins. The digest was recorded from the per-user LocationManager
// this arena replaced, and the arena reproduced it bit-for-bit, so any
// drift in window, rebuild, clustering or eta-set semantics changes it.
TEST(UserArena, MatchesLocationManagerThroughManyWindows) {
  constexpr std::uint64_t kGoldenDigest = 0x3e9d300f75243e42ULL;
  const core::LocationManagementConfig config{
      .window_seconds = 500, .min_window_check_ins = 5};
  core::UserArena arena{rng::Engine(7)};
  const core::UserArena::Row row = arena.find_or_create(42);

  // Two alternating anchors plus drift so rebuilds produce multi-entry
  // profiles whose top sets actually change across windows.
  rng::Engine jitter(99);
  Fnv1a digest;
  int rebuilds = 0;
  for (int i = 0; i < 4000; ++i) {
    const bool at_home = i % 3 != 1;
    const geo::Point p{(at_home ? 0.0 : 5000.0) + jitter.uniform() * 10.0,
                       (at_home ? 0.0 : -3000.0) + jitter.uniform() * 10.0};
    const trace::Timestamp t = trace::kStudyStart + i * 40;
    const bool rebuilt = arena.record(row, p, t, config);
    rebuilds += rebuilt ? 1 : 0;
    digest.add(rebuilt);
    digest.add(arena.profile_size(row));
    for (std::size_t k = 0; k < arena.profile_size(row); ++k) {
      const attack::ProfileEntry e = arena.profile_entry(row, k);
      digest.add(std::bit_cast<std::uint64_t>(e.location.x));
      digest.add(std::bit_cast<std::uint64_t>(e.location.y));
      digest.add(e.frequency);
    }
    digest.add(arena.top_size(row));
    for (std::size_t k = 0; k < arena.top_size(row); ++k) {
      digest.add(arena.top_entry(row, k).frequency);
    }
    digest.add(arena.pending_check_ins(row));
  }
  EXPECT_EQ(digest.state, kGoldenDigest);
  EXPECT_EQ(rebuilds, 307);
  EXPECT_EQ(arena.total_check_ins(row), 4000u);

  // Compaction is a pure storage transform: state must be unchanged.
  const auto profile_before = arena.profile_of(row);
  const std::size_t pending_before = arena.pending_check_ins(row);
  arena.compact();
  EXPECT_EQ(profile_before.entries().size(), arena.profile_size(row));
  for (std::size_t i = 0; i < arena.profile_size(row); ++i) {
    EXPECT_EQ(profile_before.entries()[i].frequency,
              arena.profile_entry(row, i).frequency);
  }
  EXPECT_EQ(pending_before, arena.pending_check_ins(row));
}

TEST(UserArena, DirectoryScalesToManyUsers) {
  core::UserArena arena{rng::Engine(3)};
  constexpr std::uint64_t kUsers = 10000;
  for (std::uint64_t u = 0; u < kUsers; ++u) {
    const core::UserArena::Row row = arena.find_or_create(u * 977 + 5);
    ASSERT_EQ(arena.user_id(row), u * 977 + 5);
  }
  EXPECT_EQ(arena.size(), kUsers);
  for (std::uint64_t u = 0; u < kUsers; ++u) {
    const core::UserArena::Row row = arena.find(u * 977 + 5);
    ASSERT_NE(row, core::UserArena::kNoRow);
    EXPECT_EQ(arena.user_id(row), u * 977 + 5);
  }
  EXPECT_EQ(arena.find(123456789), core::UserArena::kNoRow);
}

// ------------------------------------------------------ selection span API

TEST(OutputSelectionSpan, SpanAndVectorOverloadsAgreeBitwise) {
  std::vector<geo::Point> candidates;
  rng::Engine e(11);
  for (int i = 0; i < 10; ++i) {
    candidates.push_back({e.uniform() * 1000.0, e.uniform() * 1000.0});
  }
  simd::SoaPoints soa;
  soa.assign(candidates);

  const std::vector<double> from_vector =
      core::selection_probabilities(candidates, 300.0);
  const std::vector<double> from_span =
      core::selection_probabilities(soa.span(), 300.0);
  ASSERT_EQ(from_vector.size(), from_span.size());
  for (std::size_t i = 0; i < from_vector.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(from_vector[i]),
              std::bit_cast<std::uint64_t>(from_span[i]));
  }

  rng::Engine ev(21), es(21);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(core::select_candidate(ev, candidates, 300.0),
              core::select_candidate(es, soa.span(), 300.0));
  }
}

// -------------------------------------------------- snapshot round-tripping

TEST(Snapshot, EdgeDeviceRoundTripServesBitIdentically) {
  const std::string path = temp_path("device_roundtrip.snap");
  constexpr int kUsers = 30;

  core::EdgeDevice saved(fast_config().with_seed(5));
  for (int u = 1; u <= kUsers; ++u) {
    saved.import_history(u, history_for(u));
    // Warm some frozen candidate sets pre-snapshot.
    (void)saved.serve(u, probe_stream(u, 1)[0].position,
                      trace::kStudyStart + 1500);
  }
  saved.set_user_privacy(3, {.radius_m = 250.0, .epsilon = 2.0,
                             .delta = 0.01, .n = 5});
  ASSERT_TRUE(saved.save_snapshot(path).ok());

  core::EdgeDevice reopened(fast_config().with_seed(5));
  ASSERT_TRUE(reopened.open_snapshot(path).ok());
  EXPECT_EQ(reopened.user_count(), saved.user_count());

  // Same probe streams through both devices: every served output must be
  // bit-identical, including the personalized-params user.
  const core::EdgeTelemetry tel_a0 = saved.telemetry();
  const core::EdgeTelemetry tel_b0 = reopened.telemetry();
  for (int u = 1; u <= kUsers; ++u) {
    for (const trace::CheckIn& c : probe_stream(u, 30)) {
      const core::ServeResult a = saved.serve(u, c.position, c.time);
      const core::ServeResult b = reopened.serve(u, c.position, c.time);
      ASSERT_EQ(bits_of(a), bits_of(b)) << "user " << u;
    }
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(
                reopened.user_privacy(3).radius_m),
            std::bit_cast<std::uint64_t>(saved.user_privacy(3).radius_m));

  // The outcome-counter deltas partition identically too.
  const core::EdgeTelemetry tel_a = saved.telemetry();
  const core::EdgeTelemetry tel_b = reopened.telemetry();
  EXPECT_EQ(tel_a.requests - tel_a0.requests,
            tel_b.requests - tel_b0.requests);
  EXPECT_EQ(tel_a.top_reports - tel_a0.top_reports,
            tel_b.top_reports - tel_b0.top_reports);
  EXPECT_EQ(tel_a.nomadic_reports - tel_a0.nomadic_reports,
            tel_b.nomadic_reports - tel_b0.nomadic_reports);
  EXPECT_EQ(tel_a.tables_generated - tel_a0.tables_generated,
            tel_b.tables_generated - tel_b0.tables_generated);
  std::remove(path.c_str());
}

TEST(Snapshot, ConcurrentEdgeRoundTripAtEveryShardCount) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{8}}) {
    const std::string path =
        temp_path("edge_roundtrip_" + std::to_string(shards) + ".snap");
    core::ConcurrentEdge saved(
        fast_config().with_seed(9).with_shards(shards));
    for (int u = 1; u <= 20; ++u) {
      saved.import_history(u, history_for(u));
    }
    ASSERT_TRUE(saved.save_snapshot(path).ok());

    core::ConcurrentEdge reopened(
        fast_config().with_seed(9).with_shards(shards));
    ASSERT_TRUE(reopened.open_snapshot(path).ok());

    for (int u = 1; u <= 20; ++u) {
      for (const trace::CheckIn& c : probe_stream(u, 20)) {
        const core::ServeResult a = saved.serve(u, c.position, c.time);
        const core::ServeResult b = reopened.serve(u, c.position, c.time);
        ASSERT_EQ(bits_of(a), bits_of(b))
            << "user " << u << " at " << shards << " shards";
      }
    }
    std::remove(path.c_str());
  }
}

TEST(Snapshot, ServingIsShardCountInvariant) {
  // The same population at 1, 2, and 8 shards: every user's served
  // stream must be bit-identical, because each user's randomness is an
  // engine split from (seed, user id), never shared shard state.
  std::vector<std::vector<ServedBits>> per_shard_outputs;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{8}}) {
    core::ConcurrentEdge edge(
        fast_config().with_seed(31).with_shards(shards));
    std::vector<ServedBits> outputs;
    for (int u = 1; u <= 25; ++u) {
      edge.import_history(u, history_for(u));
      for (const trace::CheckIn& c : probe_stream(u, 15)) {
        outputs.push_back(bits_of(edge.serve(u, c.position, c.time)));
      }
    }
    per_shard_outputs.push_back(std::move(outputs));
  }
  EXPECT_EQ(per_shard_outputs[0], per_shard_outputs[1]);
  EXPECT_EQ(per_shard_outputs[0], per_shard_outputs[2]);
}

/// Bit patterns of `user_id`'s first frozen candidate set in the snapshot
/// at `path`, read straight from the file's arena section.
std::vector<std::pair<std::uint64_t, std::uint64_t>> frozen_set_in(
    const std::string& path, std::uint64_t user_id) {
  core::snapshot::Reader reader(path);
  EXPECT_TRUE(reader.status().ok());
  core::UserArena arena{rng::Engine(0)};
  EXPECT_TRUE(arena.load(reader).ok());
  EXPECT_TRUE(reader.finish().ok());
  const core::UserArena::Row row = arena.find(user_id);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> bits;
  if (row == core::UserArena::kNoRow || arena.entry_count(row) != 1) {
    ADD_FAILURE() << "snapshot holds no single frozen set for " << user_id;
    return bits;
  }
  const simd::PointSpan span = arena.entry_candidates(row, 0);
  for (std::size_t i = 0; i < span.size; ++i) {
    bits.emplace_back(std::bit_cast<std::uint64_t>(span.xs[i]),
                      std::bit_cast<std::uint64_t>(span.ys[i]));
  }
  return bits;
}

bool in_set(const std::vector<std::pair<std::uint64_t, std::uint64_t>>& set,
            geo::Point p) {
  return std::find(set.begin(), set.end(),
                   std::make_pair(std::bit_cast<std::uint64_t>(p.x),
                                  std::bit_cast<std::uint64_t>(p.y))) !=
         set.end();
}

// The privacy-critical restart property (paper Section V-C): a restarted
// device must replay the SAVED candidates, never draw fresh noise, and
// must keep every user's personalized privacy level.
TEST(EdgeDevice, SnapshotRestoreSurvivesRestart) {
  const std::string path = temp_path("restart.snap");
  const trace::UserTrace history = history_for(1);
  const geo::Point home = history.check_ins.front().position;

  // Device A freezes user 1's candidate set and sets user 2 to eps = 0.5.
  core::EdgeDevice device_a(fast_config().with_seed(42));
  device_a.import_history(1, history);
  const core::ReportedLocation before =
      served_location(device_a.serve(1, home, trace::kStudyStart + 1500));
  ASSERT_EQ(before.kind, core::ReportKind::kTopLocation);
  lppm::BoundedGeoIndParams strict = fast_config().top_params;
  strict.epsilon = 0.5;
  device_a.set_user_privacy(2, strict);
  ASSERT_TRUE(device_a.save_snapshot(path).ok());
  const auto frozen = frozen_set_in(path, 1);
  ASSERT_EQ(frozen.size(), fast_config().top_params.n);
  EXPECT_TRUE(in_set(frozen, before.location));

  // Device B restarts with a different seed: every report, from the first
  // one on, is a replay of A's frozen set, and replays spend nothing.
  core::EdgeDevice device_b(fast_config().with_seed(777));
  ASSERT_TRUE(device_b.open_snapshot(path).ok());
  for (int i = 0; i < 100; ++i) {
    const core::ReportedLocation r =
        served_location(device_b.serve(1, home, trace::kStudyStart + 2000 + i));
    ASSERT_EQ(r.kind, core::ReportKind::kTopLocation) << "replay " << i;
    EXPECT_TRUE(in_set(frozen, r.location)) << "replay " << i;
  }
  EXPECT_EQ(device_b.accountant().spend_for(1).releases, 0u);
  EXPECT_EQ(device_b.telemetry().tables_generated, 0u);

  const lppm::BoundedGeoIndParams& restored = device_b.user_privacy(2);
  EXPECT_EQ(restored.epsilon, strict.epsilon);
  EXPECT_EQ(restored.delta, strict.delta);
  EXPECT_EQ(restored.radius_m, strict.radius_m);
  EXPECT_EQ(restored.n, strict.n);
  std::remove(path.c_str());
}

TEST(Snapshot, EmptyDeviceRoundTrips) {
  const std::string path = temp_path("empty.snap");
  core::EdgeDevice empty(fast_config().with_seed(1));
  ASSERT_TRUE(empty.save_snapshot(path).ok());
  core::EdgeDevice reopened(fast_config().with_seed(1));
  ASSERT_TRUE(reopened.open_snapshot(path).ok());
  EXPECT_EQ(reopened.user_count(), 0u);
  std::remove(path.c_str());
}

// ------------------------------------------------------- crash safety

// Regression: save_snapshot must be atomic. A writer that dies mid-save
// (simulated by destroying it without finish()) must leave the previous
// complete file at the final path and no temp-file debris -- pre-fix the
// writer streamed straight into the target and a crash left a truncated,
// unopenable hybrid where a valid snapshot used to be.
TEST(Snapshot, AbandonedWriterLeavesExistingSnapshotIntact) {
  const std::string path = temp_path("atomic_overwrite.snap");
  core::EdgeDevice saved(fast_config().with_seed(7));
  saved.import_history(1, history_for(1));
  ASSERT_TRUE(saved.save_snapshot(path).ok());

  {
    core::snapshot::Writer dying(path, 1);
    dying.write_u64(0xDEADBEEFULL);
    const std::vector<std::uint64_t> column(4096, 42);
    dying.write_column(column);
    // Scope exit without finish(): the crash-unwinding path.
  }

  // The original snapshot still opens and validates.
  core::EdgeDevice fresh(fast_config().with_seed(7));
  EXPECT_TRUE(fresh.open_snapshot(path).ok());
  EXPECT_EQ(fresh.user_count(), 1u);
  // No temp file left behind.
  EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0);
  std::remove(path.c_str());
}

TEST(Snapshot, AbandonedWriterCreatesNothingAtTheFinalPath) {
  const std::string path = temp_path("atomic_fresh.snap");
  std::remove(path.c_str());
  {
    core::snapshot::Writer dying(path, 1);
    dying.write_u64(1);
  }
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
  EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0);
}

TEST(Snapshot, FinishPublishesExactlyOnceAndCleansUp) {
  const std::string path = temp_path("atomic_publish.snap");
  core::EdgeDevice saved(fast_config().with_seed(7));
  saved.import_history(1, history_for(1));
  ASSERT_TRUE(saved.save_snapshot(path).ok());
  // The published file is complete and the temp name is gone.
  EXPECT_EQ(::access(path.c_str(), F_OK), 0);
  EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0);
  core::EdgeDevice fresh(fast_config().with_seed(7));
  EXPECT_TRUE(fresh.open_snapshot(path).ok());
  std::remove(path.c_str());
}

TEST(Snapshot, UnwritableDirectoryIsATypedIoError) {
  core::snapshot::Writer writer("/nonexistent-dir-privlocad/file.snap", 1);
  EXPECT_EQ(writer.status().code(), util::ErrorCode::kIoError);
  writer.write_u64(1);  // latched: a no-op, not a crash
  EXPECT_EQ(writer.finish().code(), util::ErrorCode::kIoError);
}

// ---------------------------------------------------- corruption handling

TEST(Snapshot, CorruptedChecksumIsATypedParseError) {
  const std::string path = temp_path("corrupt.snap");
  core::EdgeDevice saved(fast_config().with_seed(2));
  saved.import_history(1, history_for(1));
  ASSERT_TRUE(saved.save_snapshot(path).ok());

  // Flip one payload byte past the header.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, core::snapshot::kHeaderBytes + 96, SEEK_SET), 0);
  const int byte = std::fgetc(f);
  ASSERT_NE(byte, EOF);
  ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
  std::fputc(byte ^ 0x40, f);
  std::fclose(f);

  core::EdgeDevice fresh(fast_config().with_seed(2));
  const util::Status status = fresh.open_snapshot(path);
  EXPECT_EQ(status.code(), util::ErrorCode::kParseError);
  EXPECT_NE(status.message().find("checksum"), std::string::npos);
  EXPECT_EQ(fresh.user_count(), 0u);
  std::remove(path.c_str());
}

TEST(Snapshot, TruncationAndBadMagicAreTypedErrors) {
  const std::string truncated = temp_path("truncated.snap");
  core::EdgeDevice saved(fast_config().with_seed(2));
  saved.import_history(1, history_for(1));
  ASSERT_TRUE(saved.save_snapshot(truncated).ok());
  ASSERT_EQ(::truncate(truncated.c_str(), 100), 0);
  core::EdgeDevice fresh(fast_config().with_seed(2));
  EXPECT_EQ(fresh.open_snapshot(truncated).code(),
            util::ErrorCode::kParseError);
  std::remove(truncated.c_str());

  const std::string garbage = temp_path("garbage.snap");
  std::FILE* f = std::fopen(garbage.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  for (int i = 0; i < 200; ++i) std::fputc(i & 0xFF, f);
  std::fclose(f);
  core::EdgeDevice fresh2(fast_config().with_seed(2));
  EXPECT_EQ(fresh2.open_snapshot(garbage).code(),
            util::ErrorCode::kParseError);
  EXPECT_EQ(fresh2.open_snapshot("/nonexistent/dir/missing.snap").code(),
            util::ErrorCode::kIoError);
  std::remove(garbage.c_str());
}

TEST(Snapshot, PreconditionsAreTypedFailures) {
  const std::string path = temp_path("preconditions.snap");
  core::ConcurrentEdge saved(fast_config().with_seed(4).with_shards(2));
  saved.import_history(1, history_for(1));
  ASSERT_TRUE(saved.save_snapshot(path).ok());

  // Shard-count mismatch.
  core::ConcurrentEdge wrong_shards(
      fast_config().with_seed(4).with_shards(4));
  EXPECT_EQ(wrong_shards.open_snapshot(path).code(),
            util::ErrorCode::kFailedPrecondition);

  // A standalone device cannot open a multi-shard snapshot.
  core::EdgeDevice device(fast_config().with_seed(4));
  EXPECT_EQ(device.open_snapshot(path).code(),
            util::ErrorCode::kFailedPrecondition);

  // Opening over live users is refused.
  core::ConcurrentEdge busy(fast_config().with_seed(4).with_shards(2));
  busy.import_history(9, history_for(9));
  EXPECT_EQ(busy.open_snapshot(path).code(),
            util::ErrorCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(EdgeDevice, RestoreOverLiveEntriesRejected) {
  // A standalone device holding frozen entries refuses to open even its
  // own snapshot over them: a restore never merges into live state.
  const std::string path = temp_path("live_entries.snap");
  core::EdgeDevice live(fast_config().with_seed(4));
  live.import_history(1, history_for(1));
  // A request at the user's home freezes its permanent candidate set.
  const core::ServeResult frozen =
      live.serve(1, history_for(1).check_ins[0].position,
                 trace::kStudyStart + 1500);
  ASSERT_TRUE(frozen.released());
  ASSERT_EQ(frozen.reported.kind, core::ReportKind::kTopLocation);
  ASSERT_TRUE(live.save_snapshot(path).ok());
  EXPECT_EQ(live.open_snapshot(path).code(),
            util::ErrorCode::kFailedPrecondition);
  EXPECT_EQ(live.user_count(), 1u);
  std::remove(path.c_str());
}

// ------------------------------------------------ format pin, failed opens

/// Imports every user's history and serves a few probes, so each user
/// holds a profile, a frozen candidate set and pending check-ins.
template <typename Edge>
void populate(Edge& edge, int users) {
  for (int u = 1; u <= users; ++u) {
    edge.import_history(u, history_for(u));
    for (const trace::CheckIn& c : probe_stream(u, 4)) {
      (void)edge.serve(u, c.position, c.time);
    }
  }
}

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// Pins the on-disk format: any change to the section layout, or to the
// state a box serializes, moves this digest of a seeded 3-shard snapshot.
// A deliberate format change bumps snapshot::kFormatVersion with it.
TEST(Snapshot, FormatGolden) {
  constexpr std::uint64_t kGoldenDigest = 0x81371025dfb3d411ULL;
  const std::string path = temp_path("golden.snap");
  core::ConcurrentEdge box(fast_config().with_seed(13).with_shards(3));
  populate(box, 24);
  ASSERT_TRUE(box.save_snapshot(path).ok());
  const std::vector<std::uint8_t> bytes = file_bytes(path);
  const std::uint64_t digest =
      core::snapshot::fnv1a64(bytes.data(), bytes.size());
  EXPECT_EQ(digest, kGoldenDigest) << std::hex << "0x" << digest;
  std::remove(path.c_str());
}

TEST(Snapshot, SaveOpenSaveIsByteIdentical) {
  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
    const std::string first = temp_path("resave_a.snap");
    const std::string second = temp_path("resave_b.snap");
    core::ConcurrentEdge saved(
        fast_config().with_seed(17).with_shards(shards));
    populate(saved, 24);
    ASSERT_TRUE(saved.save_snapshot(first).ok());
    core::ConcurrentEdge reopened(
        fast_config().with_seed(17).with_shards(shards));
    ASSERT_TRUE(reopened.open_snapshot(first).ok());
    ASSERT_TRUE(reopened.save_snapshot(second).ok());
    EXPECT_EQ(file_bytes(first), file_bytes(second))
        << "at " << shards << " shards";
    std::remove(first.c_str());
    std::remove(second.c_str());
  }
}

/// The columns of one arena section in snapshot order
/// (UserArena::for_each_column, then the custom params).
enum Column : std::size_t {
  kUserIds, kEngines, kWindowStart, kTotalCheckIns, kWinHead, kWinCount,
  kHasProfile, kProfBegin, kProfCount, kTopBegin, kTopCount, kEntBegin,
  kEntCount, kProfXs, kProfYs, kProfFreq, kTopIdx, kEntXs, kEntYs,
  kEntCandBegin, kEntCandCount, kCandXs, kCandYs, kWinXs, kWinYs, kWinTs,
  kWinPrev, kCustomRows, kCustomValues, kColumnCount
};
constexpr std::size_t kElementBytes[kColumnCount] = {
    8, sizeof(rng::Engine), 8, 8, 4, 4, 1, 8, 4, 8, 4, 8, 4, 8, 8,
    8, 4, 8, 8, 8, 4, 8, 8, 8, 8, 8, 4, 4, sizeof(lppm::BoundedGeoIndParams)};

struct RawColumn {
  std::uint64_t count = 0;          ///< the count word as stored
  std::vector<std::uint8_t> bytes;  ///< the elements, padding dropped
};

struct RawSection {
  std::uint64_t tag = 0;
  std::vector<RawColumn> columns;

  template <typename T>
  std::vector<T> get(Column c) const {
    EXPECT_EQ(sizeof(T), kElementBytes[c]);
    std::vector<T> values(columns[c].bytes.size() / sizeof(T));
    std::memcpy(values.data(), columns[c].bytes.data(),
                columns[c].bytes.size());
    return values;
  }
  template <typename T>
  void set(Column c, const std::vector<T>& values) {
    EXPECT_EQ(sizeof(T), kElementBytes[c]);
    columns[c].count = values.size();
    columns[c].bytes.resize(values.size() * sizeof(T));
    std::memcpy(columns[c].bytes.data(), values.data(),
                columns[c].bytes.size());
  }
};

/// A snapshot file split into header, sections and trailing payload
/// bytes, so a test can damage one field and write the file back with a
/// payload size and checksum that still verify: the damage then reaches
/// the structural checks instead of stopping at the checksum.
struct RawSnapshot {
  std::vector<std::uint8_t> header;
  std::vector<RawSection> sections;
  std::vector<std::uint8_t> trailing;

  static RawSnapshot read(const std::string& path) {
    const std::vector<std::uint8_t> file = file_bytes(path);
    RawSnapshot raw;
    std::size_t at = core::snapshot::kHeaderBytes;
    raw.header.assign(file.begin(), file.begin() + at);
    std::uint32_t shards = 0;
    std::memcpy(&shards, file.data() + 16, 4);
    const auto u64_at = [&](std::size_t off) {
      std::uint64_t v = 0;
      std::memcpy(&v, file.data() + off, 8);
      return v;
    };
    for (std::uint32_t s = 0; s < shards; ++s) {
      RawSection& section = raw.sections.emplace_back();
      section.tag = u64_at(at);
      at += 8;
      for (std::size_t c = 0; c < kColumnCount; ++c) {
        RawColumn& column = section.columns.emplace_back();
        column.count = u64_at(at);
        at += 8;
        const std::size_t n = column.count * kElementBytes[c];
        column.bytes.assign(file.begin() + at, file.begin() + at + n);
        at = (at + n + 7) & ~std::size_t{7};
      }
    }
    raw.trailing.assign(file.begin() + at, file.end());
    return raw;
  }

  void write(const std::string& path) const {
    std::vector<std::uint8_t> payload;
    const auto put = [&](const void* data, std::size_t n) {
      const auto* bytes = static_cast<const std::uint8_t*>(data);
      payload.insert(payload.end(), bytes, bytes + n);
    };
    for (const RawSection& section : sections) {
      put(&section.tag, 8);
      for (const RawColumn& column : section.columns) {
        put(&column.count, 8);
        put(column.bytes.data(), column.bytes.size());
        payload.resize((payload.size() + 7) & ~std::size_t{7});
      }
    }
    put(trailing.data(), trailing.size());
    std::vector<std::uint8_t> file = header;
    const std::uint64_t payload_bytes = payload.size();
    const std::uint64_t checksum =
        core::snapshot::fnv1a64(payload.data(), payload.size());
    std::memcpy(file.data() + 24, &payload_bytes, 8);
    std::memcpy(file.data() + 32, &checksum, 8);
    file.insert(file.end(), payload.begin(), payload.end());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(file.data()),
              static_cast<std::streamsize>(file.size()));
  }
};

// Regression: the loader used to parse straight into the live arena, so a
// section that failed a structural check left the device half-loaded with
// row scalars of mismatched lengths (the next serve() of a new user read
// past one of them), and a ConcurrentEdge kept every shard before the
// failing one. An open now parses everything before it commits anything.
TEST(Snapshot, FailedOpenLeavesTargetEmpty) {
  const std::string good = temp_path("failed_open_good.snap");
  const std::string bad = temp_path("failed_open_bad.snap");

  // The engines column's count word zeroed, its bytes kept: every later
  // column of the section is then read out of frame.
  core::EdgeDevice saved(fast_config().with_seed(6));
  populate(saved, 5);
  ASSERT_TRUE(saved.save_snapshot(good).ok());
  RawSnapshot raw = RawSnapshot::read(good);
  raw.sections[0].columns[kEngines].count = 0;
  raw.write(bad);
  core::EdgeDevice device(fast_config().with_seed(6));
  EXPECT_EQ(device.open_snapshot(bad).code(), util::ErrorCode::kParseError);
  EXPECT_EQ(device.user_count(), 0u);
  ASSERT_TRUE(device.open_snapshot(good).ok());
  EXPECT_EQ(device.user_count(), 5u);
  EXPECT_TRUE(device.serve(99, {0.0, 0.0}, trace::kStudyStart).released());

  // The same damage in the last of three shard sections: the good open
  // that follows succeeds only if every shard is still empty.
  core::ConcurrentEdge box_saved(fast_config().with_seed(6).with_shards(3));
  populate(box_saved, 12);
  ASSERT_TRUE(box_saved.save_snapshot(good).ok());
  raw = RawSnapshot::read(good);
  raw.sections.back().columns[kEngines].count = 0;
  raw.write(bad);
  core::ConcurrentEdge box(fast_config().with_seed(6).with_shards(3));
  EXPECT_EQ(box.open_snapshot(bad).code(), util::ErrorCode::kParseError);
  EXPECT_TRUE(box.open_snapshot(good).ok());
  std::remove(good.c_str());
  std::remove(bad.c_str());
}

// Checksum-valid structural damage, one field at a time: every case is a
// typed kParseError, and the target is still empty afterwards.
TEST(Snapshot, StructuralDamageIsATypedParseError) {
  struct Case {
    const char* name;
    std::function<void(RawSnapshot&)> damage;  ///< applied to the last section
  };
  const std::vector<Case> cases = {
      {"bad section tag",
       [](RawSnapshot& raw) { raw.sections.back().tag ^= 1; }},
      {"row-scalar count mismatch",
       [](RawSnapshot& raw) {
         RawSection& s = raw.sections.back();
         std::vector<std::uint32_t> counts = s.get<std::uint32_t>(kWinCount);
         counts.pop_back();
         s.set(kWinCount, counts);
       }},
      {"parallel-column length mismatch",
       [](RawSnapshot& raw) {
         RawSection& s = raw.sections.back();
         std::vector<double> ys = s.get<double>(kProfYs);
         ys.pop_back();
         s.set(kProfYs, ys);
       }},
      {"row range overrunning a frozen column",
       [](RawSnapshot& raw) {
         RawSection& s = raw.sections.back();
         std::vector<std::uint32_t> counts = s.get<std::uint32_t>(kProfCount);
         counts[0] += static_cast<std::uint32_t>(s.columns[kProfXs].count);
         s.set(kProfCount, counts);
       }},
      {"row range wrapping around the column end",
       [](RawSnapshot& raw) {
         RawSection& s = raw.sections.back();
         std::vector<std::uint64_t> begins = s.get<std::uint64_t>(kProfBegin);
         begins[0] = ~std::uint64_t{0};
         s.set(kProfBegin, begins);
       }},
      {"top index outside the profile",
       [](RawSnapshot& raw) {
         RawSection& s = raw.sections.back();
         std::vector<std::uint32_t> top = s.get<std::uint32_t>(kTopIdx);
         top[0] = 1u << 30;
         s.set(kTopIdx, top);
       }},
      {"window head outside the window",
       [](RawSnapshot& raw) {
         RawSection& s = raw.sections.back();
         std::vector<std::uint32_t> heads = s.get<std::uint32_t>(kWinHead);
         heads[0] = static_cast<std::uint32_t>(s.columns[kWinXs].count);
         s.set(kWinHead, heads);
       }},
      {"window chain longer than its count",
       [](RawSnapshot& raw) {
         RawSection& s = raw.sections.back();
         std::vector<std::uint32_t> counts = s.get<std::uint32_t>(kWinCount);
         counts[0] -= 1;
         s.set(kWinCount, counts);
       }},
      {"window counts past the window columns",
       [](RawSnapshot& raw) {
         RawSection& s = raw.sections.back();
         std::vector<std::uint32_t> counts = s.get<std::uint32_t>(kWinCount);
         counts[0] = 1u << 30;
         s.set(kWinCount, counts);
       }},
      {"empty candidate set",
       [](RawSnapshot& raw) {
         RawSection& s = raw.sections.back();
         std::vector<std::uint32_t> counts =
             s.get<std::uint32_t>(kEntCandCount);
         counts[0] = 0;
         s.set(kEntCandCount, counts);
       }},
      {"candidate range overrun",
       [](RawSnapshot& raw) {
         RawSection& s = raw.sections.back();
         std::vector<std::uint32_t> counts =
             s.get<std::uint32_t>(kEntCandCount);
         counts[0] = static_cast<std::uint32_t>(s.columns[kCandXs].count) + 1;
         s.set(kEntCandCount, counts);
       }},
      {"custom-params row out of range",
       [](RawSnapshot& raw) {
         RawSection& s = raw.sections.back();
         s.set(kCustomRows, std::vector<std::uint32_t>{1000});
         s.set(kCustomValues, std::vector<lppm::BoundedGeoIndParams>(1));
       }},
      {"custom params out of domain",
       [](RawSnapshot& raw) {
         RawSection& s = raw.sections.back();
         s.set(kCustomRows, std::vector<std::uint32_t>{0});
         s.set(kCustomValues, std::vector<lppm::BoundedGeoIndParams>{
                                  {.epsilon = -1.0}});
       }},
      {"column extent past the payload",
       [](RawSnapshot& raw) {
         raw.sections.back().columns[kCandXs].count = std::uint64_t{1} << 40;
       }},
      {"64 trailing bytes after the last section",
       [](RawSnapshot& raw) { raw.trailing.assign(64, 0); }},
  };

  const std::string device_good = temp_path("damage_device.snap");
  const std::string box_good = temp_path("damage_box.snap");
  const std::string bad = temp_path("damage_bad.snap");
  core::EdgeDevice device_saved(fast_config().with_seed(8));
  populate(device_saved, 6);
  ASSERT_TRUE(device_saved.save_snapshot(device_good).ok());
  core::ConcurrentEdge box_saved(fast_config().with_seed(8).with_shards(3));
  populate(box_saved, 12);
  ASSERT_TRUE(box_saved.save_snapshot(box_good).ok());

  // The surgery itself changes nothing when no field is damaged.
  RawSnapshot::read(box_good).write(bad);
  ASSERT_EQ(file_bytes(bad), file_bytes(box_good));

  for (const Case& c : cases) {
    RawSnapshot raw = RawSnapshot::read(device_good);
    c.damage(raw);
    raw.write(bad);
    core::EdgeDevice device(fast_config().with_seed(8));
    EXPECT_EQ(device.open_snapshot(bad).code(), util::ErrorCode::kParseError)
        << c.name;
    EXPECT_EQ(device.user_count(), 0u) << c.name;

    raw = RawSnapshot::read(box_good);
    c.damage(raw);
    raw.write(bad);
    core::ConcurrentEdge box(fast_config().with_seed(8).with_shards(3));
    EXPECT_EQ(box.open_snapshot(bad).code(), util::ErrorCode::kParseError)
        << c.name << " (3 shards)";
    EXPECT_TRUE(box.open_snapshot(box_good).ok()) << c.name << " (3 shards)";
  }
  std::remove(device_good.c_str());
  std::remove(box_good.c_str());
  std::remove(bad.c_str());
}

}  // namespace
}  // namespace privlocad
