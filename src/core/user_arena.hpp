// Columnar per-shard user storage: the million-user data plane.
//
// Holds every user's location-management state (paper Section V-B: the
// pending check-in window, the periodically rebuilt profile and its
// eta-frequent top-location set) and obfuscation table (Section V-C: the
// permanent candidate set of each top location) in one contiguous
// structure-of-arrays arena per shard:
//
//   * a compact open-addressing directory maps user id -> dense row;
//   * row scalars (RNG stream, window state, range descriptors) are
//     plain parallel vectors indexed by row;
//   * bulk payloads -- profile entries, top-location index sets,
//     obfuscation-table entries, candidate points, and the pending
//     check-in window -- live in shared append-only columns, each user
//     owning a contiguous [begin, begin+count) range.
//
// Mutation is log-structured: a profile rebuild or table-entry append
// writes a fresh contiguous range at the end of the column and orphans
// the old one; dead-element counters trigger compaction once garbage
// exceeds live data. Candidate coordinates are exposed as simd::PointSpan
// views, so posterior selection scores store-resident columns directly
// (no AoS->SoA scratch copy on the serve path).
//
// The whole arena serializes to the snapshot format (core/snapshot.hpp),
// one column per extent: opening reads each extent into its owned column
// and rebuilds the directory, and every range descriptor is checked
// against its column before the arena is used.
//
// Determinism: every user's randomness comes from a per-user engine
// derived as parent.split(user_id) at row creation. Serving outputs for
// a user therefore depend only on (config seed, user id, that user's
// request stream) -- not on shard count, co-resident users, or arrival
// interleaving -- which is what makes 1/2/8-shard runs and
// snapshot-reopened runs bit-identical.
#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "attack/profile.hpp"
#include "geo/point.hpp"
#include "lppm/mechanism.hpp"
#include "lppm/privacy_params.hpp"
#include "rng/engine.hpp"
#include "simd/soa.hpp"
#include "trace/check_in.hpp"
#include "util/status.hpp"

namespace privlocad::core {

struct LocationManagementConfig {
  /// Profile rebuild period. The paper's prototype uses three months.
  trace::Timestamp window_seconds = 90 * trace::kSecondsPerDay;

  /// Connectivity threshold for profiling (meters).
  double profiling_threshold_m = attack::kDefaultProfilingThresholdM;

  /// Fraction of activity the eta-frequent set must cover.
  double eta_fraction = 0.8;

  /// Ignore locations visited fewer than this many times even when the
  /// eta prefix would include them (guards against one-off spikes in
  /// sparse windows).
  std::uint64_t min_top_frequency = 2;

  /// A window boundary only triggers a rebuild once this many check-ins
  /// accumulated; sparser windows keep accumulating (and the previous
  /// top-location set keeps serving). Without this guard a single
  /// check-in straddling a boundary would replace a rich profile with a
  /// near-empty one and silently drop every top location.
  std::size_t min_window_check_ins = 10;
};

namespace snapshot {
class Writer;
class Reader;
}  // namespace snapshot

/// The per-shard columnar store behind EdgeDevice. Row handles are dense
/// indices valid for the arena's lifetime (rows are never deleted);
/// pointers/spans into columns are invalidated by any mutating call.
class UserArena {
 public:
  using Row = std::uint32_t;
  static constexpr Row kNoRow = 0xFFFFFFFFu;

  /// `parent` seeds every per-user stream: row creation derives the
  /// user's engine as parent.split(user_id).
  explicit UserArena(rng::Engine parent);

  // ------------------------------------------------------------- directory
  std::size_t size() const { return user_ids_.size(); }
  Row find(std::uint64_t user_id) const;
  Row find_or_create(std::uint64_t user_id);
  std::uint64_t user_id(Row row) const { return user_ids_[row]; }
  rng::Engine& engine(Row row) { return engines_[row]; }

  // ---------------------------------------- location management (window)
  /// Records one raw check-in: starts/advances the window, rebuilds the
  /// profile and top-location set from the completed window when a
  /// boundary with enough check-ins is crossed, then appends the check-in
  /// to the window tail. Returns true on rebuild.
  bool record(Row row, geo::Point position, trace::Timestamp time,
              const LocationManagementConfig& config);

  /// Forced rebuild from the pending window (e.g. after a bulk history
  /// import); keeps the previous profile when the window is empty.
  void rebuild_now(Row row, const LocationManagementConfig& config);

  std::size_t pending_check_ins(Row row) const { return win_count_[row]; }
  std::uint64_t total_check_ins(Row row) const {
    return total_check_ins_[row];
  }

  // --------------------------------------------------- profile + top set
  bool has_profile(Row row) const { return has_profile_[row] != 0; }
  std::size_t profile_size(Row row) const { return prof_count_[row]; }
  attack::ProfileEntry profile_entry(Row row, std::size_t i) const;
  /// Materializes the row's profile (risk path, not serving).
  attack::LocationProfile profile_of(Row row) const;

  std::size_t top_size(Row row) const { return top_count_[row]; }
  /// The i-th top location (a copy of the referenced profile entry).
  attack::ProfileEntry top_entry(Row row, std::size_t i) const;
  /// Profile-relative index of the i-th top location.
  std::uint32_t top_index(Row row, std::size_t i) const;

  /// Index of the nearest top location within `radius_m` of `location`,
  /// or -1. Ties resolve to the later entry.
  std::int64_t matching_top(Row row, geo::Point location,
                            double radius_m) const;

  // ------------------------------------------------- obfuscation entries
  std::size_t entry_count(Row row) const { return ent_count_[row]; }
  /// SoA view of entry i's frozen candidate set -- the span the posterior
  /// selection kernel scores directly.
  simd::PointSpan entry_candidates(Row row, std::size_t i) const;

  /// Index of the entry whose top location lies within `radius_m` of
  /// `location`, or -1. Top locations are re-derived each window, so
  /// their centroids drift; a match by proximity reuses the entry.
  /// Insertion-order scan, ties to the later entry.
  std::int64_t find_entry(Row row, geo::Point location,
                          double radius_m) const;

  /// Appends a new entry for `top`, generating its permanent candidates
  /// in one batched release of `mechanism` on `engine`. Returns the new
  /// entry's index.
  std::size_t add_entry(Row row, geo::Point top,
                        const lppm::Mechanism& mechanism, rng::Engine& engine);

  // ------------------------------------------------- personalized privacy
  void set_custom_params(Row row, lppm::BoundedGeoIndParams params) {
    custom_params_[row] = params;
  }
  const lppm::BoundedGeoIndParams* custom_params(Row row) const {
    const auto it = custom_params_.find(row);
    return it == custom_params_.end() ? nullptr : &it->second;
  }
  const std::unordered_map<Row, lppm::BoundedGeoIndParams>&
  all_custom_params() const {
    return custom_params_;
  }

  // ------------------------------------------------ maintenance / memory
  /// Rewrites every column dense (drops orphaned ranges). Called automatically once garbage exceeds live
  /// data, and by save() so snapshots serialize dense.
  void compact();

  // ------------------------------------------------------------ snapshots
  /// Writes this arena as one snapshot section (compacts first).
  void save(snapshot::Writer& writer);

  /// Loads one snapshot section into this (empty) arena. Returns
  /// kParseError on structural damage, after which the arena holds
  /// partial state and must be discarded.
  util::Status load(snapshot::Reader& reader);

 private:
  static constexpr std::uint32_t kNoIndex = 0xFFFFFFFFu;
  /// window_start sentinel: no window open yet. INT64_MIN is not a
  /// representable check-in time.
  static constexpr std::int64_t kNoWindowStart =
      std::numeric_limits<std::int64_t>::min();

  void grow_directory(std::size_t min_rows);
  void insert_into_directory(Row row);
  /// Collects the pending window chronologically into scratch_points_.
  void gather_window(Row row);
  void clear_window(Row row);
  /// Installs freshly built profile entries; the top set is the first
  /// `top_prefix` profile entries (eta prefix after the min-frequency
  /// suffix filter).
  void set_rebuilt_profile(Row row,
                           const std::vector<attack::ProfileEntry>& entries,
                           std::size_t top_prefix);
  void append_entry(Row row, geo::Point top, std::uint64_t cand_begin,
                    std::uint32_t cand_count);
  void maybe_compact();
  void compact_frozen();
  /// Calls `f` on every serialized column in snapshot order (the custom
  /// params follow them); save and load share it so they cannot disagree
  /// on the layout.
  template <typename F>
  void for_each_column(F&& f);
  void compact_window();

  rng::Engine parent_;

  // Directory: open addressing, power-of-two capacity, linear probing.
  std::vector<Row> directory_;
  std::uint64_t directory_mask_ = 0;

  // Row scalars (dense, one element per user).
  std::vector<std::uint64_t> user_ids_;
  std::vector<rng::Engine> engines_;
  std::vector<std::int64_t> window_start_;
  std::vector<std::uint64_t> total_check_ins_;
  std::vector<std::uint32_t> win_head_;
  std::vector<std::uint32_t> win_count_;
  std::vector<std::uint8_t> has_profile_;
  std::vector<std::uint64_t> prof_begin_;
  std::vector<std::uint32_t> prof_count_;
  std::vector<std::uint64_t> top_begin_;
  std::vector<std::uint32_t> top_count_;
  std::vector<std::uint64_t> ent_begin_;
  std::vector<std::uint32_t> ent_count_;

  // Frozen columnar arenas (append-only ranges, copy-forward on update).
  std::vector<double> prof_xs_, prof_ys_;
  std::vector<std::uint64_t> prof_freq_;
  std::vector<std::uint32_t> top_idx_;
  std::vector<double> ent_xs_, ent_ys_;
  std::vector<std::uint64_t> ent_cand_begin_;
  std::vector<std::uint32_t> ent_cand_count_;
  std::vector<double> cand_xs_, cand_ys_;

  // Pending-window tail: per-record columns chained newest-first through
  // win_prev_ (win_head_[row] is the newest record's index). No per-user
  // vectors: appends from any user interleave in the shared columns.
  std::vector<double> win_xs_, win_ys_;
  std::vector<std::int64_t> win_ts_;
  std::vector<std::uint32_t> win_prev_;

  std::unordered_map<Row, lppm::BoundedGeoIndParams> custom_params_;

  // Orphaned-element tallies driving compaction.
  std::uint64_t prof_dead_ = 0;
  std::uint64_t top_dead_ = 0;
  std::uint64_t ent_dead_ = 0;
  std::uint64_t win_dead_ = 0;

  // Reused scratch (window gather, candidate generation, profile
  // rebuild); the shard's lock covers them with the rest of the arena.
  std::vector<geo::Point> scratch_points_;
  attack::ProfileWorkspace profile_workspace_;
};

}  // namespace privlocad::core
