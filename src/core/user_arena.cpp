#include "core/user_arena.hpp"

#include <algorithm>
#include <cassert>

#include "core/eta_frequent.hpp"
#include "core/snapshot.hpp"
#include "util/validation.hpp"

namespace privlocad::core {

namespace {

// The snapshot serializes engines as raw bytes; the format (and the
// split-stream determinism story) depends on this staying a small POD.
static_assert(std::is_trivially_copyable_v<rng::Engine>,
              "rng::Engine must serialize as raw bytes");
static_assert(std::is_trivially_copyable_v<lppm::BoundedGeoIndParams>,
              "custom privacy params must serialize as raw bytes");

/// Marks the start of one arena section inside a snapshot payload
/// ("USERARNA" little-endian) -- a cheap misalignment tripwire when a
/// future format revision changes the section sequence.
constexpr std::uint64_t kSectionTag = 0x414E52415245'5355ULL;

std::uint64_t next_pow2(std::uint64_t v) {
  std::uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

std::uint64_t hash_user(std::uint64_t user_id) {
  return user_id * 0x9E3779B97F4A7C15ULL;
}

}  // namespace

UserArena::UserArena(rng::Engine parent) : parent_(parent) {}

// ----------------------------------------------------------------- directory

UserArena::Row UserArena::find(std::uint64_t user_id) const {
  if (directory_.empty()) return kNoRow;
  std::uint64_t slot = hash_user(user_id) & directory_mask_;
  while (true) {
    const Row row = directory_[slot];
    if (row == kNoRow) return kNoRow;
    if (user_ids_[row] == user_id) return row;
    slot = (slot + 1) & directory_mask_;
  }
}

void UserArena::insert_into_directory(Row row) {
  std::uint64_t slot = hash_user(user_ids_[row]) & directory_mask_;
  while (directory_[slot] != kNoRow) slot = (slot + 1) & directory_mask_;
  directory_[slot] = row;
}

void UserArena::grow_directory(std::size_t min_rows) {
  // Keep load factor <= 0.5 so linear probes stay short.
  const std::uint64_t capacity =
      next_pow2(std::max<std::uint64_t>(16, 2 * min_rows));
  directory_.assign(capacity, kNoRow);
  directory_mask_ = capacity - 1;
  for (Row row = 0; row < user_ids_.size(); ++row) {
    insert_into_directory(row);
  }
}

UserArena::Row UserArena::find_or_create(std::uint64_t user_id) {
  const Row existing = find(user_id);
  if (existing != kNoRow) return existing;
  if (2 * (user_ids_.size() + 1) > directory_.size()) {
    grow_directory(user_ids_.size() + 1);
  }
  const Row row = static_cast<Row>(user_ids_.size());
  user_ids_.push_back(user_id);
  engines_.push_back(parent_.split(user_id));
  window_start_.push_back(kNoWindowStart);
  total_check_ins_.push_back(0);
  win_head_.push_back(kNoIndex);
  win_count_.push_back(0);
  has_profile_.push_back(0);
  prof_begin_.push_back(0);
  prof_count_.push_back(0);
  top_begin_.push_back(0);
  top_count_.push_back(0);
  ent_begin_.push_back(0);
  ent_count_.push_back(0);
  insert_into_directory(row);
  return row;
}

// ------------------------------------------------------- window / management

bool UserArena::record(Row row, geo::Point position, trace::Timestamp time,
                       const LocationManagementConfig& config) {
  bool rebuilt = false;
  if (window_start_[row] == kNoWindowStart) {
    window_start_[row] = time;
  } else if (time - window_start_[row] >= config.window_seconds &&
             win_count_[row] >= config.min_window_check_ins) {
    rebuild_now(row, config);
    window_start_[row] = time;
    rebuilt = true;
  }
  const auto index = static_cast<std::uint32_t>(win_xs_.size());
  win_xs_.push_back(position.x);
  win_ys_.push_back(position.y);
  win_ts_.push_back(time);
  win_prev_.push_back(win_head_[row]);
  win_head_[row] = index;
  ++win_count_[row];
  ++total_check_ins_[row];
  return rebuilt;
}

void UserArena::gather_window(Row row) {
  scratch_points_.resize(win_count_[row]);
  // The chain links newest-first; fill back-to-front so the scratch is
  // chronological (profiles are built in check-in order).
  std::size_t out = win_count_[row];
  for (std::uint32_t i = win_head_[row]; i != kNoIndex; i = win_prev_[i]) {
    scratch_points_[--out] = {win_xs_[i], win_ys_[i]};
  }
  assert(out == 0 && "window chain shorter than its count");
}

void UserArena::clear_window(Row row) {
  win_dead_ += win_count_[row];
  win_head_[row] = kNoIndex;
  win_count_[row] = 0;
}

void UserArena::rebuild_now(Row row, const LocationManagementConfig& config) {
  // The window restarts at the next recorded check-in: a bulk import
  // followed by live traffic must not immediately rebuild from a
  // nearly-empty window and wipe the top-location set.
  window_start_[row] = kNoWindowStart;
  if (win_count_[row] == 0) return;
  gather_window(row);
  const std::vector<attack::ProfileEntry>& entries = attack::build_profile(
      scratch_points_, config.profiling_threshold_m, profile_workspace_);
  // The eta set is a prefix of the frequency-ordered profile, and the
  // min-frequency filter removes a suffix of that prefix, so the top set
  // is exactly the first `top` profile entries.
  std::size_t top = eta_frequent_prefix(entries, config.eta_fraction);
  while (top > 0 && entries[top - 1].frequency < config.min_top_frequency) {
    --top;
  }
  set_rebuilt_profile(row, entries, top);
  clear_window(row);
  maybe_compact();
}

void UserArena::set_rebuilt_profile(
    Row row, const std::vector<attack::ProfileEntry>& entries,
    std::size_t top_prefix) {
  prof_dead_ += prof_count_[row];
  top_dead_ += top_count_[row];
  prof_begin_[row] = prof_xs_.size();
  prof_count_[row] = static_cast<std::uint32_t>(entries.size());
  for (const attack::ProfileEntry& e : entries) {
    prof_xs_.push_back(e.location.x);
    prof_ys_.push_back(e.location.y);
    prof_freq_.push_back(e.frequency);
  }
  top_begin_[row] = top_idx_.size();
  top_count_[row] = static_cast<std::uint32_t>(top_prefix);
  for (std::size_t i = 0; i < top_prefix; ++i) {
    top_idx_.push_back(static_cast<std::uint32_t>(i));
  }
  has_profile_[row] = 1;
}

attack::ProfileEntry UserArena::profile_entry(Row row, std::size_t i) const {
  assert(i < prof_count_[row]);
  const std::size_t at = prof_begin_[row] + i;
  return {{prof_xs_[at], prof_ys_[at]}, prof_freq_[at]};
}

attack::LocationProfile UserArena::profile_of(Row row) const {
  std::vector<attack::ProfileEntry> entries;
  entries.reserve(prof_count_[row]);
  for (std::size_t i = 0; i < prof_count_[row]; ++i) {
    entries.push_back(profile_entry(row, i));
  }
  return attack::LocationProfile(std::move(entries));
}

std::uint32_t UserArena::top_index(Row row, std::size_t i) const {
  assert(i < top_count_[row]);
  return top_idx_[top_begin_[row] + i];
}

attack::ProfileEntry UserArena::top_entry(Row row, std::size_t i) const {
  return profile_entry(row, top_index(row, i));
}

std::int64_t UserArena::matching_top(Row row, geo::Point location,
                                     double radius_m) const {
  std::int64_t best = -1;
  double best_distance = radius_m;
  const std::uint32_t count = top_count_[row];
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t at = prof_begin_[row] + top_idx_[top_begin_[row] + i];
    const double d =
        geo::distance({prof_xs_[at], prof_ys_[at]}, location);
    if (d <= best_distance) {
      best = i;
      best_distance = d;
    }
  }
  return best;
}

// --------------------------------------------------------- table entries

simd::PointSpan UserArena::entry_candidates(Row row, std::size_t i) const {
  assert(i < ent_count_[row]);
  const std::size_t at = ent_begin_[row] + i;
  const std::uint64_t begin = ent_cand_begin_[at];
  const std::uint32_t count = ent_cand_count_[at];
  return {cand_xs_.data() + begin, cand_ys_.data() + begin, count};
}

std::int64_t UserArena::find_entry(Row row, geo::Point location,
                                   double radius_m) const {
  std::int64_t best = -1;
  double best_distance = radius_m;
  const std::uint32_t count = ent_count_[row];
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t at = ent_begin_[row] + i;
    const double d = geo::distance({ent_xs_[at], ent_ys_[at]}, location);
    if (d <= best_distance) {
      best = i;
      best_distance = d;
    }
  }
  return best;
}

void UserArena::append_entry(Row row, geo::Point top,
                             std::uint64_t cand_begin,
                             std::uint32_t cand_count) {
  const std::uint32_t count = ent_count_[row];
  const std::uint64_t begin = ent_begin_[row];
  if (count > 0 && begin + count != ent_xs_.size()) {
    // Copy-forward: the row's entries are not at the column end, so move
    // them there (insertion order preserved) and orphan the old range.
    // Candidate ranges travel by reference -- candidate data is immutable
    // and never orphaned.
    const std::uint64_t moved = ent_xs_.size();
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::size_t at = begin + i;
      ent_xs_.push_back(ent_xs_[at]);
      ent_ys_.push_back(ent_ys_[at]);
      ent_cand_begin_.push_back(ent_cand_begin_[at]);
      ent_cand_count_.push_back(ent_cand_count_[at]);
    }
    ent_dead_ += count;
    ent_begin_[row] = moved;
  } else if (count == 0) {
    ent_begin_[row] = ent_xs_.size();
  }
  ent_xs_.push_back(top.x);
  ent_ys_.push_back(top.y);
  ent_cand_begin_.push_back(cand_begin);
  ent_cand_count_.push_back(cand_count);
  ++ent_count_[row];
}

std::size_t UserArena::add_entry(Row row, geo::Point top,
                                 const lppm::Mechanism& mechanism,
                                 rng::Engine& engine) {
  // Candidates are generated in one batched mechanism release.
  scratch_points_.clear();
  mechanism.obfuscate_into(engine, top, scratch_points_);
  const std::uint64_t cand_begin = cand_xs_.size();
  for (const geo::Point p : scratch_points_) {
    cand_xs_.push_back(p.x);
    cand_ys_.push_back(p.y);
  }
  append_entry(row, top,
               cand_begin, static_cast<std::uint32_t>(scratch_points_.size()));
  maybe_compact();
  return ent_count_[row] - 1;
}

// -------------------------------------------------------------- compaction

namespace {
/// Compaction pays one full rewrite; only worth it past this floor.
constexpr std::uint64_t kMinDeadForCompaction = 4096;

bool garbage_dominates(std::uint64_t dead, std::uint64_t total) {
  return dead >= kMinDeadForCompaction && 2 * dead > total;
}
}  // namespace

void UserArena::maybe_compact() {
  if (garbage_dominates(prof_dead_, prof_xs_.size()) ||
      garbage_dominates(top_dead_, top_idx_.size()) ||
      garbage_dominates(ent_dead_, ent_xs_.size())) {
    compact_frozen();
  }
  if (garbage_dominates(win_dead_, win_xs_.size())) {
    compact_window();
  }
}

void UserArena::compact_frozen() {
  const std::size_t rows = user_ids_.size();
  std::vector<double> new_prof_xs, new_prof_ys, new_ent_xs, new_ent_ys,
      new_cand_xs, new_cand_ys;
  std::vector<std::uint64_t> new_prof_freq, new_cand_begin;
  std::vector<std::uint32_t> new_top_idx, new_cand_count;
  new_prof_xs.reserve(prof_xs_.size() - prof_dead_);
  new_prof_ys.reserve(prof_xs_.size() - prof_dead_);
  new_prof_freq.reserve(prof_xs_.size() - prof_dead_);
  new_top_idx.reserve(top_idx_.size() - top_dead_);
  new_ent_xs.reserve(ent_xs_.size() - ent_dead_);
  new_ent_ys.reserve(ent_xs_.size() - ent_dead_);
  new_cand_begin.reserve(ent_xs_.size() - ent_dead_);
  new_cand_count.reserve(ent_xs_.size() - ent_dead_);
  new_cand_xs.reserve(cand_xs_.size());
  new_cand_ys.reserve(cand_xs_.size());

  for (Row row = 0; row < rows; ++row) {
    {
      const std::uint64_t begin = prof_begin_[row];
      const std::uint32_t count = prof_count_[row];
      prof_begin_[row] = new_prof_xs.size();
      for (std::uint32_t i = 0; i < count; ++i) {
        new_prof_xs.push_back(prof_xs_[begin + i]);
        new_prof_ys.push_back(prof_ys_[begin + i]);
        new_prof_freq.push_back(prof_freq_[begin + i]);
      }
    }
    {
      const std::uint64_t begin = top_begin_[row];
      const std::uint32_t count = top_count_[row];
      top_begin_[row] = new_top_idx.size();
      for (std::uint32_t i = 0; i < count; ++i) {
        new_top_idx.push_back(top_idx_[begin + i]);
      }
    }
    {
      const std::uint64_t begin = ent_begin_[row];
      const std::uint32_t count = ent_count_[row];
      ent_begin_[row] = new_ent_xs.size();
      for (std::uint32_t i = 0; i < count; ++i) {
        const std::size_t at = begin + i;
        // Candidate data carries no garbage but is rewritten densely in
        // row-entry order so a following save() serializes it contiguous.
        const std::uint64_t cbegin = ent_cand_begin_[at];
        const std::uint32_t ccount = ent_cand_count_[at];
        new_ent_xs.push_back(ent_xs_[at]);
        new_ent_ys.push_back(ent_ys_[at]);
        new_cand_begin.push_back(new_cand_xs.size());
        new_cand_count.push_back(ccount);
        const double* cxs = cand_xs_.data() + cbegin;
        const double* cys = cand_ys_.data() + cbegin;
        new_cand_xs.insert(new_cand_xs.end(), cxs, cxs + ccount);
        new_cand_ys.insert(new_cand_ys.end(), cys, cys + ccount);
      }
    }
  }

  prof_xs_ = std::move(new_prof_xs);
  prof_ys_ = std::move(new_prof_ys);
  prof_freq_ = std::move(new_prof_freq);
  top_idx_ = std::move(new_top_idx);
  ent_xs_ = std::move(new_ent_xs);
  ent_ys_ = std::move(new_ent_ys);
  ent_cand_begin_ = std::move(new_cand_begin);
  ent_cand_count_ = std::move(new_cand_count);
  cand_xs_ = std::move(new_cand_xs);
  cand_ys_ = std::move(new_cand_ys);
  prof_dead_ = top_dead_ = ent_dead_ = 0;
}

void UserArena::compact_window() {
  const std::size_t rows = user_ids_.size();
  const std::size_t live = win_xs_.size() - win_dead_;
  std::vector<double> new_xs, new_ys;
  std::vector<std::int64_t> new_ts;
  std::vector<std::uint32_t> new_prev;
  new_xs.reserve(live);
  new_ys.reserve(live);
  new_ts.reserve(live);
  new_prev.reserve(live);
  std::vector<std::uint32_t> chain;
  for (Row row = 0; row < rows; ++row) {
    if (win_count_[row] == 0) continue;
    chain.clear();
    for (std::uint32_t i = win_head_[row]; i != kNoIndex; i = win_prev_[i]) {
      chain.push_back(i);
    }
    // chain is newest-first; rewrite the records chronologically with a
    // sequential back-chain so the user's window is contiguous.
    for (std::size_t k = chain.size(); k-- > 0;) {
      const std::uint32_t src = chain[k];
      new_prev.push_back(k + 1 == chain.size()
                             ? kNoIndex
                             : static_cast<std::uint32_t>(new_xs.size() - 1));
      new_xs.push_back(win_xs_[src]);
      new_ys.push_back(win_ys_[src]);
      new_ts.push_back(win_ts_[src]);
    }
    win_head_[row] = static_cast<std::uint32_t>(new_xs.size() - 1);
  }
  win_xs_ = std::move(new_xs);
  win_ys_ = std::move(new_ys);
  win_ts_ = std::move(new_ts);
  win_prev_ = std::move(new_prev);
  win_dead_ = 0;
}

void UserArena::compact() {
  compact_frozen();
  compact_window();
}

// --------------------------------------------------------------- snapshots

template <typename F>
void UserArena::for_each_column(F&& f) {
  f(user_ids_);
  f(engines_);
  f(window_start_);
  f(total_check_ins_);
  f(win_head_);
  f(win_count_);
  f(has_profile_);
  f(prof_begin_);
  f(prof_count_);
  f(top_begin_);
  f(top_count_);
  f(ent_begin_);
  f(ent_count_);
  f(prof_xs_);
  f(prof_ys_);
  f(prof_freq_);
  f(top_idx_);
  f(ent_xs_);
  f(ent_ys_);
  f(ent_cand_begin_);
  f(ent_cand_count_);
  f(cand_xs_);
  f(cand_ys_);
  f(win_xs_);
  f(win_ys_);
  f(win_ts_);
  f(win_prev_);
}

void UserArena::save(snapshot::Writer& writer) {
  compact();
  writer.write_u64(kSectionTag);
  for_each_column([&](const auto& column) { writer.write_column(column); });
  std::vector<Row> custom_rows;
  std::vector<lppm::BoundedGeoIndParams> custom_values;
  custom_rows.reserve(custom_params_.size());
  for (const auto& [row, params] : custom_params_) custom_rows.push_back(row);
  std::sort(custom_rows.begin(), custom_rows.end());
  custom_values.reserve(custom_rows.size());
  for (const Row row : custom_rows) {
    custom_values.push_back(custom_params_.at(row));
  }
  writer.write_column(custom_rows);
  writer.write_column(custom_values);
}

util::Status UserArena::load(snapshot::Reader& reader) {
  util::require(user_ids_.empty(),
                "cannot load a snapshot section into a non-empty arena");
  const auto parse = [](const std::string& what) {
    return util::Status::parse_error("snapshot arena section: " + what);
  };
  std::uint64_t tag = 0;
  reader.read_u64(tag);
  if (reader.status().ok() && tag != kSectionTag) {
    return parse("bad section tag");
  }
  for_each_column([&](auto& column) { reader.read_column(column); });
  std::vector<Row> custom_rows;
  std::vector<lppm::BoundedGeoIndParams> custom_values;
  reader.read_column(custom_rows);
  reader.read_column(custom_values);
  if (!reader.status().ok()) return reader.status();

  const std::size_t rows = user_ids_.size();
  const auto row_sized = [&](const auto& vec) { return vec.size() == rows; };
  if (!row_sized(engines_) || !row_sized(window_start_) ||
      !row_sized(total_check_ins_) || !row_sized(win_head_) ||
      !row_sized(win_count_) || !row_sized(has_profile_) ||
      !row_sized(prof_begin_) || !row_sized(prof_count_) ||
      !row_sized(top_begin_) || !row_sized(top_count_) ||
      !row_sized(ent_begin_) || !row_sized(ent_count_)) {
    return parse("row-scalar columns disagree on the row count");
  }
  if (prof_ys_.size() != prof_xs_.size() ||
      prof_freq_.size() != prof_xs_.size() ||
      ent_ys_.size() != ent_xs_.size() ||
      ent_cand_begin_.size() != ent_xs_.size() ||
      ent_cand_count_.size() != ent_xs_.size() ||
      cand_ys_.size() != cand_xs_.size() ||
      win_ys_.size() != win_xs_.size() ||
      win_ts_.size() != win_xs_.size() ||
      win_prev_.size() != win_xs_.size() ||
      custom_values.size() != custom_rows.size()) {
    return parse("parallel columns disagree on their lengths");
  }

  // Range validation: every descriptor must stay inside its column
  // (written so that a huge begin cannot wrap the sum around).
  const auto fits = [](std::uint64_t begin, std::uint64_t count,
                       std::size_t size) {
    return begin <= size && count <= size - begin;
  };
  std::uint64_t window_records = 0;
  for (std::size_t row = 0; row < rows; ++row) {
    if (!fits(prof_begin_[row], prof_count_[row], prof_xs_.size()) ||
        !fits(top_begin_[row], top_count_[row], top_idx_.size()) ||
        !fits(ent_begin_[row], ent_count_[row], ent_xs_.size())) {
      return parse("row range overruns a frozen column");
    }
    for (std::uint32_t i = 0; i < top_count_[row]; ++i) {
      if (top_idx_[top_begin_[row] + i] >= prof_count_[row]) {
        return parse("top index outside the row's profile");
      }
    }
    window_records += win_count_[row];
  }
  // Each pending window is a chain of exactly win_count_ records ending
  // in kNoIndex; the records of different rows are disjoint, which also
  // bounds the walk below by the window column length.
  if (window_records > win_xs_.size()) {
    return parse("window counts exceed the window columns");
  }
  for (std::size_t row = 0; row < rows; ++row) {
    std::uint32_t at = win_head_[row];
    for (std::uint32_t k = 0; k < win_count_[row]; ++k) {
      if (at >= win_xs_.size()) {
        return parse("window chain leaves the window columns");
      }
      at = win_prev_[at];
    }
    if (at != kNoIndex) return parse("window chain longer than its count");
  }
  for (std::size_t e = 0; e < ent_xs_.size(); ++e) {
    if (ent_cand_count_[e] == 0 ||
        !fits(ent_cand_begin_[e], ent_cand_count_[e], cand_xs_.size())) {
      return parse("candidate range empty or past the candidate column");
    }
  }
  for (std::size_t i = 0; i < custom_rows.size(); ++i) {
    if (custom_rows[i] >= rows) return parse("custom-params row out of range");
    try {
      custom_values[i].validate();
    } catch (const std::exception&) {
      return parse("custom privacy params out of domain");
    }
    custom_params_[custom_rows[i]] = custom_values[i];
  }

  grow_directory(rows);
  return util::Status();
}

}  // namespace privlocad::core
