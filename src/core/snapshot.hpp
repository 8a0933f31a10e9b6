// Versioned snapshot format for the columnar data plane.
//
// A snapshot is one file holding the full user-arena state of an edge
// (one section per shard). Every column is written as a contiguous
// 8-byte-aligned extent, so opening a snapshot is two streaming passes
// over the file -- checksum, then one copy of each extent into an owned
// column -- plus a directory rebuild, never a text parse: a 1M-user
// population loads in fractions of a second.
//
// File layout (all integers little-endian, host == file endianness is
// enforced by the endian tag):
//
//   [64-byte header]
//     u64 magic      "PLADSNAP"
//     u32 version    kFormatVersion
//     u32 endian     kEndianTag (0x01020304 as written by the host)
//     u32 shards     section count
//     u32 reserved   0
//     u64 payload    payload byte count (file size - header size)
//     u64 checksum   FNV-1a 64 over the payload bytes
//     (zero padding to 64 bytes)
//   [payload: `shards` back-to-back arena sections]
//
// Each section is a fixed sequence of scalars and columns (see
// user_arena.cpp); a column is `u64 count` followed by `count` raw
// elements padded to the next 8-byte boundary. Corruption anywhere --
// bad magic, version, endianness, truncation, checksum mismatch, bytes
// past the last section -- is reported as a typed util::Status
// (kParseError / kIoError), never a crash: per the fail-private contract
// a damaged snapshot must fail loudly at startup, not silently
// regenerate fresh noise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "util/status.hpp"

namespace privlocad::core::snapshot {

/// "PLADSNAP" read as a little-endian u64.
inline constexpr std::uint64_t kMagic = 0x50414E5344414C50ULL;
inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::uint32_t kEndianTag = 0x01020304;
inline constexpr std::size_t kHeaderBytes = 64;

/// FNV-1a 64 over `n` bytes, chained through `state` so the writer can
/// checksum streaming output without buffering the payload.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xCBF29CE484222325ULL;
std::uint64_t fnv1a64(const void* data, std::size_t n,
                      std::uint64_t state = kFnvOffsetBasis);

/// Streams one snapshot file: header placeholder first, then payload
/// writes that accumulate the running checksum, then finish() patches the
/// real header in place. Errors latch: after the first failure every
/// write is a no-op and finish() returns the latched status.
///
/// Crash safety: the stream goes to `path + ".tmp"`, and finish() only
/// renames it over `path` after the data has been fsync'ed -- so a crash
/// (or an abandoned Writer) at ANY point leaves either the old complete
/// file or no file at the final path, never a truncated hybrid. The
/// rename is followed by an fsync of the containing directory so the new
/// directory entry itself is durable. All I/O is raw-fd with EINTR and
/// short-write retry loops, and every ::close on this write path is
/// checked -- a close error is a late write error and fails the save.
class Writer {
 public:
  Writer(const std::string& path, std::uint32_t shard_count);
  ~Writer();
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void write_u64(std::uint64_t value);

  /// One column: u64 count, `count` raw elements, zero padding to the
  /// next 8-byte boundary.
  template <typename T>
  void write_column(const T* data, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "snapshot columns hold raw trivially-copyable elements");
    write_u64(count);
    write_bytes(data, count * sizeof(T));
    pad_to_alignment();
  }
  template <typename T>
  void write_column(const std::vector<T>& column) {
    write_column(column.data(), column.size());
  }

  /// Patches the header with the final payload size + checksum, fsyncs,
  /// and atomically renames the temp file over the target path. Returns
  /// the first error hit anywhere, if any; on error the temp file is
  /// unlinked and the target path is left untouched.
  util::Status finish();

  const util::Status& status() const { return status_; }

 private:
  void write_bytes(const void* data, std::size_t n);
  void pad_to_alignment();
  /// Drains the in-memory buffer to the temp fd (EINTR/short-write safe).
  void flush_buffer();
  /// Closes the temp fd (checked) and unlinks the temp file; used by the
  /// error paths and the abandoning destructor.
  void discard();

  int fd_ = -1;
  std::string path_;
  std::string tmp_path_;
  std::vector<std::uint8_t> buffer_;
  std::uint32_t shard_count_ = 0;
  std::uint64_t payload_bytes_ = 0;
  std::uint64_t checksum_ = kFnvOffsetBasis;
  bool finished_ = false;
  util::Status status_;
};

/// Streams one snapshot file back in: the constructor opens `path` and
/// makes a first pass over it that checks the header (magic, version,
/// endianness, payload size) and the payload checksum, so no structural
/// check ever sees unverified bytes; the reads then make the second pass,
/// copying each column into an owned vector through one fixed buffer.
/// Errors latch like the Writer's: after the first failure every read is
/// a no-op and status() holds the failure -- kIoError when the file cannot
/// be read, kParseError for any damage (truncation, bad header, checksum
/// mismatch, a column extent past the payload, trailing bytes).
class Reader {
 public:
  explicit Reader(const std::string& path);
  ~Reader();
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  /// Section count from the header (0 when the open failed).
  std::uint32_t shard_count() const { return shard_count_; }

  /// Leaves `out` untouched once an error has latched.
  void read_u64(std::uint64_t& out) { read_bytes(&out, sizeof(out)); }

  /// One column as the Writer lays it out. The count is bounded by the
  /// payload bytes left before anything is allocated.
  template <typename T>
  void read_column(std::vector<T>& out) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "snapshot columns hold raw trivially-copyable elements");
    std::uint64_t count = 0;
    read_u64(count);
    if (!status_.ok()) return;
    if (count > (payload_bytes_ - consumed_) / sizeof(T)) {
      fail("snapshot column extent overruns the payload");
      return;
    }
    out.resize(count);
    read_bytes(out.data(), count * sizeof(T));
    skip_padding();
  }

  /// The status after the last section: kParseError when payload bytes
  /// remain unread.
  util::Status finish();

  const util::Status& status() const { return status_; }

 private:
  void read_bytes(void* out, std::size_t n);
  void skip_padding();
  /// Reads up to `n` bytes at the file cursor; fewer only at end of file
  /// or after an I/O error, which it latches.
  std::size_t read_file(void* out, std::size_t n);
  /// Header and checksum pass; rewinds to the first section on success.
  void validate();
  void fail(const std::string& what);

  int fd_ = -1;
  std::string path_;
  std::vector<std::uint8_t> buffer_;
  std::size_t buffer_pos_ = 0;
  std::size_t buffer_end_ = 0;
  std::uint32_t shard_count_ = 0;
  std::uint64_t payload_bytes_ = 0;
  std::uint64_t consumed_ = 0;
  util::Status status_;
};

}  // namespace privlocad::core::snapshot
