#include "core/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace privlocad::core::snapshot {

namespace {

/// Both directions buffer this much per syscall: columns arrive as many
/// small u64/extent pieces, and a syscall per piece would dominate a
/// million-user save or open.
constexpr std::size_t kBufferBytes = 256 * 1024;

std::string errno_suffix() {
  return std::string(" (") + std::strerror(errno) + ")";
}

/// ::open with the EINTR retry loop POSIX allows it to need.
int open_retry(const char* path, int flags, mode_t mode = 0) {
  int fd = -1;
  do {
    fd = ::open(path, flags, mode);
  } while (fd < 0 && errno == EINTR);
  return fd;
}

/// Full-buffer ::write: retries EINTR and continues after short writes.
bool write_all(int fd, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t written = ::write(fd, bytes, n);
    if (written < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes += written;
    n -= static_cast<std::size_t>(written);
  }
  return true;
}

/// Full-buffer ::pwrite at `offset`, with the same retry discipline.
bool pwrite_all(int fd, const void* data, std::size_t n, off_t offset) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t written = ::pwrite(fd, bytes, n, offset);
    if (written < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes += written;
    n -= static_cast<std::size_t>(written);
    offset += written;
  }
  return true;
}

bool fsync_retry(int fd) {
  int rc = -1;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  return rc == 0;
}

/// One ::close, checked. On Linux the descriptor is released even when
/// close reports EINTR, so retrying would race a concurrent open; EINTR
/// therefore counts as released, any other error is reported.
bool close_checked(int fd) {
  const int rc = ::close(fd);
  return rc == 0 || errno == EINTR;
}

/// fsyncs the directory holding `path` so a just-renamed entry survives a
/// crash. Returns false only when the directory opened but would not sync.
bool fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = open_retry(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return true;  // e.g. search-only dir permissions: best effort
  const bool synced = fsync_retry(fd);
  close_checked(fd);  // read-only directory fd: nothing to lose on error
  return synced;
}

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t n, std::uint64_t state) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    state ^= bytes[i];
    state *= 0x100000001B3ULL;
  }
  return state;
}

// ------------------------------------------------------------------ Writer

Writer::Writer(const std::string& path, std::uint32_t shard_count)
    : path_(path), tmp_path_(path + ".tmp"), shard_count_(shard_count) {
  fd_ = open_retry(tmp_path_.c_str(),
                   O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    status_ = util::Status::io_error("cannot open snapshot temp file: " +
                                     tmp_path_ + errno_suffix());
    return;
  }
  buffer_.reserve(kBufferBytes);
  // Header placeholder; finish() patches the real one with pwrite.
  buffer_.assign(kHeaderBytes, 0);
}

Writer::~Writer() {
  // Abandoned mid-save (caller error path or crash-unwinding): the target
  // path is untouched by construction; drop the partial temp file.
  if (!finished_) discard();
}

void Writer::discard() {
  if (fd_ >= 0) {
    close_checked(fd_);
    fd_ = -1;
    ::unlink(tmp_path_.c_str());
  }
}

void Writer::flush_buffer() {
  if (!status_.ok() || buffer_.empty()) return;
  if (!write_all(fd_, buffer_.data(), buffer_.size())) {
    status_ = util::Status::io_error("cannot write snapshot: " + tmp_path_ +
                                     errno_suffix());
  }
  buffer_.clear();
}

void Writer::write_bytes(const void* data, std::size_t n) {
  if (!status_.ok() || n == 0) return;
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  buffer_.insert(buffer_.end(), bytes, bytes + n);
  if (buffer_.size() >= kBufferBytes) flush_buffer();
  if (!status_.ok()) return;
  checksum_ = fnv1a64(data, n, checksum_);
  payload_bytes_ += n;
}

void Writer::write_u64(std::uint64_t value) {
  write_bytes(&value, sizeof(value));
}

void Writer::pad_to_alignment() {
  static const char zeros[8] = {};
  const std::size_t rem = payload_bytes_ % 8;
  if (rem != 0) write_bytes(zeros, 8 - rem);
}

util::Status Writer::finish() {
  if (finished_) return status_;
  finished_ = true;
  flush_buffer();
  if (status_.ok()) {
    std::uint8_t header[kHeaderBytes] = {};
    std::size_t off = 0;
    const auto put = [&](const void* v, std::size_t n) {
      std::memcpy(header + off, v, n);
      off += n;
    };
    const std::uint64_t magic = kMagic;
    const std::uint32_t version = kFormatVersion;
    const std::uint32_t endian = kEndianTag;
    const std::uint32_t reserved = 0;
    put(&magic, 8);
    put(&version, 4);
    put(&endian, 4);
    put(&shard_count_, 4);
    put(&reserved, 4);
    put(&payload_bytes_, 8);
    put(&checksum_, 8);
    if (!pwrite_all(fd_, header, kHeaderBytes, 0)) {
      status_ = util::Status::io_error("cannot patch snapshot header: " +
                                       tmp_path_ + errno_suffix());
    }
  }
  // Data must be durable BEFORE the rename makes it visible: rename-then-
  // sync can surface a complete-looking file whose pages never hit disk.
  if (status_.ok() && !fsync_retry(fd_)) {
    status_ = util::Status::io_error("cannot fsync snapshot: " + tmp_path_ +
                                     errno_suffix());
  }
  if (fd_ >= 0) {
    if (!close_checked(fd_) && status_.ok()) {
      // A deferred write error can surface only at close; ignoring it
      // would publish a snapshot whose tail silently never landed.
      status_ = util::Status::io_error("cannot close snapshot: " +
                                       tmp_path_ + errno_suffix());
    }
    fd_ = -1;
  }
  if (status_.ok() && ::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    status_ = util::Status::io_error("cannot publish snapshot (rename " +
                                     tmp_path_ + " -> " + path_ + ")" +
                                     errno_suffix());
  }
  if (!status_.ok()) {
    ::unlink(tmp_path_.c_str());
    return status_;
  }
  if (!fsync_parent_dir(path_)) {
    status_ = util::Status::io_error(
        "cannot fsync snapshot directory for: " + path_ + errno_suffix());
  }
  return status_;
}

// ------------------------------------------------------------------ Reader

Reader::Reader(const std::string& path) : path_(path) {
  fd_ = open_retry(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) {
    status_ = util::Status::io_error("cannot open snapshot: " + path +
                                     errno_suffix());
    return;
  }
  buffer_.resize(kBufferBytes);
  validate();
}

Reader::~Reader() {
  // A read-only descriptor has no buffered data to lose on close.
  if (fd_ >= 0) close_checked(fd_);
}

void Reader::fail(const std::string& what) {
  if (status_.ok()) status_ = util::Status::parse_error(what + ": " + path_);
}

std::size_t Reader::read_file(void* out, std::size_t n) {
  auto* bytes = static_cast<std::uint8_t*>(out);
  std::size_t got = 0;
  while (got < n && status_.ok()) {
    const ssize_t r = ::read(fd_, bytes + got, n - got);
    if (r == 0) break;
    if (r < 0) {
      if (errno == EINTR) continue;
      status_ = util::Status::io_error("cannot read snapshot: " + path_ +
                                       errno_suffix());
      break;
    }
    got += static_cast<std::size_t>(r);
  }
  return got;
}

void Reader::validate() {
  std::uint8_t header[kHeaderBytes] = {};
  const std::size_t got = read_file(header, kHeaderBytes);
  if (!status_.ok()) return;
  if (got == 0) return fail("snapshot file is empty");
  if (got < kHeaderBytes) return fail("snapshot truncated before the header");
  const auto get_u64 = [&](std::size_t off) {
    std::uint64_t v = 0;
    std::memcpy(&v, header + off, 8);
    return v;
  };
  const auto get_u32 = [&](std::size_t off) {
    std::uint32_t v = 0;
    std::memcpy(&v, header + off, 4);
    return v;
  };
  if (get_u64(0) != kMagic) return fail("not a PrivLocAd snapshot (bad magic)");
  if (get_u32(8) != kFormatVersion) {
    return fail("unsupported snapshot format version " +
                std::to_string(get_u32(8)) + " (this build reads version " +
                std::to_string(kFormatVersion) + ")");
  }
  if (get_u32(12) != kEndianTag) {
    return fail("snapshot was written with a different byte order");
  }
  // First pass: checksum the whole payload before any structural check
  // reads a byte of it, counting the bytes up to end of file.
  std::uint64_t checksum = kFnvOffsetBasis;
  std::uint64_t seen = 0;
  std::size_t n = 0;
  do {
    n = read_file(buffer_.data(), buffer_.size());
    if (!status_.ok()) return;
    checksum = fnv1a64(buffer_.data(), n, checksum);
    seen += n;
  } while (n == buffer_.size());
  payload_bytes_ = get_u64(24);
  if (seen != payload_bytes_) {
    return fail("snapshot payload size disagrees with the file size");
  }
  if (checksum != get_u64(32)) {
    return fail("snapshot checksum mismatch (corrupt payload)");
  }
  if (::lseek(fd_, kHeaderBytes, SEEK_SET) < 0) {
    status_ = util::Status::io_error("cannot rewind snapshot: " + path_ +
                                     errno_suffix());
    return;
  }
  shard_count_ = get_u32(16);
}

void Reader::read_bytes(void* out, std::size_t n) {
  if (!status_.ok()) return;
  if (n > payload_bytes_ - consumed_) return fail("snapshot section truncated");
  consumed_ += n;
  auto* bytes = static_cast<std::uint8_t*>(out);
  while (n > 0) {
    if (buffer_pos_ == buffer_end_) {
      // fail() keeps an I/O error that read_file already latched.
      if (n >= buffer_.size()) {
        // A large extent skips the buffer and is read straight into place.
        if (read_file(bytes, n) != n) fail("snapshot shrank while being read");
        return;
      }
      buffer_pos_ = 0;
      buffer_end_ = read_file(buffer_.data(), buffer_.size());
      if (buffer_end_ == 0) return fail("snapshot shrank while being read");
    }
    const std::size_t take = std::min(n, buffer_end_ - buffer_pos_);
    std::memcpy(bytes, buffer_.data() + buffer_pos_, take);
    buffer_pos_ += take;
    bytes += take;
    n -= take;
  }
}

void Reader::skip_padding() {
  std::uint8_t padding[8];
  const std::size_t rem = consumed_ % 8;
  if (rem != 0) read_bytes(padding, 8 - rem);
}

util::Status Reader::finish() {
  if (status_.ok() && consumed_ != payload_bytes_) {
    fail("snapshot payload continues past the last section");
  }
  return status_;
}

}  // namespace privlocad::core::snapshot
