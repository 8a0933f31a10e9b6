// Compact binary wire format for edge_serverd (loopback serving).
//
// The paper's edge platform sits between mobile users and the LBA
// ecosystem; edge_serverd exposes ConcurrentEdge over a socket so an
// open-loop load generator can drive it like real traffic. The format is
// deliberately minimal: fixed-size little-endian frames, one request and
// one response type, no negotiation. Frames are HOST-endian -- the
// transport is loopback-only (bench + tests on one box), and the endian
// assumption is guarded the same way the snapshot format guards it: by
// the magic constant, which reads as garbage on a mismatched peer.
//
// Frame layout (8-byte header + fixed body):
//   u16 magic    0x4C50 ("PL")
//   u8  version  kWireVersion
//   u8  type     FrameType
//   u32 body_len body byte count (fixed per type; validated)
//
// Fail-private on the wire: a response for a dropped or failed request
// carries released=0 and ZEROED coordinates -- the serializer enforces
// it, so a raw coordinate cannot leak through the transport even if a
// buggy caller hands it a ServeResult it should not.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/status.hpp"

namespace privlocad::net {

inline constexpr std::uint16_t kWireMagic = 0x4C50;  // "PL"
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 8;

enum class FrameType : std::uint8_t {
  kServeRequest = 1,
  kServeResponse = 2,
};

/// One serve request: who, where (raw coordinates -- they never come
/// back), and when. `request_id` is echoed verbatim in the response so
/// a pipelining client can match out-of-order completions.
struct ServeRequestFrame {
  std::uint64_t request_id = 0;
  std::uint64_t user_id = 0;
  double x = 0.0;
  double y = 0.0;
  std::int64_t time = 0;
};
inline constexpr std::size_t kServeRequestBodyBytes = 40;

/// One serve response. `outcome` is the core::ServeOutcome enum value,
/// `status_code` the util::ErrorCode, `released` 1 iff an (obfuscated)
/// location was released -- when 0, x/y are zero by construction. Body
/// bytes 12-15, between `released` and `x`, are reserved and always zero.
struct ServeResponseFrame {
  std::uint64_t request_id = 0;
  std::uint8_t outcome = 0;
  std::uint8_t kind = 0;
  std::uint8_t status_code = 0;
  std::uint8_t released = 0;
  double x = 0.0;
  double y = 0.0;
};
inline constexpr std::size_t kServeResponseBodyBytes = 32;

/// Largest legal frame; incremental decoding rejects anything bigger
/// before buffering it (a garbage header cannot balloon the in-buffer).
inline constexpr std::size_t kMaxFrameBytes =
    kFrameHeaderBytes + kServeRequestBodyBytes;

void append_request(std::vector<std::uint8_t>& out,
                    const ServeRequestFrame& frame);
void append_response(std::vector<std::uint8_t>& out,
                     const ServeResponseFrame& frame);

/// One decoded frame; exactly one of the two bodies is meaningful,
/// selected by `type`.
struct Frame {
  FrameType type = FrameType::kServeRequest;
  ServeRequestFrame request{};
  ServeResponseFrame response{};
};

/// Incremental decoder over a byte window. Returns:
///   - ok() with consumed > 0: one frame decoded into `out`;
///   - ok() with consumed == 0: the window holds a frame prefix -- read
///     more bytes and call again;
///   - kParseError: the window cannot start a valid frame (bad magic,
///     version, type, or body length); the connection is poisoned.
util::Status try_decode(const std::uint8_t* data, std::size_t n,
                        Frame& out, std::size_t& consumed);

}  // namespace privlocad::net
