#include "net/wire.hpp"

#include <cstring>

namespace privlocad::net {

namespace {

template <typename T>
void put(std::vector<std::uint8_t>& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &value, sizeof(T));
}

template <typename T>
T get(const std::uint8_t* data, std::size_t& offset) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value;
  std::memcpy(&value, data + offset, sizeof(T));
  offset += sizeof(T);
  return value;
}

void append_header(std::vector<std::uint8_t>& out, FrameType type,
                   std::uint32_t body_len) {
  put<std::uint16_t>(out, kWireMagic);
  put<std::uint8_t>(out, kWireVersion);
  put<std::uint8_t>(out, static_cast<std::uint8_t>(type));
  put<std::uint32_t>(out, body_len);
}

}  // namespace

void append_request(std::vector<std::uint8_t>& out,
                    const ServeRequestFrame& frame) {
  append_header(out, FrameType::kServeRequest,
                static_cast<std::uint32_t>(kServeRequestBodyBytes));
  put<std::uint64_t>(out, frame.request_id);
  put<std::uint64_t>(out, frame.user_id);
  put<double>(out, frame.x);
  put<double>(out, frame.y);
  put<std::int64_t>(out, frame.time);
}

void append_response(std::vector<std::uint8_t>& out,
                     const ServeResponseFrame& frame) {
  append_header(out, FrameType::kServeResponse,
                static_cast<std::uint32_t>(kServeResponseBodyBytes));
  put<std::uint64_t>(out, frame.request_id);
  put<std::uint8_t>(out, frame.outcome);
  put<std::uint8_t>(out, frame.kind);
  put<std::uint8_t>(out, frame.status_code);
  // Enforce fail-private at the serialization boundary: a non-released
  // response frame carries zeroed coordinates no matter what the caller
  // left in the struct.
  put<std::uint8_t>(out, frame.released);
  put<std::uint32_t>(out, 0);  // reserved
  put<double>(out, frame.released != 0 ? frame.x : 0.0);
  put<double>(out, frame.released != 0 ? frame.y : 0.0);
}

util::Status try_decode(const std::uint8_t* data, std::size_t n,
                        Frame& out, std::size_t& consumed) {
  consumed = 0;
  if (n < kFrameHeaderBytes) return util::Status();  // need more
  std::size_t offset = 0;
  const std::uint16_t magic = get<std::uint16_t>(data, offset);
  if (magic != kWireMagic) {
    return util::Status::parse_error("wire frame has bad magic");
  }
  const std::uint8_t version = get<std::uint8_t>(data, offset);
  if (version != kWireVersion) {
    return util::Status::parse_error("wire frame has unknown version");
  }
  const std::uint8_t type = get<std::uint8_t>(data, offset);
  const std::uint32_t body_len = get<std::uint32_t>(data, offset);

  std::size_t expected = 0;
  switch (static_cast<FrameType>(type)) {
    case FrameType::kServeRequest:
      expected = kServeRequestBodyBytes;
      break;
    case FrameType::kServeResponse:
      expected = kServeResponseBodyBytes;
      break;
    default:
      return util::Status::parse_error("wire frame has unknown type");
  }
  if (body_len != expected) {
    return util::Status::parse_error("wire frame has wrong body length");
  }
  if (n < kFrameHeaderBytes + expected) return util::Status();  // need more

  out.type = static_cast<FrameType>(type);
  if (out.type == FrameType::kServeRequest) {
    out.request.request_id = get<std::uint64_t>(data, offset);
    out.request.user_id = get<std::uint64_t>(data, offset);
    out.request.x = get<double>(data, offset);
    out.request.y = get<double>(data, offset);
    out.request.time = get<std::int64_t>(data, offset);
  } else {
    out.response.request_id = get<std::uint64_t>(data, offset);
    out.response.outcome = get<std::uint8_t>(data, offset);
    out.response.kind = get<std::uint8_t>(data, offset);
    out.response.status_code = get<std::uint8_t>(data, offset);
    out.response.released = get<std::uint8_t>(data, offset);
    offset += sizeof(std::uint32_t);  // reserved
    out.response.x = get<double>(data, offset);
    out.response.y = get<double>(data, offset);
  }
  consumed = offset;
  return util::Status();
}

}  // namespace privlocad::net
