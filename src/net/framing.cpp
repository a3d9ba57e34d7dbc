#include "net/framing.hpp"

#include <stdexcept>

#include "util/contracts.hpp"
#include "util/wire.hpp"

namespace tcsa::net {

void append_frame_header(std::string& out, FrameType type,
                         std::size_t payload_size) {
  TCSA_REQUIRE(payload_size <= kMaxPayload,
               "append_frame: payload exceeds kMaxPayload");
  wire_put_u32(out, kWireMagic);
  wire_put_u8(out, kWireVersion);
  wire_put_u8(out, static_cast<std::uint8_t>(type));
  wire_put_u16(out, 0);  // flags, reserved
  wire_put_u32(out, static_cast<std::uint32_t>(payload_size));
}

void append_frame(std::string& out, FrameType type, std::string_view payload) {
  append_frame_header(out, type, payload.size());
  out.append(payload);
}

void FrameDecoder::feed(std::string_view bytes) {
  // Compact lazily: drop the consumed prefix once it dominates the buffer,
  // so steady-state decoding is amortised O(bytes) with no per-frame copy.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(bytes);
}

bool FrameDecoder::next(Frame& frame) {
  const std::string_view pending =
      std::string_view(buffer_).substr(consumed_);
  if (pending.size() < kFrameHeaderSize) return false;

  WireReader header(pending.substr(0, kFrameHeaderSize));
  const std::uint32_t magic = header.read_u32();
  if (magic != kWireMagic)
    throw std::invalid_argument("framing: bad magic (stream corrupt)");
  const std::uint8_t version = header.read_u8();
  if (version != kWireVersion)
    throw std::invalid_argument("framing: unsupported wire version " +
                                std::to_string(version));
  const std::uint8_t type = header.read_u8();
  if (type < static_cast<std::uint8_t>(FrameType::kHello) ||
      type > static_cast<std::uint8_t>(FrameType::kPull))
    throw std::invalid_argument("framing: unknown frame type " +
                                std::to_string(type));
  const std::uint16_t flags = header.read_u16();
  if (flags != 0)
    throw std::invalid_argument("framing: reserved flags must be zero");
  const std::uint32_t length = header.read_u32();
  if (length > kMaxPayload)
    throw std::invalid_argument("framing: payload length " +
                                std::to_string(length) + " exceeds cap");

  if (pending.size() < kFrameHeaderSize + length) return false;
  frame.type = static_cast<FrameType>(type);
  frame.payload = pending.substr(kFrameHeaderSize, length);
  consumed_ += kFrameHeaderSize + length;
  return true;
}

}  // namespace tcsa::net
