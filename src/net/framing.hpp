// framing.hpp — length-prefixed binary framing for the broadcast wire.
//
// Every message on a tcsa-air TCP connection is one frame:
//
//   offset size  field
//   0      4     magic "TCSA" (0x54 0x43 0x53 0x41 on the wire)
//   4      1     protocol version (kWireVersion)
//   5      1     frame type (FrameType)
//   6      2     flags (reserved, must be 0)
//   8      4     payload length in bytes (little-endian, <= kMaxPayload)
//   12     n     payload
//
// The header is versioned so a future protocol can change payloads without
// ambiguity; a decoder seeing a wrong magic, an unknown version, or an
// oversized length fails the whole connection (framing is unrecoverable —
// there is no way to resynchronise a byte stream with a corrupt prefix).
//
// Each payload is one *Msg struct below. Its tie() lists the fields
// in wire order (all little-endian, util/wire.hpp); append() and decode()
// both walk that one list, so the two directions cannot disagree. A
// trailing std::string_view field takes the rest of the payload.
//
// Wire v2 added kReq/kReqAck for request-journey tracing; v3 added kPull
// for the live hybrid push/pull plane. Older peers are refused at the
// version check (both endpoints live in this tree).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>

#include "util/wire.hpp"

namespace tcsa::net {

inline constexpr std::uint32_t kWireMagic = 0x41534354;  // "TCSA" LE
inline constexpr std::uint8_t kWireVersion = 3;
inline constexpr std::size_t kFrameHeaderSize = 12;
inline constexpr std::uint32_t kMaxPayload = 1u << 24;  // 16 MiB

/// Subscription mask covering every channel.
inline constexpr std::uint64_t kAllChannels = ~0ull;

/// kSwap method byte asking the server to pick SUSC/PAMAD itself.
inline constexpr std::uint8_t kSwapMethodAuto = 0xff;

enum class FrameType : std::uint8_t {
  kHello = 1,      ///< server -> client greeting with the on-air program info
  kTune = 2,       ///< client -> server channel subscription
  kPage = 3,       ///< server -> client one page airing
  kSwap = 4,       ///< client -> server hot program swap request
  kSwapReply = 5,  ///< server -> client swap verdict
  kAnnounce = 6,   ///< server -> client new generation activated
  kReq = 7,        ///< client -> server traced page request
  kReqAck = 8,     ///< server -> client request receipt + clock stamps
  kPull = 9,       ///< server -> client on-demand airing (pull channel)
};

/// One decoded frame. `payload` aliases the decoder's internal buffer and
/// is valid until the next decoder call.
struct Frame {
  FrameType type = FrameType::kHello;
  std::string_view payload;
};

/// Appends one encoded frame (header + payload) to `out`.
/// Precondition: payload.size() <= kMaxPayload.
void append_frame(std::string& out, FrameType type, std::string_view payload);

/// Appends a frame header announcing `payload_size` bytes of `type`.
/// Precondition: payload_size <= kMaxPayload.
void append_frame_header(std::string& out, FrameType type,
                         std::size_t payload_size);

// ---------------------------------------------------------------- payloads
// A decoded message's string_view field aliases the decoded payload.

/// kHello (on connect) and kAnnounce (on each activation).
struct HelloMsg {
  static constexpr FrameType kType = FrameType::kHello;
  std::uint32_t generation = 0;
  std::uint32_t slot_us = 0;
  std::uint32_t channels = 0;
  std::uint32_t cycle_length = 0;
  /// The next slot the session's loop will deliver (kAnnounce: the
  /// activation slot, whose frames follow it).
  std::uint64_t next_slot = 0;
  std::string_view workload;    ///< model/serialize binary format
  auto tie() {
    return std::tie(generation, slot_us, channels, cycle_length, next_slot,
                    workload);
  }
};

/// kTune: replaces the session's subscription.
struct TuneMsg {
  static constexpr FrameType kType = FrameType::kTune;
  std::uint64_t mask = 0;  ///< bit c = channel c; kAllChannels = everything
  auto tie() { return std::tie(mask); }
};

/// kPage: one occupied (channel, slot) cell; empty cells send nothing.
struct PageMsg {
  static constexpr FrameType kType = FrameType::kPage;
  std::uint64_t slot = 0;
  std::uint32_t generation = 0;
  std::uint32_t channel = 0;
  std::uint32_t page = 0;
  auto tie() { return std::tie(slot, generation, channel, page); }
};

/// Bytes of every kPage frame (its fields are all fixed-width).
inline constexpr std::size_t kPageFrameSize = kFrameHeaderSize + 20;
/// Frame offset of a kPage's slot word.
inline constexpr std::size_t kPageSlotOffset = kFrameHeaderSize;

struct SwapMsg {
  static constexpr FrameType kType = FrameType::kSwap;
  std::uint32_t channels = 0;              ///< 0 = keep the current count
  std::uint8_t method = kSwapMethodAuto;   ///< or a core Method value
  std::string_view workload;               ///< model/serialize binary format
  auto tie() { return std::tie(channels, method, workload); }
};

struct SwapReplyMsg {
  static constexpr FrameType kType = FrameType::kSwapReply;
  bool accepted = false;
  std::uint32_t generation = 0;        ///< id the new program will air as
  std::uint64_t activation_slot = 0;   ///< major-cycle boundary it lands on
  std::int64_t seam_lateness = 0;      ///< <= 0: all promises preserved
  std::string_view error;              ///< empty when accepted
  auto tie() {
    return std::tie(accepted, generation, activation_slot, seam_lateness,
                    error);
  }
};

/// kReq: a traced page request; with pull channels on, also pull demand.
struct ReqMsg {
  static constexpr FrameType kType = FrameType::kReq;
  std::uint64_t trace_id = 0;
  std::uint32_t page = 0;
  auto tie() { return std::tie(trace_id, page); }
};

/// kReqAck: recv_us/send_us are the server's trace-clock stamps, the
/// t1/t2 of the NTP-style offset exchange.
struct ReqAckMsg {
  static constexpr FrameType kType = FrameType::kReqAck;
  std::uint64_t trace_id = 0;
  std::uint64_t recv_us = 0;
  std::uint64_t send_us = 0;
  std::uint64_t next_slot = 0;       ///< next slot the session's loop delivers
  std::uint32_t page = 0;
  std::uint32_t expected_slots = 0;  ///< the page's promised wait t_p
  std::uint32_t generation = 0;      ///< the generation that promised it
  auto tie() {
    return std::tie(trace_id, recv_us, send_us, next_slot, page,
                    expected_slots, generation);
  }
};

/// kPull: delivered to every session with a pending kReq for the page,
/// whatever its channel mask.
struct PullMsg {
  static constexpr FrameType kType = FrameType::kPull;
  std::uint64_t slot = 0;
  std::uint32_t generation = 0;
  std::uint32_t page = 0;
  std::uint32_t waiters = 0;  ///< pending requests this one airing serves
  auto tie() { return std::tie(slot, generation, page, waiters); }
};

/// Appends `msg` as one whole frame of `type` (a HelloMsg is also sent as
/// kAnnounce), reserving the exact frame size first.
template <class Msg>
void append(std::string& out, Msg msg, FrameType type = Msg::kType) {
  const auto fields = msg.tie();
  const std::size_t size = std::apply(
      [](const auto&... f) { return (wire_size(f) + ... + 0); }, fields);
  out.reserve(out.size() + kFrameHeaderSize + size);
  append_frame_header(out, type, size);
  std::apply([&](const auto&... f) { (wire_put(out, f), ...); }, fields);
}

/// append() into a fresh buffer.
template <class Msg>
std::string encode(Msg msg, FrameType type = Msg::kType) {
  std::string out;
  append(out, msg, type);
  return out;
}

/// Decodes one payload. Throws std::invalid_argument when it is truncated
/// or has bytes left over.
template <class Msg>
Msg decode(std::string_view payload) {
  Msg msg;
  WireReader in(payload);
  std::apply([&](auto&... f) { (wire_get(in, f), ...); }, msg.tie());
  in.expect_done();
  return msg;
}

/// Incremental frame decoder over an arbitrary byte stream. feed() bytes as
/// they arrive, then drain complete frames with next(). A malformed header
/// throws std::invalid_argument and poisons the decoder (the connection
/// must be dropped).
class FrameDecoder {
 public:
  /// Appends raw bytes from the stream.
  void feed(std::string_view bytes);

  /// Pops the next complete frame into `frame`. Returns false when more
  /// bytes are needed. The frame's payload view stays valid until the next
  /// feed()/next() call.
  bool next(Frame& frame);

  /// Bytes buffered but not yet consumed (for tests / introspection).
  std::size_t buffered() const noexcept { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  std::size_t consumed_ = 0;  // prefix of buffer_ already handed out
};

}  // namespace tcsa::net
