// wire.hpp — little-endian byte (de)coding for binary formats.
//
// Shared by the network frame codec (net/framing) and the binary workload /
// program serializer (model/serialize): both write into std::string buffers
// and read through a bounds-checked cursor, so a truncated or hostile byte
// stream fails with std::invalid_argument instead of reading past the end.
// Everything is explicit byte shuffling — no memcpy of structs, no host
// endianness assumptions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace tcsa {

inline void wire_put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

inline void wire_put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

inline void wire_put_u32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8)
    out.push_back(static_cast<char>((v >> shift) & 0xff));
}

inline void wire_put_u64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8)
    out.push_back(static_cast<char>((v >> shift) & 0xff));
}

inline void wire_put_i64(std::string& out, std::int64_t v) {
  wire_put_u64(out, static_cast<std::uint64_t>(v));
}

/// Bounds-checked read cursor over an immutable byte view. Every read
/// throws std::invalid_argument on truncation; expect_done() rejects
/// trailing junk for formats that must consume their whole input.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  std::uint8_t read_u8() { return take(1)[0]; }

  std::uint16_t read_u16() {
    const auto b = take(2);
    return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
  }

  std::uint32_t read_u32() {
    const auto b = take(4);
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | b[static_cast<std::size_t>(i)];
    return v;
  }

  std::uint64_t read_u64() {
    const auto b = take(8);
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | b[static_cast<std::size_t>(i)];
    return v;
  }

  std::int64_t read_i64() { return static_cast<std::int64_t>(read_u64()); }

  /// The next `n` raw bytes (view into the underlying buffer).
  std::string_view read_bytes(std::size_t n) {
    if (n > remaining())
      throw std::invalid_argument("wire: truncated input (need " +
                                  std::to_string(n) + " bytes, have " +
                                  std::to_string(remaining()) + ")");
    const std::string_view view = data_.substr(pos_, n);
    pos_ += n;
    return view;
  }

  /// Everything not yet consumed (consumes it).
  std::string_view read_rest() { return read_bytes(remaining()); }

  std::size_t remaining() const noexcept { return data_.size() - pos_; }

  /// Throws when input remains — for formats that own their whole buffer.
  void expect_done() const {
    if (remaining() != 0)
      throw std::invalid_argument("wire: " + std::to_string(remaining()) +
                                  " trailing byte(s) after document end");
  }

 private:
  /// `n` bytes as unsigned values (pointer stays valid: data_ is a view).
  const unsigned char* take(std::size_t n) {
    if (n > remaining())
      throw std::invalid_argument("wire: truncated input (need " +
                                  std::to_string(n) + " bytes, have " +
                                  std::to_string(remaining()) + ")");
    const auto* p =
        reinterpret_cast<const unsigned char*>(data_.data()) + pos_;
    pos_ += n;
    return p;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

// Overloads by field type, so a message codec can walk a field list
// generically (net/framing's tie()). A std::string_view field is the
// payload's tail: written as-is, read as everything left.

inline void wire_put(std::string& s, bool v) { wire_put_u8(s, v ? 1 : 0); }
inline void wire_put(std::string& s, std::uint8_t v) { wire_put_u8(s, v); }
inline void wire_put(std::string& s, std::uint32_t v) { wire_put_u32(s, v); }
inline void wire_put(std::string& s, std::uint64_t v) { wire_put_u64(s, v); }
inline void wire_put(std::string& s, std::int64_t v) { wire_put_i64(s, v); }
inline void wire_put(std::string& s, std::string_view v) { s.append(v); }

inline void wire_get(WireReader& r, bool& v) { v = r.read_u8() != 0; }
inline void wire_get(WireReader& r, std::uint8_t& v) { v = r.read_u8(); }
inline void wire_get(WireReader& r, std::uint32_t& v) { v = r.read_u32(); }
inline void wire_get(WireReader& r, std::uint64_t& v) { v = r.read_u64(); }
inline void wire_get(WireReader& r, std::int64_t& v) { v = r.read_i64(); }
inline void wire_get(WireReader& r, std::string_view& v) { v = r.read_rest(); }

constexpr std::size_t wire_size(bool) { return 1; }
constexpr std::size_t wire_size(std::uint8_t) { return 1; }
constexpr std::size_t wire_size(std::uint32_t) { return 4; }
constexpr std::size_t wire_size(std::uint64_t) { return 8; }
constexpr std::size_t wire_size(std::int64_t) { return 8; }
constexpr std::size_t wire_size(std::string_view v) { return v.size(); }

}  // namespace tcsa
