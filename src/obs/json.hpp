// json.hpp — a minimal, strict JSON reader for observability artifacts.
//
// The cross-process pipeline (manifest loading, snapshot import, trace
// merging, diffing bench reports) must parse documents that other processes
// — or a hostile filesystem — wrote. This is a small recursive-descent
// parser over the full JSON grammar with a hard nesting-depth cap, so
// malformed or adversarial inputs fail with std::invalid_argument instead
// of crashing or recursing off the stack. It is a *reader*: artifact
// writers assemble their documents by hand (the formats are flat), so no
// serializer lives here beyond a string-escape helper.
//
// Numbers keep their exact unsigned-integer value when the token is a plain
// digit run that fits in 64 bits, so counter values round-trip losslessly
// past the 2^53 double cliff.
//
// A histogram export is mostly [index, count] pairs. Parsed as nodes, each
// pair costs three JsonValues and a heap allocation, so a reader that wants
// only the pairs asks for JsonPairs::kPacked: an array of plain-integer
// pairs then lands in one flat vector of JsonValue::uint_pairs.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace tcsa::obs {

/// One parsed JSON value. Object members preserve document order (exports
/// are written in registration order and round-trip tests rely on it).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::uint64_t uint_value = 0;  ///< exact when is_uint
  bool is_uint = false;          ///< token was a plain digit run <= 2^64-1
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;
  /// An array of [uint, uint] pairs parsed with JsonPairs::kPacked; `array`
  /// is then empty. An array holding anything else keeps its nodes.
  std::vector<std::array<std::uint64_t, 2>> uint_pairs;

  bool is(Kind k) const noexcept { return kind == k; }

  /// Object member by key; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const noexcept;

  /// Checked accessors: throw std::invalid_argument on a kind mismatch,
  /// naming `what` (the field being read) in the message.
  const JsonValue& expect_object(const std::string& what) const;
  const JsonValue& expect_array(const std::string& what) const;
  const std::string& expect_string(const std::string& what) const;
  double expect_number(const std::string& what) const;
  std::uint64_t expect_uint(const std::string& what) const;
  std::int64_t expect_int(const std::string& what) const;
  /// The pairs of an array read with JsonPairs::kPacked; throws when the
  /// value is not an array or holds anything but [uint, uint] pairs.
  std::span<const std::array<std::uint64_t, 2>> expect_uint_pairs(
      const std::string& what) const;

  /// Required object member (throws naming the key when missing).
  const JsonValue& at(const std::string& key) const;
};

/// How json_parse reads an array whose elements are all two-element arrays
/// of plain non-negative integers (no sign, fraction or exponent, < 2^64).
enum class JsonPairs {
  kNodes,   ///< like any other array: a JsonValue per pair and per number
  kPacked,  ///< straight into JsonValue::uint_pairs
};

/// Parses one JSON document; trailing non-whitespace is an error.
/// Throws std::invalid_argument with a byte offset on malformed input.
JsonValue json_parse(const std::string& text,
                     JsonPairs pairs = JsonPairs::kNodes);

/// `text` with JSON string escaping applied (no surrounding quotes).
std::string json_escape(const std::string& text);

/// `value` as "%.17g": enough digits to parse back to the same double.
std::string json_number(double value);

/// Compact one-line serialization of a parsed value (object order kept).
/// Used by the trace merger to re-emit events it did not fully model.
std::string json_serialize(const JsonValue& value);

}  // namespace tcsa::obs
