#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace tcsa::obs {
namespace {

/// Recursion ceiling: artifacts are ~3 levels deep, so 64 is generous while
/// keeping a pathological "[[[[..." input from exhausting the stack.
constexpr int kMaxDepth = 64;

[[noreturn]] void fail(std::size_t pos, const std::string& what) {
  throw std::invalid_argument("json: " + what + " at byte " +
                              std::to_string(pos));
}

class Parser {
 public:
  Parser(const std::string& text, JsonPairs pairs)
      : text_(text), pack_pairs_(pairs == JsonPairs::kPacked) {}

  JsonValue document() {
    JsonValue value = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail(pos_, "trailing content after document");
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(pos_, std::string("expected '") + c + '\'');
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    std::size_t n = 0;
    while (literal[n] != '\0') ++n;
    if (text_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) fail(pos_, "nesting too deep");
    skip_ws();
    const char c = peek();
    JsonValue value;
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"':
        value.kind = JsonValue::Kind::kString;
        value.string = parse_string();
        return value;
      case 't':
        if (!consume_literal("true")) fail(pos_, "bad literal");
        value.kind = JsonValue::Kind::kBool;
        value.boolean = true;
        return value;
      case 'f':
        if (!consume_literal("false")) fail(pos_, "bad literal");
        value.kind = JsonValue::Kind::kBool;
        value.boolean = false;
        return value;
      case 'n':
        if (!consume_literal("null")) fail(pos_, "bad literal");
        return value;
      default: return parse_number();
    }
  }

  JsonValue parse_object(int depth) {
    JsonValue value;
    value.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      value.object.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return value;
    }
  }

  JsonValue parse_array(int depth) {
    JsonValue value;
    value.kind = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    // Pairs pack while every element so far was one (and the nodes would
    // not have been too deep); the first other element unpacks them.
    bool packing = pack_pairs_ && depth + 2 <= kMaxDepth;
    while (true) {
      if (!packing || !scan_uint_pair(value.uint_pairs)) {
        if (packing) unpack_pairs(value);
        packing = false;
        value.array.push_back(parse_value(depth + 1));
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return value;
    }
  }

  /// Appends a `[uint, uint]` element at pos_ to `pairs`; on anything else
  /// leaves pos_ where it was and returns false.
  bool scan_uint_pair(std::vector<std::array<std::uint64_t, 2>>& pairs) {
    const std::size_t start = pos_;
    std::array<std::uint64_t, 2> pair{};
    const bool ok = scan_char('[') && scan_uint(pair[0]) &&
                    scan_char(',') && scan_uint(pair[1]) && scan_char(']');
    if (ok)
      pairs.push_back(pair);
    else
      pos_ = start;
    return ok;
  }

  /// Skips whitespace, then consumes `c` if it is next.
  bool scan_char(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  /// A plain digit run that parse_number would read as an exact u64:
  /// no leading zero, no fraction or exponent after it, no overflow.
  bool scan_uint(std::uint64_t& out) {
    skip_ws();
    const std::size_t start = pos_;
    std::uint64_t v = 0;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      const auto digit = static_cast<std::uint64_t>(text_[pos_] - '0');
      if (v > (UINT64_MAX - digit) / 10) return false;
      v = v * 10 + digit;
      ++pos_;
    }
    const std::size_t digits = pos_ - start;
    if (digits == 0 || (digits > 1 && text_[start] == '0')) return false;
    if (pos_ < text_.size() &&
        (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E'))
      return false;
    out = v;
    return true;
  }

  /// Turns the packed pairs read so far back into nodes, as parse_value
  /// would have built them.
  static void unpack_pairs(JsonValue& value) {
    for (const auto& pair : value.uint_pairs) {
      JsonValue node;
      node.kind = JsonValue::Kind::kArray;
      for (const std::uint64_t u : pair) {
        JsonValue& number = node.array.emplace_back();
        number.kind = JsonValue::Kind::kNumber;
        number.number = static_cast<double>(u);
        number.uint_value = u;
        number.is_uint = true;
      }
      value.array.push_back(std::move(node));
    }
    value.uint_pairs.clear();
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail(pos_, "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail(pos_ - 1, "raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail(pos_, "unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_utf8(out, parse_hex4()); break;
        default: fail(pos_ - 1, "bad escape");
      }
    }
  }

  unsigned parse_hex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) fail(pos_, "unterminated \\u escape");
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else fail(pos_ - 1, "bad hex digit in \\u escape");
    }
    return code;
  }

  /// UTF-8 encodes one BMP code point (surrogate pairs are passed through
  /// as two 3-byte sequences; artifacts only carry ASCII in practice).
  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_])))
      fail(pos_, "bad number");
    if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
        std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])))
      fail(pos_, "leading zero");
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        fail(pos_, "bad fraction");
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        fail(pos_, "bad exponent");
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    JsonValue value;
    value.kind = JsonValue::Kind::kNumber;
    value.number = std::strtod(token.c_str(), nullptr);
    if (integral && token[0] != '-') {
      // Exact u64 path: counters larger than 2^53 survive a round trip.
      errno = 0;
      char* end = nullptr;
      const unsigned long long u = std::strtoull(token.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') {
        value.uint_value = u;
        value.is_uint = true;
      }
    }
    if (!std::isfinite(value.number) && !value.is_uint)
      fail(start, "number out of range");
    return value;
  }

  const std::string& text_;
  const bool pack_pairs_;
  std::size_t pos_ = 0;
};

[[noreturn]] void kind_error(const std::string& what, const char* wanted) {
  throw std::invalid_argument("json: " + what + " must be " + wanted);
}

}  // namespace

const JsonValue* JsonValue::find(const std::string& key) const noexcept {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object)
    if (name == key) return &value;
  return nullptr;
}

const JsonValue& JsonValue::expect_object(const std::string& what) const {
  if (kind != Kind::kObject) kind_error(what, "an object");
  return *this;
}

const JsonValue& JsonValue::expect_array(const std::string& what) const {
  if (kind != Kind::kArray) kind_error(what, "an array");
  return *this;
}

const std::string& JsonValue::expect_string(const std::string& what) const {
  if (kind != Kind::kString) kind_error(what, "a string");
  return string;
}

double JsonValue::expect_number(const std::string& what) const {
  if (kind != Kind::kNumber) kind_error(what, "a number");
  return number;
}

std::uint64_t JsonValue::expect_uint(const std::string& what) const {
  if (kind != Kind::kNumber || !is_uint)
    kind_error(what, "a non-negative integer");
  return uint_value;
}

std::int64_t JsonValue::expect_int(const std::string& what) const {
  if (kind != Kind::kNumber ||
      number != static_cast<double>(static_cast<std::int64_t>(number)))
    kind_error(what, "an integer");
  return static_cast<std::int64_t>(number);
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* value = find(key);
  if (value == nullptr)
    throw std::invalid_argument("json: missing required key \"" + key + '"');
  return *value;
}

std::span<const std::array<std::uint64_t, 2>> JsonValue::expect_uint_pairs(
    const std::string& what) const {
  if (kind != Kind::kArray || !array.empty())
    kind_error(what, "an array of [non-negative integer, "
                     "non-negative integer] pairs");
  return uint_pairs;
}

JsonValue json_parse(const std::string& text, JsonPairs pairs) {
  return Parser(text, pairs).document();
}

namespace {

void serialize_into(const JsonValue& value, std::string& out) {
  switch (value.kind) {
    case JsonValue::Kind::kNull: out += "null"; break;
    case JsonValue::Kind::kBool: out += value.boolean ? "true" : "false"; break;
    case JsonValue::Kind::kNumber:
      out += value.is_uint ? std::to_string(value.uint_value)
                           : json_number(value.number);
      break;
    case JsonValue::Kind::kString:
      out += '"';
      out += json_escape(value.string);
      out += '"';
      break;
    case JsonValue::Kind::kArray: {
      out += '[';
      bool first = true;
      for (const auto& [a, b] : value.uint_pairs) {
        if (!first) out += ", ";
        first = false;
        out += '[' + std::to_string(a) + ", " + std::to_string(b) + ']';
      }
      for (const JsonValue& item : value.array) {
        if (!first) out += ", ";
        first = false;
        serialize_into(item, out);
      }
      out += ']';
      break;
    }
    case JsonValue::Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, member] : value.object) {
        if (!first) out += ", ";
        first = false;
        out += '"';
        out += json_escape(key);
        out += "\": ";
        serialize_into(member, out);
      }
      out += '}';
      break;
    }
  }
}

}  // namespace

std::string json_serialize(const JsonValue& value) {
  std::string out;
  serialize_into(value, out);
  return out;
}

std::string json_number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace tcsa::obs
