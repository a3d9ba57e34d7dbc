// text.hpp — the one way src/ formats and parses text.
//
// The library builds every human-readable line (CLI output, the tcsa v1
// formats, log lines, contract messages, tables) by appending to a
// std::string, then hands the string to stdio or a file. No iostreams: in
// the static tcsactl image a single std::ostream constructs std::locale,
// which links every char and wchar_t facet plus the libc code they reach
// (iconv, strftime, gettext) — ~0.6 MB of text that a server would hold
// resident for no output it needs (DESIGN.md §5).
//
// Each str_append overload writes its value byte for byte as `std::ostream
// << value` does with default flags, so output switched from streams keeps
// its bytes:
//   integers      decimal (std::to_chars); bool as 0/1
//   char types    the character itself, as ostream prints int8_t/uint8_t
//   double        "%g" (the stream's default precision 6)
//   fixed(v, p)   "%.{p}f" (std::fixed << std::setprecision(p))
//   pad(w, v)     v right-aligned in w columns (std::setw(w))
//   hex(v)        lowercase hexadecimal (std::hex)
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <system_error>

namespace tcsa {

/// A double in fixed notation with `precision` decimals.
struct Fixed {
  double value;
  int precision;
};
inline Fixed fixed(double value, int precision) { return {value, precision}; }

/// An unsigned integer in lowercase hexadecimal.
struct Hex {
  std::uint64_t value;
};
inline Hex hex(std::uint64_t value) { return {value}; }

/// `value` right-aligned in `width` columns; wider values are not cut.
template <typename T>
struct Padded {
  std::size_t width;
  T value;
};
template <typename T>
Padded<T> pad(std::size_t width, T value) {
  return {width, value};
}

inline void str_append(std::string& out, std::string_view text) {
  out += text;
}
// Without these two a string literal would convert to bool, not string_view.
inline void str_append(std::string& out, const char* text) { out += text; }
inline void str_append(std::string& out, char c) { out += c; }
inline void str_append(std::string& out, signed char c) {
  out += static_cast<char>(c);
}
inline void str_append(std::string& out, unsigned char c) {
  out += static_cast<char>(c);
}
inline void str_append(std::string& out, bool b) { out += b ? '1' : '0'; }

template <std::integral T>
void str_append(std::string& out, T value) {
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, result.ptr);
}

inline void str_append(std::string& out, Hex h) {
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof buf, h.value, 16);
  out.append(buf, result.ptr);
}

void str_append(std::string& out, double value);
void str_append(std::string& out, Fixed f);

template <typename T>
void str_append(std::string& out, const Padded<T>& p) {
  const std::size_t start = out.size();
  str_append(out, p.value);
  const std::size_t written = out.size() - start;
  if (written < p.width) out.insert(start, p.width - written, ' ');
}

/// Appends every argument in order.
template <typename A, typename B, typename... Rest>
void str_append(std::string& out, const A& a, const B& b,
                const Rest&... rest) {
  str_append(out, a);
  str_append(out, b);
  (str_append(out, rest), ...);
}

/// The concatenation of every argument, each formatted as str_append does.
template <typename... Args>
std::string str_cat(const Args&... args) {
  std::string out;
  (str_append(out, args), ...);
  return out;
}

/// Writes the concatenation of `args` to `file` (stdout, stderr) in one
/// fwrite. Write errors stay on the FILE for the caller's final ferror().
template <typename... Args>
void print(std::FILE* file, const Args&... args) {
  const std::string text = str_cat(args...);
  std::fwrite(text.data(), 1, text.size(), file);
}

/// Parses a base-10 integer at the start of `text` the way strtoll and
/// `std::istream >>` read C-locale input that starts at a digit or sign:
/// an optional '+' or '-', then digits. Returns std::from_chars' result;
/// `ptr` points past the digits on success.
template <std::integral T>
std::from_chars_result parse_int_prefix(std::string_view text, T& value) {
  const char* first = text.data();
  const char* last = first + text.size();
  if (last - first >= 2 && first[0] == '+' && first[1] >= '0' &&
      first[1] <= '9')
    ++first;
  return std::from_chars(first, last, value);
}

/// Whitespace as the C locale's isspace() defines it.
inline bool is_c_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Pops the next whitespace-delimited token off the front of `rest`, as
/// `std::istream >> std::string` would; empty when only whitespace is left.
std::string_view next_token(std::string_view& rest);

/// Pops the next line off the front of `rest`, without its '\n', as
/// std::getline does: false once nothing is left (a final line without a
/// newline still counts; an empty remainder after the last '\n' does not).
bool next_line(std::string_view& rest, std::string_view& line);

}  // namespace tcsa
