#include "util/text.hpp"

namespace tcsa {
namespace {

// snprintf, not floating-point std::to_chars: to_chars links Ryu's tables,
// and its shortest round-trip digits differ from the stream's "%g".
void append_printf(std::string& out, const char* format, int precision,
                   double value) {
  char buf[64];
  const int n = std::snprintf(buf, sizeof buf, format, precision, value);
  if (n < static_cast<int>(sizeof buf)) {
    out.append(buf, static_cast<std::size_t>(n));
    return;
  }
  // Only "%f" of a huge magnitude gets here (1e300 has 301 digits).
  const std::size_t start = out.size();
  out.resize(start + static_cast<std::size_t>(n) + 1);
  std::snprintf(out.data() + start, static_cast<std::size_t>(n) + 1, format,
                precision, value);
  out.resize(start + static_cast<std::size_t>(n));
}

}  // namespace

void str_append(std::string& out, double value) {
  append_printf(out, "%.*g", 6, value);
}

void str_append(std::string& out, Fixed f) {
  append_printf(out, "%.*f", f.precision, f.value);
}

std::string_view next_token(std::string_view& rest) {
  std::size_t begin = 0;
  while (begin < rest.size() && is_c_space(rest[begin])) ++begin;
  std::size_t end = begin;
  while (end < rest.size() && !is_c_space(rest[end])) ++end;
  const std::string_view token = rest.substr(begin, end - begin);
  rest.remove_prefix(end);
  return token;
}

bool next_line(std::string_view& rest, std::string_view& line) {
  if (rest.empty()) return false;
  const std::size_t newline = rest.find('\n');
  if (newline == std::string_view::npos) {
    line = rest;
    rest = {};
  } else {
    line = rest.substr(0, newline);
    rest.remove_prefix(newline + 1);
  }
  return true;
}

}  // namespace tcsa
