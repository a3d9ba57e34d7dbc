#include "json_out.hpp"

#include <cmath>
#include <cstdio>

namespace perfbench {

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
}

JsonWriter& JsonWriter::begin_object() {
  separate();
  out_ += '{';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separate();
  out_ += '[';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  separate();
  append_string(name);
  out_ += ':';
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  separate();
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  separate();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  separate();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  separate();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  separate();
  append_string(v);
  return *this;
}

void JsonWriter::append_string(std::string_view v) {
  out_ += '"';
  for (const char c : v) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out_ += buf;
    } else {
      out_ += c;
    }
  }
  out_ += '"';
}

JsonWriter& JsonWriter::value(const std::vector<double>& values) {
  begin_array();
  for (const double v : values) value(v);
  return end_array();
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  separate();
  out_ += json;
  return *this;
}

}  // namespace perfbench
