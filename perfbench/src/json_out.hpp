// json_out.hpp — a minimal streaming JSON writer for the run record.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(std::string_view name);
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(bool v);
  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(const std::vector<double>& values);
  /// Splices an already-encoded JSON document in as one value.
  JsonWriter& raw(std::string_view json);

  const std::string& text() const noexcept { return out_; }

 private:
  void separate();
  void append_string(std::string_view v);

  std::string out_;
  std::vector<bool> first_;  // per open container: no member written yet
  bool after_key_ = false;
};

}  // namespace perfbench
