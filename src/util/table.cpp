#include "util/table.hpp"

#include <algorithm>

#include "util/contracts.hpp"
#include "util/text.hpp"

namespace tcsa {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  TCSA_REQUIRE(!headers_.empty(), "Table: need at least one column");
}

Table& Table::begin_row() {
  if (!cells_.empty()) {
    TCSA_REQUIRE(cells_.back().size() == headers_.size(),
                 "Table: previous row incomplete");
  }
  cells_.emplace_back();
  cells_.back().reserve(headers_.size());
  return *this;
}

void Table::check_row_open() const {
  TCSA_REQUIRE(!cells_.empty(), "Table: call begin_row() first");
  TCSA_REQUIRE(cells_.back().size() < headers_.size(),
               "Table: row already full");
}

Table& Table::add(std::string value) {
  check_row_open();
  cells_.back().push_back(std::move(value));
  return *this;
}

Table& Table::add(std::int64_t value) { return add(std::to_string(value)); }

Table& Table::add(std::uint64_t value) { return add(std::to_string(value)); }

Table& Table::add(double value, int precision) {
  return add(str_cat(fixed(value, precision)));
}

const std::string& Table::cell(std::size_t row, std::size_t col) const {
  TCSA_REQUIRE(row < cells_.size(), "Table: row out of range");
  TCSA_REQUIRE(col < cells_[row].size(), "Table: column out of range");
  return cells_[row][col];
}

std::string Table::to_string() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    width[c] = headers_[c].size();
  for (const auto& row : cells_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  std::string out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      if (c) out += "  ";
      const std::string_view v =
          c < row.size() ? std::string_view(row[c]) : std::string_view();
      str_append(out, pad(width[c], v));
    }
    out += '\n';
  };
  emit_row(headers_);
  std::size_t rule = 0;
  for (std::size_t c = 0; c < width.size(); ++c) rule += width[c] + (c ? 2 : 0);
  out.append(rule, '-');
  out += '\n';
  for (const auto& row : cells_) emit_row(row);
  return out;
}

namespace {
std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}
}  // namespace

std::string Table::to_csv() const {
  std::string out;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c) out += ',';
    out += csv_escape(headers_[c]);
  }
  out += '\n';
  for (const auto& row : cells_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) out += ',';
      out += csv_escape(row[c]);
    }
    out += '\n';
  }
  return out;
}

std::string Table::to_markdown() const {
  std::string out = "|";
  for (const auto& header : headers_) out += ' ' + header + " |";
  out += "\n|";
  for (std::size_t c = 0; c < headers_.size(); ++c) out += "---|";
  out += '\n';
  for (const auto& row : cells_) {
    out += '|';
    for (const auto& v : row) out += ' ' + v + " |";
    out += '\n';
  }
  return out;
}

}  // namespace tcsa
