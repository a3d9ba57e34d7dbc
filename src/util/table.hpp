// table.hpp — tabular report writer for benches and examples.
//
// The benchmark harness regenerates the paper's tables/figures as text. A
// Table collects typed cells and renders them aligned (console), as CSV
// (for plotting), or as GitHub markdown (for EXPERIMENTS.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tcsa {

/// Column-typed table: header row plus homogeneous-width rendering.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Starts a new row; subsequent add_* calls fill it left to right.
  Table& begin_row();
  Table& add(std::string value);
  Table& add(std::int64_t value);
  Table& add(std::uint64_t value);
  Table& add(int value) { return add(static_cast<std::int64_t>(value)); }
  /// Formats with fixed precision (default 3 decimal places).
  Table& add(double value, int precision = 3);

  std::size_t rows() const noexcept { return cells_.size(); }
  std::size_t columns() const noexcept { return headers_.size(); }
  const std::string& cell(std::size_t row, std::size_t col) const;

  /// Space-padded console rendering with a rule under the header.
  std::string to_string() const;
  /// RFC-4180-ish CSV (quotes cells containing commas/quotes).
  std::string to_csv() const;
  /// GitHub-flavoured markdown.
  std::string to_markdown() const;

 private:
  void check_row_open() const;

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> cells_;
};

}  // namespace tcsa
