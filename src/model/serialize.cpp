#include "model/serialize.hpp"

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/text.hpp"
#include "util/wire.hpp"

namespace tcsa {
namespace {

[[noreturn]] void parse_error(const std::string& what, std::size_t line) {
  throw std::invalid_argument("tcsa parse error (line " +
                              std::to_string(line) + "): " + what);
}

/// Walks a document's non-empty, non-comment lines as token lists.
class LineReader {
 public:
  explicit LineReader(std::string_view text) : rest_(text) {}

  /// Reads the next such line into `tokens`; returns false at the end.
  bool next(std::vector<std::string_view>& tokens) {
    std::string_view line;
    while (next_line(rest_, line)) {
      ++line_no_;
      const auto first = line.find_first_not_of(" \t\r");
      if (first == std::string_view::npos) continue;  // blank
      if (line[first] == '#') continue;               // comment
      tokens.clear();
      for (std::string_view token = next_token(line); !token.empty();
           token = next_token(line))
        tokens.push_back(token);
      return true;
    }
    return false;
  }

  std::size_t line_no() const { return line_no_; }

 private:
  std::string_view rest_;
  std::size_t line_no_ = 0;
};

using Tokens = std::vector<std::string_view>;

SlotCount parse_count(std::string_view token, std::size_t line_no) {
  SlotCount value = 0;
  const auto [end, ec] = parse_int_prefix(token, value);
  if (ec == std::errc::result_out_of_range)
    parse_error("number out of range: " + std::string(token), line_no);
  if (ec != std::errc() || end != token.data() + token.size())
    parse_error("expected a number, got: " + std::string(token), line_no);
  return value;
}

}  // namespace

std::string workload_to_string(const Workload& workload) {
  std::string text =
      str_cat("tcsa-workload v1\ngroups ", workload.group_count(), '\n');
  for (GroupId g = 0; g < workload.group_count(); ++g) {
    str_append(text, "group ", workload.expected_time(g), ' ',
               workload.pages_in_group(g), '\n');
  }
  return text;
}

Workload workload_from_string(std::string_view text) {
  LineReader reader(text);
  Tokens tokens;
  if (!reader.next(tokens) || tokens != Tokens{"tcsa-workload", "v1"})
    parse_error("expected header 'tcsa-workload v1'", reader.line_no());
  if (!reader.next(tokens))
    parse_error("missing 'groups' line", reader.line_no());
  if (tokens.size() != 2 || tokens[0] != "groups")
    parse_error("expected 'groups <h>'", reader.line_no());
  const SlotCount h = parse_count(tokens[1], reader.line_no());
  if (h < 1) parse_error("group count must be >= 1", reader.line_no());

  std::vector<GroupSpec> groups;
  groups.reserve(static_cast<std::size_t>(h));
  for (SlotCount g = 0; g < h; ++g) {
    if (!reader.next(tokens))
      parse_error("missing group line", reader.line_no());
    if (tokens.size() != 3 || tokens[0] != "group")
      parse_error("expected 'group <expected_time> <pages>'", reader.line_no());
    groups.push_back(GroupSpec{parse_count(tokens[1], reader.line_no()),
                               parse_count(tokens[2], reader.line_no())});
  }
  try {
    return Workload(std::move(groups));
  } catch (const std::invalid_argument& e) {
    parse_error(std::string("invalid workload: ") + e.what(),
                reader.line_no());
  }
}

std::string program_to_string(const BroadcastProgram& program) {
  std::string text = str_cat("tcsa-program v1\nshape ", program.channels(),
                             ' ', program.cycle_length(), '\n');
  for (SlotCount ch = 0; ch < program.channels(); ++ch) {
    str_append(text, "row ", ch);
    for (SlotCount s = 0; s < program.cycle_length(); ++s) {
      const PageId p = program.at(ch, s);
      text += ' ';
      if (p == kNoPage) {
        text += '.';
      } else {
        str_append(text, p);
      }
    }
    text += '\n';
  }
  return text;
}

BroadcastProgram program_from_string(std::string_view text) {
  LineReader reader(text);
  Tokens tokens;
  if (!reader.next(tokens) || tokens != Tokens{"tcsa-program", "v1"})
    parse_error("expected header 'tcsa-program v1'", reader.line_no());
  if (!reader.next(tokens))
    parse_error("missing 'shape' line", reader.line_no());
  if (tokens.size() != 3 || tokens[0] != "shape")
    parse_error("expected 'shape <channels> <cycle_length>'", reader.line_no());
  const SlotCount channels = parse_count(tokens[1], reader.line_no());
  const SlotCount cycle = parse_count(tokens[2], reader.line_no());
  if (channels < 1 || cycle < 1)
    parse_error("degenerate shape", reader.line_no());

  BroadcastProgram program(channels, cycle);
  for (SlotCount ch = 0; ch < channels; ++ch) {
    if (!reader.next(tokens)) parse_error("missing row line", reader.line_no());
    const std::size_t line_no = reader.line_no();
    if (tokens.size() != static_cast<std::size_t>(cycle) + 2 ||
        tokens[0] != "row") {
      parse_error("expected 'row <channel> <cycle> cells'", line_no);
    }
    if (parse_count(tokens[1], line_no) != ch)
      parse_error("rows out of order", line_no);
    for (SlotCount s = 0; s < cycle; ++s) {
      const std::string_view cell = tokens[static_cast<std::size_t>(s) + 2];
      if (cell == ".") continue;
      const SlotCount value = parse_count(cell, line_no);
      if (value < 0 || value >= static_cast<SlotCount>(kNoPage))
        parse_error("page id out of range: " + std::string(cell), line_no);
      program.place(ch, s, static_cast<PageId>(value));
    }
  }
  return program;
}

// ------------------------------------------------------- binary encodings

namespace {

constexpr std::uint32_t kWorkloadMagic = 0x42574354;  // "TCWB" LE
constexpr std::uint8_t kBinaryVersion = 1;

/// Hostile-input allocation caps: a swap frame will never legitimately
/// carry more, and a corrupt length must not become a multi-GiB resize.
constexpr std::uint32_t kMaxBinaryGroups = 1u << 16;
constexpr std::uint64_t kMaxBinaryCells = 1ull << 26;

}  // namespace

void append_workload_binary(std::string& out, const Workload& workload) {
  wire_put_u32(out, kWorkloadMagic);
  wire_put_u8(out, kBinaryVersion);
  wire_put_u32(out, static_cast<std::uint32_t>(workload.group_count()));
  for (GroupId g = 0; g < workload.group_count(); ++g) {
    wire_put_i64(out, workload.expected_time(g));
    wire_put_i64(out, workload.pages_in_group(g));
  }
}

std::string workload_to_binary(const Workload& workload) {
  std::string out;
  append_workload_binary(out, workload);
  return out;
}

Workload workload_from_binary(std::string_view bytes) {
  WireReader reader(bytes);
  if (reader.read_u32() != kWorkloadMagic)
    throw std::invalid_argument("binary workload: bad magic");
  if (const std::uint8_t version = reader.read_u8(); version != kBinaryVersion)
    throw std::invalid_argument("binary workload: unsupported version " +
                                std::to_string(version));
  const std::uint32_t h = reader.read_u32();
  if (h < 1 || h > kMaxBinaryGroups)
    throw std::invalid_argument("binary workload: group count " +
                                std::to_string(h) + " out of range");
  std::vector<GroupSpec> groups;
  groups.reserve(h);
  // A program airs every page at least once, so a workload with more pages
  // than the program cell cap could never be served: reject it before the
  // Workload constructor sizes its page table.
  std::uint64_t total_pages = 0;
  for (std::uint32_t g = 0; g < h; ++g) {
    const SlotCount expected_time = reader.read_i64();
    const SlotCount pages = reader.read_i64();
    if (pages > 0) {
      if (static_cast<std::uint64_t>(pages) > kMaxBinaryCells - total_pages)
        throw std::invalid_argument("binary workload: page count exceeds "
                                    "cell cap");
      total_pages += static_cast<std::uint64_t>(pages);
    }
    groups.push_back(GroupSpec{expected_time, pages});
  }
  reader.expect_done();
  try {
    return Workload(std::move(groups));
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string("binary workload: invalid: ") +
                                e.what());
  }
}

}  // namespace tcsa
