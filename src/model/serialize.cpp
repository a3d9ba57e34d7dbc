#include "model/serialize.hpp"

#include <cstdint>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/wire.hpp"

namespace tcsa {
namespace {

[[noreturn]] void parse_error(const std::string& what, std::size_t line) {
  throw std::invalid_argument("tcsa parse error (line " +
                              std::to_string(line) + "): " + what);
}

/// Reads one non-empty, non-comment line; returns false at EOF.
bool next_line(std::istream& is, std::string& line, std::size_t& line_no) {
  while (std::getline(is, line)) {
    ++line_no;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;   // blank
    if (line[first] == '#') continue;           // comment
    return true;
  }
  return false;
}

std::vector<std::string> tokens_of(const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> tokens;
  std::string token;
  while (is >> token) tokens.push_back(token);
  return tokens;
}

SlotCount parse_count(const std::string& token, std::size_t line_no) {
  try {
    std::size_t used = 0;
    const long long value = std::stoll(token, &used);
    if (used != token.size()) parse_error("trailing junk in number: " + token, line_no);
    return value;
  } catch (const std::invalid_argument&) {
    parse_error("expected a number, got: " + token, line_no);
  } catch (const std::out_of_range&) {
    parse_error("number out of range: " + token, line_no);
  }
}

}  // namespace

void save_workload(std::ostream& os, const Workload& workload) {
  os << "tcsa-workload v1\n";
  os << "groups " << workload.group_count() << '\n';
  for (GroupId g = 0; g < workload.group_count(); ++g) {
    os << "group " << workload.expected_time(g) << ' '
       << workload.pages_in_group(g) << '\n';
  }
}

Workload load_workload(std::istream& is) {
  std::string line;
  std::size_t line_no = 0;
  if (!next_line(is, line, line_no) || tokens_of(line) !=
      std::vector<std::string>{"tcsa-workload", "v1"}) {
    parse_error("expected header 'tcsa-workload v1'", line_no);
  }
  if (!next_line(is, line, line_no)) parse_error("missing 'groups' line", line_no);
  const auto header = tokens_of(line);
  if (header.size() != 2 || header[0] != "groups")
    parse_error("expected 'groups <h>'", line_no);
  const SlotCount h = parse_count(header[1], line_no);
  if (h < 1) parse_error("group count must be >= 1", line_no);

  std::vector<GroupSpec> groups;
  groups.reserve(static_cast<std::size_t>(h));
  for (SlotCount g = 0; g < h; ++g) {
    if (!next_line(is, line, line_no)) parse_error("missing group line", line_no);
    const auto fields = tokens_of(line);
    if (fields.size() != 3 || fields[0] != "group")
      parse_error("expected 'group <expected_time> <pages>'", line_no);
    groups.push_back(GroupSpec{parse_count(fields[1], line_no),
                               parse_count(fields[2], line_no)});
  }
  try {
    return Workload(std::move(groups));
  } catch (const std::invalid_argument& e) {
    parse_error(std::string("invalid workload: ") + e.what(), line_no);
  }
}

void save_program(std::ostream& os, const BroadcastProgram& program) {
  os << "tcsa-program v1\n";
  os << "shape " << program.channels() << ' ' << program.cycle_length()
     << '\n';
  for (SlotCount ch = 0; ch < program.channels(); ++ch) {
    os << "row " << ch;
    for (SlotCount s = 0; s < program.cycle_length(); ++s) {
      const PageId p = program.at(ch, s);
      os << ' ';
      if (p == kNoPage) {
        os << '.';
      } else {
        os << p;
      }
    }
    os << '\n';
  }
}

BroadcastProgram load_program(std::istream& is) {
  std::string line;
  std::size_t line_no = 0;
  if (!next_line(is, line, line_no) || tokens_of(line) !=
      std::vector<std::string>{"tcsa-program", "v1"}) {
    parse_error("expected header 'tcsa-program v1'", line_no);
  }
  if (!next_line(is, line, line_no)) parse_error("missing 'shape' line", line_no);
  const auto shape = tokens_of(line);
  if (shape.size() != 3 || shape[0] != "shape")
    parse_error("expected 'shape <channels> <cycle_length>'", line_no);
  const SlotCount channels = parse_count(shape[1], line_no);
  const SlotCount cycle = parse_count(shape[2], line_no);
  if (channels < 1 || cycle < 1) parse_error("degenerate shape", line_no);

  BroadcastProgram program(channels, cycle);
  for (SlotCount ch = 0; ch < channels; ++ch) {
    if (!next_line(is, line, line_no)) parse_error("missing row line", line_no);
    const auto fields = tokens_of(line);
    if (fields.size() != static_cast<std::size_t>(cycle) + 2 ||
        fields[0] != "row") {
      parse_error("expected 'row <channel> <cycle> cells'", line_no);
    }
    if (parse_count(fields[1], line_no) != ch)
      parse_error("rows out of order", line_no);
    for (SlotCount s = 0; s < cycle; ++s) {
      const std::string& cell = fields[static_cast<std::size_t>(s) + 2];
      if (cell == ".") continue;
      const SlotCount value = parse_count(cell, line_no);
      if (value < 0 || value >= static_cast<SlotCount>(kNoPage))
        parse_error("page id out of range: " + cell, line_no);
      program.place(ch, s, static_cast<PageId>(value));
    }
  }
  return program;
}

std::string workload_to_string(const Workload& workload) {
  std::ostringstream os;
  save_workload(os, workload);
  return os.str();
}

Workload workload_from_string(const std::string& text) {
  std::istringstream is(text);
  return load_workload(is);
}

std::string program_to_string(const BroadcastProgram& program) {
  std::ostringstream os;
  save_program(os, program);
  return os.str();
}

BroadcastProgram program_from_string(const std::string& text) {
  std::istringstream is(text);
  return load_program(is);
}

// ------------------------------------------------------- binary encodings

namespace {

constexpr std::uint32_t kWorkloadMagic = 0x42574354;  // "TCWB" LE
constexpr std::uint32_t kProgramMagic = 0x42504354;   // "TCPB" LE
constexpr std::uint8_t kBinaryVersion = 1;

/// Hostile-input allocation caps: a swap frame will never legitimately
/// carry more, and a corrupt length must not become a multi-GiB resize.
constexpr std::uint32_t kMaxBinaryGroups = 1u << 16;
constexpr std::uint64_t kMaxBinaryCells = 1ull << 26;

void check_header(WireReader& reader, std::uint32_t magic,
                  const char* what) {
  if (reader.read_u32() != magic)
    throw std::invalid_argument(std::string("binary ") + what +
                                ": bad magic");
  const std::uint8_t version = reader.read_u8();
  if (version != kBinaryVersion)
    throw std::invalid_argument(std::string("binary ") + what +
                                ": unsupported version " +
                                std::to_string(version));
}

void finish(const WireReader& reader, std::size_t* consumed) {
  if (consumed == nullptr) {
    reader.expect_done();
  } else {
    *consumed = reader.consumed();
  }
}

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

Workload workload_from_binary(std::string_view bytes, std::size_t* consumed) {
  WireReader reader(bytes);
  check_header(reader, kWorkloadMagic, "workload");
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
  finish(reader, consumed);
  try {
    return Workload(std::move(groups));
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string("binary workload: invalid: ") +
                                e.what());
  }
}

void append_program_binary(std::string& out,
                           const BroadcastProgram& program) {
  wire_put_u32(out, kProgramMagic);
  wire_put_u8(out, kBinaryVersion);
  wire_put_i64(out, program.channels());
  wire_put_i64(out, program.cycle_length());
  for (SlotCount ch = 0; ch < program.channels(); ++ch)
    for (SlotCount s = 0; s < program.cycle_length(); ++s)
      wire_put_u32(out, program.at(ch, s));
}

std::string program_to_binary(const BroadcastProgram& program) {
  std::string out;
  append_program_binary(out, program);
  return out;
}

BroadcastProgram program_from_binary(std::string_view bytes,
                                     std::size_t* consumed) {
  WireReader reader(bytes);
  check_header(reader, kProgramMagic, "program");
  const SlotCount channels = reader.read_i64();
  const SlotCount cycle = reader.read_i64();
  if (channels < 1 || cycle < 1)
    throw std::invalid_argument("binary program: degenerate shape");
  // Bound each dimension before multiplying: a hostile 2^40 x 2^40 shape
  // would wrap the 64-bit product right past the cell cap.
  if (static_cast<std::uint64_t>(channels) > kMaxBinaryCells ||
      static_cast<std::uint64_t>(cycle) > kMaxBinaryCells ||
      static_cast<std::uint64_t>(channels) *
              static_cast<std::uint64_t>(cycle) >
          kMaxBinaryCells)
    throw std::invalid_argument("binary program: shape exceeds cell cap");
  // Reject truncation before building the (possibly large) grid.
  if (reader.remaining() <
      static_cast<std::uint64_t>(channels) *
          static_cast<std::uint64_t>(cycle) * sizeof(std::uint32_t))
    throw std::invalid_argument("binary program: truncated grid");
  BroadcastProgram program(channels, cycle);
  for (SlotCount ch = 0; ch < channels; ++ch) {
    for (SlotCount s = 0; s < cycle; ++s) {
      const std::uint32_t cell = reader.read_u32();
      if (cell != kNoPage) program.place(ch, s, cell);
    }
  }
  finish(reader, consumed);
  return program;
}

}  // namespace tcsa
