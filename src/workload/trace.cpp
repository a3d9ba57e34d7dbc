#include "workload/trace.hpp"

#include <stdexcept>

#include "util/contracts.hpp"
#include "util/text.hpp"

namespace tcsa {

std::vector<TraceEntry> parse_trace(std::string_view text) {
  std::vector<TraceEntry> entries;
  std::string_view raw;
  std::size_t line_no = 0;
  std::string line;
  while (next_line(text, raw)) {
    ++line_no;
    // Normalise separators, strip comments.
    line.assign(raw.substr(0, raw.find('#')));
    for (char& ch : line)
      if (ch == ',' || ch == '\t') ch = ' ';
    std::string_view fields = line;
    TraceEntry entry;
    entry.name = next_token(fields);
    if (entry.name.empty()) continue;  // blank line
    // Read like `std::istream >> SlotCount`: leading whitespace, then a
    // signed number; whatever follows it on the line is a trailing field.
    while (!fields.empty() && is_c_space(fields.front())) fields.remove_prefix(1);
    const auto [end, ec] = parse_int_prefix(fields, entry.expected_time);
    if (ec != std::errc()) {
      throw std::invalid_argument(
          "trace parse error (line " + std::to_string(line_no) +
          "): expected '<name> <expected-time>'");
    }
    fields.remove_prefix(static_cast<std::size_t>(end - fields.data()));
    if (const std::string_view extra = next_token(fields); !extra.empty()) {
      throw std::invalid_argument("trace parse error (line " +
                                  std::to_string(line_no) +
                                  "): trailing fields: " + std::string(extra));
    }
    if (entry.expected_time < 1) {
      throw std::invalid_argument("trace parse error (line " +
                                  std::to_string(line_no) +
                                  "): expected time must be >= 1");
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

TracePlan plan_from_trace(const std::vector<TraceEntry>& entries,
                          SlotCount max_ratio) {
  TCSA_REQUIRE(!entries.empty(), "plan_from_trace: empty trace");
  std::vector<SlotCount> times;
  times.reserve(entries.size());
  for (const TraceEntry& entry : entries) times.push_back(entry.expected_time);

  const SlotCount ratio = best_ladder_ratio(times, max_ratio);
  TracePlan plan{rearrange_expected_times(times, ratio), {}, ratio};

  plan.name_of_page.resize(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i)
    plan.name_of_page[plan.rearranged.page_of_input[i]] = entries[i].name;
  return plan;
}

}  // namespace tcsa
