// serialize.hpp — text round-tripping for workloads and broadcast programs.
//
// A small line-oriented format ("tcsa v1") so schedules can be saved,
// diffed, shipped to other tools and reloaded — the operational glue an
// open-source release needs. The format is self-describing and versioned;
// loads validate every structural invariant (the loader never constructs an
// object the in-memory constructors would reject).
//
// Workload:
//   tcsa-workload v1
//   groups <h>
//   group <expected_time> <pages>      (h lines, ascending times)
//
// Program:
//   tcsa-program v1
//   shape <channels> <cycle_length>
//   row <channel> <cell> <cell> ...    (one line per channel; '.' = empty)
//
// A compact *binary* encoding of workloads also lives here — the wire
// protocol's hello and swap frames ship whole workloads inside
// length-delimited network frames where the text format's tokenizing would
// be pure overhead. Layout (little-endian, util/wire.hpp):
//
//   workload: magic "TCWB" (u32) | version u8 | group_count u32
//             | group_count x { expected_time i64, pages i64 }
//
// The binary load enforces the same invariants as the text loader (the
// Workload constructor validates), rejects truncated input with
// std::invalid_argument, and caps the declared size so a hostile length
// cannot trigger an absurd allocation.
#pragma once

#include <string>
#include <string_view>

#include "model/program.hpp"
#include "model/workload.hpp"

namespace tcsa {

/// Renders `workload` as a tcsa-workload v1 document.
std::string workload_to_string(const Workload& workload);

/// Parses a tcsa-workload v1 document. Throws std::invalid_argument on any
/// syntax or invariant violation (with a line-oriented message).
Workload workload_from_string(std::string_view text);

/// Renders `program` as a tcsa-program v1 document.
std::string program_to_string(const BroadcastProgram& program);

/// Parses a tcsa-program v1 document. Throws std::invalid_argument on any
/// syntax violation.
BroadcastProgram program_from_string(std::string_view text);

/// Appends the binary encoding of `workload` to `out`.
void append_workload_binary(std::string& out, const Workload& workload);
std::string workload_to_binary(const Workload& workload);

/// Parses a binary workload spanning the whole buffer (trailing bytes are
/// an error). Throws std::invalid_argument on truncation, bad magic /
/// version, a total page count above the cell cap (more pages than any
/// program could air), or any workload invariant violation.
Workload workload_from_binary(std::string_view bytes);

}  // namespace tcsa
