// contracts.hpp — precondition / invariant checking macros.
//
// Following the Core Guidelines (I.5/I.7, E.12), interface preconditions are
// expressed as checks that throw, so callers get a diagnosable error instead
// of undefined behaviour. Internal invariants use TCSA_ASSERT, which is kept
// on in all build types: the library's workloads are small enough that the
// cost is negligible, and a scheduling bug silently producing an invalid
// broadcast program is far worse than the check.
#pragma once

#include <stdexcept>
#include <string>

namespace tcsa::detail {

[[noreturn]] inline void contract_failure(const char* kind, const char* expr,
                                          const char* file, int line,
                                          const std::string& message) {
  std::string text = std::string(kind) + " failed: (" + expr + ") at " + file +
                     ':' + std::to_string(line);
  if (!message.empty()) text += " — " + message;
  if (std::string(kind) == "precondition") throw std::invalid_argument(text);
  throw std::logic_error(text);
}

}  // namespace tcsa::detail

// Precondition on a public interface. Throws std::invalid_argument.
#define TCSA_REQUIRE(expr, msg)                                             \
  do {                                                                      \
    if (!(expr))                                                            \
      ::tcsa::detail::contract_failure("precondition", #expr, __FILE__,     \
                                       __LINE__, (msg));                    \
  } while (false)

// Internal invariant. Throws std::logic_error (a bug in this library).
#define TCSA_ASSERT(expr, msg)                                              \
  do {                                                                      \
    if (!(expr))                                                            \
      ::tcsa::detail::contract_failure("invariant", #expr, __FILE__,        \
                                       __LINE__, (msg));                    \
  } while (false)
