# check_no_locale_runtime.cmake — fails when an ELF binary defines the C++
# locale and stream runtime.
#
#   cmake -DNM=nm -DBINARY=build/examples/tcsactl \
#         -P cmake/check_no_locale_runtime.cmake
#
# src/ and tcsactl format text without iostreams (DESIGN.md §5). One
# std::ostream or std::istream anywhere in the image constructs
# std::locale::classic(), which instantiates every char and wchar_t facet
# and links the libc code they reach: ~0.6 MB of text that a static server
# holds resident. The check names the first such symbol the binary
# defines:
#   _ZNSt6locale*        std::locale members
#   _ZNSt8ios_base*      std::ios_base members (every stream has one)
#   iconv_open           gconv, reached through the codecvt facets
#   __vfscanf_internal   the scanf family's engine
foreach(var NM BINARY)
  if(NOT ${var})
    message(FATAL_ERROR "set -D${var}=...")
  endif()
endforeach()

execute_process(COMMAND "${NM}" "${BINARY}"
                OUTPUT_VARIABLE symbols
                ERROR_VARIABLE errors
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${NM} ${BINARY} failed (${status}): ${errors}")
endif()

# nm lines read "<address> <type> <name>"; an undefined symbol has no
# address and type U, so only definitions match.
string(REGEX MATCH
  "[0-9a-f]+ [A-Za-z] (_ZNSt6locale[^\n]*|_ZNSt8ios_base[^\n]*|iconv_open|__vfscanf_internal)\n"
  found "${symbols}")
if(found)
  string(STRIP "${found}" found)
  message(FATAL_ERROR
    "${BINARY} links the locale/stream runtime; it defines: ${found}\n"
    "Format text with util/text.hpp instead of an iostream.")
endif()
message(STATUS "${BINARY}: no locale, ios_base, iconv or scanf runtime")
