# check_cxx_runtime_linked_in.cmake — fails when an ELF binary loads a
# runtime library that its build links in.
#
#   cmake -DREADELF=readelf -DBINARY=build/examples/tcsactl -DEXPECT=static \
#         -P cmake/check_cxx_runtime_linked_in.cmake
#
# EXPECT follows the link of tcsactl (examples/CMakeLists.txt):
#   static       a static PIE: no PT_INTERP segment (no dynamic loader), no
#                NEEDED entry at all, and still an ELF of type DYN;
#   cxx-runtime  a sanitizer build, dynamically linked against libc: no
#                libstdc++ or libgcc_s among its NEEDED entries.
# The check keeps a later link-line edit from quietly handing the start-up
# time and the resident pages of the shared libraries back.
foreach(var READELF BINARY EXPECT)
  if(NOT ${var})
    message(FATAL_ERROR "set -D${var}=...")
  endif()
endforeach()

function(readelf flag out)
  execute_process(COMMAND "${READELF}" ${flag} "${BINARY}"
                  OUTPUT_VARIABLE text
                  RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${READELF} ${flag} ${BINARY} failed (${status})")
  endif()
  set(${out} "${text}" PARENT_SCOPE)
endfunction()

readelf(-d dynamic)
string(REGEX MATCHALL "\\(NEEDED\\)[^\n]*" needed "${dynamic}")

if(EXPECT STREQUAL "static")
  readelf(-lW segments)
  if(NOT segments MATCHES "Elf file type is DYN")
    message(FATAL_ERROR "${BINARY} is not position-independent:\n${segments}")
  endif()
  if(segments MATCHES "INTERP")
    message(FATAL_ERROR
      "${BINARY} asks for a dynamic loader (PT_INTERP):\n${segments}")
  endif()
  if(needed)
    string(REPLACE ";" "\n" needed "${needed}")
    message(FATAL_ERROR "${BINARY} loads shared libraries:\n${needed}")
  endif()
  message(STATUS "${BINARY}: a static PIE, no loader and no NEEDED entries")
elseif(EXPECT STREQUAL "cxx-runtime")
  if(NOT needed)
    message(FATAL_ERROR "${BINARY}: no NEEDED entries found in:\n${dynamic}")
  endif()
  foreach(entry IN LISTS needed)
    if(entry MATCHES "libstdc\\+\\+|libgcc_s")
      message(FATAL_ERROR "${BINARY} loads the shared C++ runtime: ${entry}")
    endif()
  endforeach()
  message(STATUS "${BINARY}: no shared C++ runtime among its NEEDED entries")
else()
  message(FATAL_ERROR "EXPECT must be 'static' or 'cxx-runtime', not '${EXPECT}'")
endif()
