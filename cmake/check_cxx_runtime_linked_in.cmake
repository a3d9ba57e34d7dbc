# check_cxx_runtime_linked_in.cmake — fails when an ELF binary loads the C++
# runtime as a shared library, i.e. when `readelf -d` lists libstdc++ or
# libgcc_s among its NEEDED entries.
#
#   cmake -DREADELF=readelf -DBINARY=build/examples/tcsactl \
#         -P cmake/check_cxx_runtime_linked_in.cmake
#
# tcsactl links libstdc++ and libgcc statically (examples/CMakeLists.txt);
# this check keeps a later link-line edit from quietly handing the start-up
# time of the shared runtime back.
foreach(var READELF BINARY)
  if(NOT ${var})
    message(FATAL_ERROR "set -D${var}=...")
  endif()
endforeach()

execute_process(COMMAND "${READELF}" -d "${BINARY}"
                OUTPUT_VARIABLE dynamic
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${READELF} -d ${BINARY} failed (${status})")
endif()

string(REGEX MATCHALL "\\(NEEDED\\)[^\n]*" needed "${dynamic}")
if(NOT needed)
  message(FATAL_ERROR "${BINARY}: no NEEDED entries found in:\n${dynamic}")
endif()
foreach(entry IN LISTS needed)
  if(entry MATCHES "libstdc\\+\\+|libgcc_s")
    message(FATAL_ERROR "${BINARY} loads the shared C++ runtime: ${entry}")
  endif()
endforeach()
message(STATUS "${BINARY}: no shared C++ runtime among its NEEDED entries")
