# check_golden_output.cmake — fails when a table bench's output differs by
# one byte from its committed golden file.
#
#   cmake -DBINARY=build/bench/bench_fig5_uniform \
#         -DGOLDEN=bench/golden/fig5_uniform.txt \
#         -DOUTPUT=build/bench/golden/fig5_uniform.txt \
#         -P cmake/check_golden_output.cmake
#
# The table benches are deterministic: their request streams have fixed
# seeds, and the pooled sweep returns its points in a fixed order. A change
# that keeps behaviour (a refactor, a deleted unused module) must keep
# every table byte for byte, and the golden file records what the tables
# printed when they were last meant to change. The bench must exit 0 and
# print nothing on stderr. OUTPUT keeps the stdout of the last run for
# `diff` against the golden file.
#
# A change that means to alter a table regenerates its golden file:
#   build/bench/bench_<name> > bench/golden/<name>.txt
foreach(var BINARY GOLDEN OUTPUT)
  if(NOT ${var})
    message(FATAL_ERROR "set -D${var}=...")
  endif()
endforeach()

get_filename_component(output_dir "${OUTPUT}" DIRECTORY)
file(MAKE_DIRECTORY "${output_dir}")
execute_process(COMMAND "${BINARY}"
                OUTPUT_FILE "${OUTPUT}"
                ERROR_VARIABLE errors
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BINARY} failed (${status}): ${errors}")
endif()
if(NOT errors STREQUAL "")
  message(FATAL_ERROR "${BINARY} printed on stderr: ${errors}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${OUTPUT}" "${GOLDEN}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR
    "${BINARY} printed a table that differs from ${GOLDEN}; "
    "compare with: diff ${GOLDEN} ${OUTPUT}")
endif()
message(STATUS "${BINARY}: output matches ${GOLDEN}")
