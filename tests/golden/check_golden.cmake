# Run one program and compare its stdout byte for byte with a
# committed golden file. Invoked by the `golden` ctests:
#
#   cmake -DCMD=<program> -DARGS="<args>" -DGOLDEN=<file>
#         -DACTUAL=<file> -P check_golden.cmake
#
# On a mismatch the actual output is left in ACTUAL for diffing.

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CMD} ${args}
                OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${CMD} ${ARGS} exited with ${rc}")
endif()
file(READ ${GOLDEN} want)
if(NOT out STREQUAL want)
    file(WRITE ${ACTUAL} "${out}")
    message(FATAL_ERROR "output differs from the golden file:\n"
                        "  diff ${GOLDEN} ${ACTUAL}")
endif()
