# Run one program and compare its stdout byte for byte with a
# committed golden file. Invoked by the `golden` ctests:
#
#   cmake -DCMD=<program> -DARGS="<args>" -DGOLDEN=<file>
#         -DACTUAL=<file> -P check_golden.cmake
#
# On a mismatch the first differing line is printed with its expected
# and actual text, and the whole actual output is left in ACTUAL.

cmake_minimum_required(VERSION 3.16)

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
    # Walk both texts line by line with string(FIND) rather than as
    # CMake lists, which would split on ';' and regroup on '['.
    set(line 1)
    set(w "${want}")
    set(o "${out}")
    while(TRUE)
        string(FIND "${w}" "\n" wi)
        string(FIND "${o}" "\n" oi)
        string(SUBSTRING "${w}" 0 ${wi} expected)
        string(SUBSTRING "${o}" 0 ${oi} actual)
        if(NOT expected STREQUAL actual OR wi EQUAL -1 OR oi EQUAL -1)
            break()
        endif()
        math(EXPR wi "${wi} + 1")
        math(EXPR oi "${oi} + 1")
        string(SUBSTRING "${w}" ${wi} -1 w)
        string(SUBSTRING "${o}" ${oi} -1 o)
        math(EXPR line "${line} + 1")
    endwhile()
    message(FATAL_ERROR "output differs from the golden file at line "
                        "${line}:\n"
                        "  expected: ${expected}\n"
                        "  actual:   ${actual}\n"
                        "  diff ${GOLDEN} ${ACTUAL}")
endif()
