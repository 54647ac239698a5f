# Run one program with an argument it must refuse, and check that it
# does: exit code 2, its usage text ("usage: <program>") on stderr and
# nothing on stdout. Invoked by the `refusal` ctests:
#
#   cmake -DCMD=<program> -DARGS="<args>" -P check_refusal.cmake
#
# A crash, another exit code, a missing usage text or any output on
# stdout fails, and the log shows both streams.

cmake_minimum_required(VERSION 3.16)

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CMD} ${args}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
get_filename_component(program ${CMD} NAME)
string(FIND "${err}" "usage: ${program}" at)
if(NOT rc STREQUAL "2" OR at EQUAL -1 OR NOT out STREQUAL "")
    message(FATAL_ERROR "${program} ${ARGS}: want exit 2, the usage "
                        "text on stderr and an empty stdout; got exit "
                        "${rc}\n"
                        "stdout:\n${out}\n"
                        "stderr:\n${err}")
endif()
