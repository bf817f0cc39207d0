# Runs one program with one argument and fails unless it exits with the
# expected status. Used by ctest cases that pin a CLI's usage errors:
#
#   cmake -DCMD=<program> -DARG=<argument> -DEXPECT=<status> \
#         -P cmake/expect_exit.cmake
execute_process(COMMAND "${CMD}" "${ARG}" RESULT_VARIABLE status
                OUTPUT_QUIET)
if(NOT status STREQUAL "${EXPECT}")
    message(FATAL_ERROR
        "${CMD} ${ARG}: exit status ${status}, expected ${EXPECT}")
endif()
