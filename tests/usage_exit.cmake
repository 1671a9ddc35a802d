# Run one binary with a bad command line and require a usage error:
# exit code 2 and the expected message on stderr, not an abort.
#
#   cmake -DBIN=<binary> -DARGS=<arg|arg|...> -DEXPECT=<regex>
#         -P usage_exit.cmake

string(REPLACE "|" ";" args "${ARGS}")
execute_process(
    COMMAND ${BIN} ${args}
    RESULT_VARIABLE status
    OUTPUT_QUIET
    ERROR_VARIABLE err)
if(NOT status STREQUAL "2")
    message(FATAL_ERROR "${BIN} ${args} exited with ${status}, not 2:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
    message(FATAL_ERROR "${BIN} ${args}: stderr lacks '${EXPECT}':\n${err}")
endif()
